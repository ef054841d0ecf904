// csq_perfbench: drives an in-process serve::Server with pre-generated
// NDJSON request lines in a closed loop and prints the end-to-end metrics
// (--trace 0) or the per-layer breakdown (--trace 1) as one JSON line.
// perfbench/run.py generates the lines from a seed, builds this program and
// passes it the workload's server configuration:
//
//   csq_perfbench --requests R.ndjson --warmup W.ndjson --seconds 15
//       --trace 0|1 --workers 2 --op-threads 1 --inflight 4
//       [--fsync-every 32]
//
// Phases: set-up (server construction, journal open, warm-up lines) is
// repeated for about half a second and the last server serves the timed
// phase; after it, set-up is repeated for another half second, and the
// median of all set-ups is reported. --trace 1 splits the time into an untraced half
// (the tracing-overhead baseline and CPU per request) and a traced half that
// is harvested in quiescent chunks. Afterwards the server is drained, its
// request ledger checked, and the first kSample lines' responses compared
// byte for byte with a recompute through the public entry points.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/deadline.h"
#include "core/status.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using csq::timebase::now_ns;

struct Options {
  std::string requests, warmup;
  double seconds = 10.0;
  bool trace = false;
  int workers = 2, op_threads = 1, inflight = 4;
  int fsync_every = 0;  // 0 = no write-ahead journal
};

// Set-up is repeated until kSetupBudgetNs of it has run, half before the
// timed phase and half after it (each half at least kMinSetupReps, at most
// kMaxSetupReps times), and the median reported: a single set-up is a few
// hundred microseconds to a few tens of milliseconds, and one of them alone
// is mostly scheduler noise.
constexpr int kMinSetupReps = 15;
constexpr int kMaxSetupReps = 1000;
constexpr std::int64_t kSetupBudgetNs = 1'000'000'000;
// Pool lines whose served bytes are compared with a recompute.
constexpr std::size_t kSample = 32;

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--requests") o.requests = v;
    else if (flag == "--warmup") o.warmup = v;
    else if (flag == "--seconds") o.seconds = std::stod(v);
    else if (flag == "--trace") o.trace = v == "1";
    else if (flag == "--workers") o.workers = std::stoi(v);
    else if (flag == "--op-threads") o.op_threads = std::stoi(v);
    else if (flag == "--inflight") o.inflight = std::stoi(v);
    else if (flag == "--fsync-every") o.fsync_every = std::stoi(v);
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (o.requests.empty() || o.warmup.empty())
    throw std::runtime_error("--requests and --warmup are required");
  if (!(o.seconds > 0.0) || o.inflight < 1)
    throw std::runtime_error("--seconds and --inflight must be positive");
  return o;
}

// One server with its sink loop and (optional) in-memory journal. Members
// are destroyed in reverse: the server drains before the journal closes and
// before the loop its sink calls goes away.
struct ServeEnv {
  explicit ServeEnv(const Options& o) : loop(o.inflight) {
    if (o.fsync_every > 0) journal = std::make_unique<MemJournal>(o.fsync_every);
    csq::serve::ServerOptions so;
    so.workers = o.workers;
    so.op_threads = o.op_threads;
    so.sink = [this](const std::string& response) { loop.on_response(response); };
    if (journal) so.journal = &journal->journal();
    server = std::make_unique<csq::serve::Server>(std::move(so));
  }
  void trim_journal() {
    if (journal) journal->trim();
  }

  ClosedLoop loop;
  std::unique_ptr<MemJournal> journal;
  std::unique_ptr<csq::serve::Server> server;
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Counters read around the traced phase (deltas attribute the phase only).
const std::vector<std::string> kCounters = {
    "serve.cache.hits",      "serve.cache.misses",       "serve.cache.evictions",
    "serve.requests.retried", "serve.requests.degraded", "serve.requests.shed",
    "durable.journal.fsyncs", "dist.fit.cache_hits",     "dist.fit.cache_misses",
    "qbd.solve.calls",       "solver.fallback.engaged",  "qbd.fi.iterations",
    "qbd.kernel.pattern_mults", "qbd.kernel.dense_mults", "sweep.points.evaluated",
    "sweep.points.failed",   "pool.channel.grants",      "pool.channel.requests",
    "pool.tasks.stolen",     "pool.tasks.executed",      "pool.workers.suspended",
    "sim.engine.events",
};

std::map<std::string, double> read_counters() {
  std::map<std::string, double> out;
  for (const std::string& name : kCounters)
    out[name] = static_cast<double>(csq::obs::Registry::instance().counter_value(name));
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::int64_t count_named(const std::vector<csq::obs::TraceEvent>& events, const char* name) {
  return std::count_if(events.begin(), events.end(),
                       [&](const csq::obs::TraceEvent& e) { return e.name == name; });
}

struct Metric {
  std::string name, unit;
  double value = 0.0;
};

std::string format_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": " << format_number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// Latencies kept per one-second bucket (32 KiB each, allocated up front).
constexpr std::size_t kBucketSample = 4096;
constexpr std::int64_t kSettleNs = 1'000'000'000;
// End-to-end figures are medians over up to kWindows consecutive windows of
// the timed phase, each with at least kWindowOk ok requests. A window then
// retains at least min(kWindowOk, kBucketSample) latencies, so its p99 has
// at least 40 samples beyond it. A burst of host contention moves a few
// windows, not the reported figure. A phase with fewer than 2 * kWindowOk ok
// requests (the offline workloads) is one window: there the p99 is set by
// the rare costly requests, and cutting the phase into windows of fewer
// requests widened its spread across seeds.
constexpr std::size_t kWindows = 9;
constexpr std::int64_t kWindowOk = 5000;

int run(const Options& o) {
  Pool pool = load_pool(o.requests, kSample);
  Pool warm = load_pool(o.warmup, 0);

  // ---- set-up, repeated; the last server is kept -------------------------
  std::vector<double> setup_s;
  std::int64_t setup_failures = 0;
  // Set-ups for about budget_ns; returns the last server, warm-ups answered.
  const auto set_up = [&](std::int64_t budget_ns) {
    std::unique_ptr<ServeEnv> env;
    std::int64_t spent = 0;
    for (int r = 0; r < kMaxSetupReps && (r < kMinSetupReps || spent < budget_ns); ++r) {
      env.reset();
      const std::int64_t t0 = now_ns();
      env = std::make_unique<ServeEnv>(o);
      warm.next = 0;
      env->loop.run(*env->server, warm, std::numeric_limits<std::int64_t>::max(),
                    warm.lines.size(), {});
      const std::int64_t dt = now_ns() - t0;
      spent += dt;
      setup_s.push_back(static_cast<double>(dt) / 1e9);
      const ResponseTally t = env->loop.tally();
      setup_failures += t.errors + t.nondeterministic + t.unmatched + t.missing;
    }
    return env;
  };
  std::unique_ptr<ServeEnv> env = set_up(kSetupBudgetNs / 2);
  const ResponseTally after_setup = env->loop.tally();
  const auto trim = [&] { env->trim_journal(); };

  // ---- timed phases ------------------------------------------------------
  // One untimed second of the workload first, so thread-local solver state
  // is warm and the host is under load when timing starts.
  PhaseRecorder settle(0, 0.0, 0);
  env->loop.run(*env->server, pool, now_ns() + kSettleNs,
                std::numeric_limits<std::size_t>::max(),
                [&](const Completion& c) { settle.add(c); }, trim);
  const double timed_s = o.trace ? o.seconds / 2.0 : o.seconds;
  std::int64_t t0 = now_ns();
  PhaseRecorder base(t0, timed_s, kBucketSample);
  std::map<csq::serve::OpKind, PhaseRecorder> by_op;
  for (const csq::serve::Request& r : pool.requests)
    by_op.try_emplace(r.op, t0, timed_s, kBucketSample / 4);
  const double cpu0 = cpu_seconds();
  env->loop.run(*env->server, pool, t0 + static_cast<std::int64_t>(timed_s * 1e9),
                std::numeric_limits<std::size_t>::max(),
                [&](const Completion& c) {
                  base.add(c);
                  by_op.at(pool.requests[c.line].op).add(c);
                },
                trim);
  const std::int64_t base_end = now_ns();
  const double base_s = static_cast<double>(base_end - t0) / 1e9;
  const double cpu_s = cpu_seconds() - cpu0;
  const double rss_mb = peak_rss_mb();

  PhaseRecorder traced(0, 0.0, 0);
  TraceAccounting acc;
  std::size_t dropped = 0;
  double traced_active_s = 0.0;
  std::map<std::string, double> c0, c1;
  if (o.trace) {
    csq::obs::clear_trace();
    c0 = read_counters();
    csq::obs::set_tracing(true);
    env->loop.set_mark_spans(true);
    const std::int64_t phase_end = now_ns() + static_cast<std::int64_t>(timed_s * 1e9);
    constexpr std::int64_t kChunkNs = 500'000'000;
    while (now_ns() < phase_end) {
      std::vector<Completion> chunk;
      t0 = now_ns();
      env->loop.run(*env->server, pool, std::min(phase_end, t0 + kChunkNs),
                    std::numeric_limits<std::size_t>::max(),
                    [&](const Completion& c) {
                      chunk.push_back(c);
                      traced.add(c);
                    },
                    trim);
      traced_active_s += static_cast<double>(now_ns() - t0) / 1e9;
      // A handle span closes just after its sink call: wait until every
      // request of the chunk has its handle recorded before harvesting.
      std::vector<csq::obs::TraceEvent> events = csq::obs::trace_events();
      for (int spin = 0; spin < 5000 && count_named(events, "serve.request.handle") <
                                            static_cast<std::int64_t>(chunk.size());
           ++spin) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        events = csq::obs::trace_events();
      }
      dropped += csq::obs::trace_dropped();
      csq::obs::clear_trace();
      acc.add_chunk(events, chunk, pool);
    }
    csq::obs::set_tracing(false);
    env->loop.set_mark_spans(false);
    c1 = read_counters();
  }

  // ---- drain, ledger, output checks --------------------------------------
  env->server->drain();
  const csq::serve::Server::Stats st = env->server->stats();
  const bool ledger_ok = st.received == st.admitted + st.shed + st.invalid &&
                         st.admitted == st.completed + st.cancelled;
  const ResponseTally tally = env->loop.tally();
  const std::int64_t missing = tally.missing - after_setup.missing;
  const std::int64_t unmatched = tally.unmatched - after_setup.unmatched;
  env.reset();
  // The other half of the set-ups, at the run's other end: the host's speed
  // drifts over seconds, and one moment's speed would set the median.
  set_up(kSetupBudgetNs / 2);

  std::int64_t sample_bad = 0;
  for (std::size_t i = 0; i < pool.sample_responses.size(); ++i) {
    const std::string& served = pool.sample_responses[i];
    const std::string expected = expected_response(pool.requests[i]);
    if (served == expected) continue;
    ++sample_bad;
    if (sample_bad == 1)
      std::cerr << "output check: line " << i << " served\n  " << served << "\nexpected\n  "
                << expected << "\n";
  }

  const std::int64_t untraced_n = base.ok() + base.not_ok();
  const std::int64_t traced_n = traced.ok() + traced.not_ok();
  const std::int64_t settle_n = settle.ok() + settle.not_ok();
  const std::int64_t attempted = settle_n + untraced_n + traced_n + missing;
  const std::int64_t not_ok = settle.not_ok() + base.not_ok() + traced.not_ok();
  const std::int64_t failed = not_ok + missing + sample_bad;
  const bool correct = failed == 0 && unmatched == 0 && setup_failures == 0 && ledger_ok &&
                       dropped == 0 && attempted > 0;

  std::cout << "set-up: " << setup_s.size() << " set-ups, quartiles " << percentile(setup_s, 0.25)
            << " / " << percentile(setup_s, 0.50) << " / " << percentile(setup_s, 0.75) << " s\n";
  std::cout << "phase: " << settle_n << " requests settling, " << untraced_n << " in "
            << base_s << " s untraced";
  if (o.trace) std::cout << ", " << traced_n << " in " << traced_active_s << " s traced";
  std::cout << "\nchecks: failed " << failed << " of " << attempted << " (not ok "
            << not_ok << ", missing " << missing << ", sample mismatches "
            << sample_bad << " of " << pool.sample_responses.size() << "), unmatched "
            << unmatched << ", set-up failures " << setup_failures << ", ledger "
            << (ledger_ok ? "balanced" : "BROKEN") << " (received " << st.received
            << " = admitted " << st.admitted << " + shed " << st.shed << " + invalid "
            << st.invalid << "; admitted = completed " << st.completed << " + cancelled "
            << st.cancelled << ")\n";

  std::vector<Metric> metrics;
  if (!o.trace) {
    const std::vector<PhaseRecorder::Window> windows =
        base.windows(base_end, kWindowOk, kWindows);
    std::vector<double> rps, p50, p99;
    std::int64_t fewest = std::numeric_limits<std::int64_t>::max();
    for (const PhaseRecorder::Window& w : windows) {
      rps.push_back(ratio(static_cast<double>(w.ok), w.seconds));
      p50.push_back(w.p50_ms);
      p99.push_back(w.p99_ms);
      fewest = std::min(fewest, w.samples);
    }
    std::cout << "latency: " << base.ok() << " ok requests in " << windows.size()
              << " windows; each window's p50/p99 from at least " << fewest
              << " retained latencies (" << fewest / 100
              << " beyond its p99); figures are medians over the windows\n";
    std::cout << "  windows (rps / p50 ms / p99 ms / retained):";
    for (const PhaseRecorder::Window& w : windows)
      std::cout << "  " << ratio(static_cast<double>(w.ok), w.seconds) << " / " << w.p50_ms
                << " / " << w.p99_ms << " / " << w.samples;
    std::cout << "\n";
    const PhaseRecorder::Window whole = base.windows(base_end, 1, 1).front();
    std::cout << "  whole phase: " << base.ok() / base_s << " rps, p50 " << whole.p50_ms
              << " ms, p99 " << whole.p99_ms << " ms\n";
    for (const auto& [op, rec] : by_op) {
      const PhaseRecorder::Window w = rec.windows(base_end, 1, 1).front();
      std::cout << "  " << csq::serve::op_name(op) << ": " << rec.ok() << " ok, p50 "
                << w.p50_ms << " ms, p99 " << w.p99_ms << " ms\n";
    }
    metrics = {
        {"throughput_rps", "1/s", median(rps)},
        {"latency_p50_ms", "ms", median(p50)},
        {"latency_p99_ms", "ms", median(p99)},
        {"ok_frac", "frac",
         1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted))},
        {"setup_s", "s", median(setup_s)},
        {"peak_rss_mb", "MB", rss_mb},
    };
  } else {
    const LayerPass lp = run_layer_pass(pool);
    const auto d = [&](const std::string& name) { return c1[name] - c0[name]; };
    const double reqs = static_cast<double>(acc.requests);
    const double solves = d("qbd.solve.calls");
    const double untraced_rps = ratio(static_cast<double>(base.ok()), base_s);
    const double traced_rps = ratio(static_cast<double>(traced.ok()), traced_active_s);
    // Share of summed latency from requests joined to their handle span, so
    // split into submit, queue wait and handle stages (the stages of a
    // joined request cover its latency by construction; the gate checks the
    // join, i.e. that the trace is complete).
    const double coverage = ratio(acc.joined_latency_ns, acc.latency_ns);
    std::cout << "trace: joined " << acc.joined << " of " << acc.requests << ", coverage "
              << coverage << ", dropped events " << dropped << "\n"
              << "bases: requests " << acc.requests << ", sweeps " << acc.sweeps
              << ", simulates " << acc.simulates << ", handles " << acc.handle_count
              << ", analyses " << acc.analysis_count << ", qbd solves " << solves
              << ", cache lookups " << d("serve.cache.hits") + d("serve.cache.misses")
              << ", fits " << d("dist.fit.cache_hits") + d("dist.fit.cache_misses")
              << ", channel requests " << d("pool.channel.requests") << ", pool tasks "
              << d("pool.tasks.executed") << ", sim events " << d("sim.engine.events")
              << ", layer-pass cache keys " << lp.cache_keys << ", fit inputs "
              << lp.fit_inputs << "\n";
    if (coverage < 0.90)
      std::cerr << "traced run: stage coverage " << coverage << " is below 0.90\n";
    if (dropped > 0) std::cerr << "traced run: " << dropped << " trace events dropped\n";
    metrics = {
        {"serve.submit_us.p50", "us", percentile(acc.submit_us, 0.50)},
        {"serve.submit_us.p99", "us", percentile(acc.submit_us, 0.99)},
        {"serve.queue_wait_us.p50", "us", percentile(acc.queue_wait_us, 0.50)},
        {"serve.queue_wait_us.p99", "us", percentile(acc.queue_wait_us, 0.99)},
        {"serve.handle_self_us.mean", "us", ratio(acc.handle_self_ns, acc.handle_count) / 1e3},
        {"serve.codec.parse_us.mean", "us", lp.parse_us},
        {"serve.cache.lookup_us.mean", "us", lp.lookup_us},
        {"serve.cache.insert_us.mean", "us", lp.insert_us},
        {"serve.cache.hit_ratio", "ratio",
         ratio(d("serve.cache.hits"), d("serve.cache.hits") + d("serve.cache.misses"))},
        {"serve.cache.evictions_per_request", "1/req",
         ratio(d("serve.cache.evictions"), reqs)},
        {"serve.requests.retried", "count", d("serve.requests.retried")},
        {"serve.requests.degraded", "count", d("serve.requests.degraded")},
        {"serve.requests.shed", "count", d("serve.requests.shed")},
        {"durable.append_us.p50", "us", lp.append_p50_us},
        {"durable.append_us.p99", "us", lp.append_p99_us},
        {"durable.fsyncs_per_request", "1/req", ratio(d("durable.journal.fsyncs"), reqs)},
        {"analysis.cscq_us.p50", "us", percentile(acc.cscq_us, 0.50)},
        {"analysis.csid_us.p50", "us", percentile(acc.csid_us, 0.50)},
        {"analysis.dedicated_us.p50", "us", percentile(acc.dedicated_us, 0.50)},
        {"analysis.self_us.mean", "us", ratio(acc.analysis_self_ns, acc.analysis_count) / 1e3},
        {"dist.fit_us.mean", "us", lp.fit_us},
        {"transforms.busy_period_us.mean", "us", lp.busy_period_us},
        {"dist.fit.cache_hit_ratio", "ratio",
         ratio(d("dist.fit.cache_hits"),
               d("dist.fit.cache_hits") + d("dist.fit.cache_misses"))},
        {"qbd.fi_us.mean", "us", ratio(acc.qbd_fi_ns, solves) / 1e3},
        {"qbd.spectral_us.mean", "us", ratio(acc.qbd_spectral_ns, solves) / 1e3},
        {"qbd.boundary_us.mean", "us", ratio(acc.qbd_boundary_ns, solves) / 1e3},
        {"qbd.fallback_us.mean", "us", ratio(acc.qbd_fallback_ns, solves) / 1e3},
        {"qbd.fi.iterations_per_solve", "1/solve", ratio(d("qbd.fi.iterations"), solves)},
        {"qbd.kernel.pattern_mults_per_solve", "1/solve",
         ratio(d("qbd.kernel.pattern_mults"), solves)},
        {"qbd.kernel.dense_mults_per_solve", "1/solve",
         ratio(d("qbd.kernel.dense_mults"), solves)},
        {"qbd.fast_path_ratio", "ratio",
         solves > 0.0 ? 1.0 - d("solver.fallback.engaged") / solves : 0.0},
        {"sweep.point_us.p50", "us", percentile(acc.sweep_point_us, 0.50)},
        {"sweep.point_us.p99", "us", percentile(acc.sweep_point_us, 0.99)},
        {"sweep.points_per_request", "1/req",
         ratio(d("sweep.points.evaluated"), static_cast<double>(acc.sweeps))},
        {"sweep.points.failed", "count", d("sweep.points.failed")},
        {"pool.parallel_efficiency", "ratio",
         ratio(acc.child_work_ns, acc.offline_handle_ns * std::max(1, o.op_threads))},
        {"pool.grant_ratio", "ratio",
         ratio(d("pool.channel.grants"), d("pool.channel.requests"))},
        {"pool.stolen_ratio", "ratio",
         ratio(d("pool.tasks.stolen"), d("pool.tasks.executed"))},
        {"pool.suspends_per_request", "1/req", ratio(d("pool.workers.suspended"), reqs)},
        {"sim.run_us.p50", "us", percentile(acc.sim_run_us, 0.50)},
        {"sim.ns_per_event", "ns", ratio(acc.sim_run_ns, d("sim.engine.events"))},
        {"sim.events_per_request", "1/req",
         ratio(d("sim.engine.events"), static_cast<double>(acc.simulates))},
        {"proc.cpu_us_per_request", "us",
         ratio(cpu_s * 1e6, static_cast<double>(untraced_n))},
        {"trace.overhead_frac", "frac",
         untraced_rps > 0.0 ? 1.0 - traced_rps / untraced_rps : 0.0},
        {"trace.stage_coverage", "frac", coverage},
    };
    std::cout << "per-layer:\n";
    for (const Metric& m : metrics)
      std::cout << "  " << m.name << " = " << format_number(m.value) << " " << m.unit << "\n";
    const bool trace_ok = coverage >= 0.90 && dropped == 0;
    std::cout << result_json(correct && trace_ok, attempted, failed, metrics) << std::endl;
    return 0;
  }
  std::cout << result_json(correct, attempted, failed, metrics) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const csq::Error& e) {
    std::cerr << "csq_perfbench: " << e.status().message << "\n";
  } catch (const std::exception& e) {
    std::cerr << "csq_perfbench: " << e.what() << "\n";
  }
  return 1;
}
