// Traced-run accounting (program spans joined to requests) and the layer
// pass (public layer functions timed on the workload's own inputs).
#include <algorithm>
#include <bit>
#include <exception>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include "core/config.h"
#include "core/deadline.h"
#include "core/sweep.h"
#include "dist/moment_match.h"
#include "perfbench.h"
#include "serve/cache.h"
#include "transforms/busy_period.h"

namespace perfbench {

using csq::obs::TraceEvent;
using csq::timebase::now_ns;

namespace {

constexpr const char* kMark = "perfbench.sink.deliver";
constexpr const char* kHandle = "serve.request.handle";

// Results of timed calls are folded into this, so the calls cannot be elided.
volatile std::size_t g_keep = 0;

using Interval = std::pair<std::int64_t, std::int64_t>;

std::int64_t end_of(const TraceEvent& e) { return e.start_ns + e.dur_ns; }

// Total length covered by a set of intervals (overlaps counted once).
std::int64_t union_length(std::vector<Interval> v) {
  std::sort(v.begin(), v.end());
  std::int64_t total = 0;
  std::int64_t lo = 0, hi = 0;
  bool open = false;
  for (const auto& [a, b] : v) {
    if (b <= a) continue;
    if (open && a <= hi) {
      hi = std::max(hi, b);
      continue;
    }
    if (open) total += hi - lo;
    lo = a;
    hi = b;
    open = true;
  }
  if (open) total += hi - lo;
  return total;
}

// Index of the span in `sorted` (ascending start) that contains time t.
// Spans in `sorted` must not overlap one another.
const TraceEvent* containing(const std::vector<const TraceEvent*>& sorted, std::int64_t t) {
  const auto before = [](std::int64_t x, const TraceEvent* e) { return x < e->start_ns; };
  auto it = std::upper_bound(sorted.begin(), sorted.end(), t, before);
  if (it == sorted.begin()) return nullptr;
  const TraceEvent* e = *std::prev(it);
  return t <= end_of(*e) ? e : nullptr;
}

}  // namespace

void TraceAccounting::add_chunk(const std::vector<TraceEvent>& events,
                                const std::vector<Completion>& completions, const Pool& pool) {
  const std::size_t n = events.size();

  // Nesting per thread lane: each span's direct children (same thread, one
  // level deeper, inside its interval). The sink marks are bench spans and
  // never count as a child.
  std::vector<double> child_ns(n, 0.0);
  std::map<int, std::vector<std::size_t>> open;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = events[i];
    std::vector<std::size_t>& stack = open[e.tid];
    while (!stack.empty()) {
      const TraceEvent& p = events[stack.back()];
      if (p.depth < e.depth && e.start_ns >= p.start_ns && end_of(e) <= end_of(p)) break;
      stack.pop_back();
    }
    if (!stack.empty() && events[stack.back()].depth == e.depth - 1 && e.name != kMark)
      child_ns[stack.back()] += static_cast<double>(e.dur_ns);
    stack.push_back(i);
  }

  std::map<int, std::vector<const TraceEvent*>> handles_by_tid;
  std::vector<std::size_t> handles;
  std::vector<const TraceEvent*> marks;
  std::set<int> worker_tids;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = events[i];
    const auto dur = static_cast<double>(e.dur_ns);
    const double us = dur / 1e3;
    if (e.name == kHandle) {
      handles.push_back(i);
      handles_by_tid[e.tid].push_back(&e);
      worker_tids.insert(e.tid);
    } else if (e.name == kMark) {
      marks.push_back(&e);
    } else if (e.name == "analysis.cscq.analyze" || e.name == "analysis.csid.analyze" ||
               e.name == "analysis.dedicated.analyze") {
      (e.name == "analysis.cscq.analyze"   ? cscq_us
       : e.name == "analysis.csid.analyze" ? csid_us
                                           : dedicated_us)
          .push_back(us);
      analysis_self_ns += dur - child_ns[i];
      analysis_count += 1;
    } else if (e.name == "qbd.solve.fi") {
      qbd_fi_ns += dur;
    } else if (e.name == "qbd.solve.spectral") {
      qbd_spectral_ns += dur;
    } else if (e.name == "qbd.solve.boundary") {
      qbd_boundary_ns += dur;
    } else if (e.name == "qbd.solve.relaxed" || e.name == "qbd.solve.logred") {
      qbd_fallback_ns += dur;
    } else if (e.name == "sweep.point.evaluate") {
      sweep_point_us.push_back(us);
      child_work_ns += dur;
    } else if (e.name == "sim.engine.run") {
      sim_run_us.push_back(us);
      sim_run_ns += dur;
      child_work_ns += dur;
    }
  }

  // Top-level spans on threads that run no handle (op_threads pool workers)
  // belong to the one handle whose interval holds them; with several
  // candidates the span is left unattributed.
  std::map<std::size_t, std::vector<Interval>> off_thread;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = events[i];
    if (e.depth != 0 || worker_tids.count(e.tid) != 0 || e.name == kMark) continue;
    std::size_t owner = n;
    int candidates = 0;
    for (const std::size_t h : handles) {
      if (events[h].start_ns > e.start_ns) break;
      if (end_of(e) <= end_of(events[h])) {
        owner = h;
        ++candidates;
      }
    }
    if (candidates == 1) off_thread[owner].push_back({e.start_ns, end_of(e)});
  }
  for (const std::size_t h : handles) {
    double self = static_cast<double>(events[h].dur_ns) - child_ns[h];
    if (const auto it = off_thread.find(h); it != off_thread.end())
      self -= static_cast<double>(union_length(it->second));
    handle_self_ns += self;
    handle_count += 1;
  }

  // Join: the sink timestamp lies inside exactly one mark (the server
  // serializes sink calls), whose lane names the worker; that worker's
  // handle span holding the timestamp is the request's execution.
  for (const Completion& c : completions) {
    ++requests;
    const csq::serve::OpKind op = pool.requests[c.line].op;
    if (op == csq::serve::OpKind::kSweep) ++sweeps;
    if (op == csq::serve::OpKind::kSimulate) ++simulates;
    submit_us.push_back(static_cast<double>(c.t_returned - c.t_submit) / 1e3);
    latency_ns += static_cast<double>(c.t_sink - c.t_submit);
    const TraceEvent* mark = containing(marks, c.t_sink);
    const TraceEvent* handle = nullptr;
    if (mark != nullptr) {
      const auto it = handles_by_tid.find(mark->tid);
      if (it != handles_by_tid.end()) handle = containing(it->second, c.t_sink);
    }
    // A handle that opened before the request was submitted belongs to
    // another request: the join failed.
    if (handle == nullptr || handle->start_ns < c.t_submit) {
      ++unjoined;
      continue;
    }
    ++joined;
    joined_latency_ns += static_cast<double>(c.t_sink - c.t_submit);
    const std::int64_t h0 = handle->start_ns;
    queue_wait_us.push_back(static_cast<double>(std::max<std::int64_t>(0, h0 - c.t_returned)) /
                            1e3);
    if (op == csq::serve::OpKind::kSweep || op == csq::serve::OpKind::kSimulate)
      offline_handle_ns += static_cast<double>(handle->dur_ns);
  }
}

LayerPass run_layer_pass(const Pool& pool) {
  constexpr std::size_t kOps = 4096;
  LayerPass out;
  const std::size_t size = pool.lines.size();
  std::size_t keep = 0;

  {  // serve codec: parse_request on the workload's own lines
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kOps; ++i)
      keep += csq::serve::parse_request(pool.lines[i % size]).id.size();
    out.parse_us = static_cast<double>(now_ns() - t0) / 1e3 / kOps;
  }

  {  // serve cache: the workload's analyze keys, in arrival order
    std::vector<std::string> keys;
    for (const csq::serve::Request& r : pool.requests)
      if (r.op == csq::serve::OpKind::kAnalyze && r.verify != csq::VerifyLevel::kNone)
        keys.push_back(r.cache_key());
    out.cache_keys = std::set<std::string>(keys.begin(), keys.end()).size();
    if (!keys.empty()) {
      csq::serve::SolverCache cache(256);
      const csq::PolicyMetrics metrics{};
      const std::size_t ops = std::max(kOps, keys.size());
      std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < ops; ++i) cache.insert(keys[i % keys.size()], metrics);
      out.insert_us = static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(ops);
      t0 = now_ns();
      for (std::size_t i = 0; i < ops; ++i)
        keep += cache.lookup(keys[i % keys.size()]).has_value() ? 1 : 0;
      out.lookup_us = static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(ops);
    }
  }

  {  // durable: the write-ahead pair per request, journal in memory
    MemJournal mem(32);
    std::vector<double> us;
    us.reserve(kOps);
    for (std::size_t i = 0; i < kOps; ++i) {
      const std::string& line = pool.lines[i % size];
      const std::size_t s = pool.sample_responses.size();
      const std::string& response =
          s > 0 && !pool.sample_responses[i % s].empty() ? pool.sample_responses[i % s] : line;
      const std::int64_t t0 = now_ns();
      const std::uint64_t seq = mem.journal().append_request(line);
      mem.journal().append_response(seq, response);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    out.append_p50_us = percentile(us, 0.50);
    out.append_p99_us = percentile(us, 0.99);
  }

  // dist / transforms: the CS-CQ busy-period pair of every analyzed config
  // (analyze requests and sweep grid points), then one fit per distinct
  // moment triple — on a fresh thread, so the per-thread fit memo is empty
  // and every fit is a real one.
  struct Input {
    csq::dist::Moments job;
    double lambda = 0.0;
    double delta = 0.0;
  };
  std::vector<Input> inputs;
  const auto add = [&](const csq::SystemConfig& cfg) {
    if (cfg.lambda_long * cfg.long_size->mean() >= 1.0) return;
    inputs.push_back(
        {cfg.long_size->moments(), cfg.lambda_long, 2.0 / cfg.short_size->mean()});
  };
  for (const csq::serve::Request& r : pool.requests) {
    if (inputs.size() >= 512) break;
    if (r.op == csq::serve::OpKind::kAnalyze) add(r.config());
    if (r.op != csq::serve::OpKind::kSweep) continue;
    for (const double x : csq::linspace(r.from, r.to, r.points)) {
      const bool short_axis = r.axis == csq::serve::SweepAxis::kRhoShort;
      add(csq::SystemConfig::paper_setup(short_axis ? x : r.rho_s, short_axis ? r.rho_l : x,
                                         r.mean_s, r.mean_l, r.scv_l));
    }
  }
  out.fit_inputs = inputs.size();
  if (!inputs.empty()) {
    std::exception_ptr error;
    std::thread([&] {
      try {
        std::vector<csq::dist::Moments> busy;
        busy.reserve(2 * inputs.size());
        std::int64_t t0 = now_ns();
        for (const Input& in : inputs) {
          busy.push_back(csq::transforms::mg1_busy_period(in.job, in.lambda));
          busy.push_back(csq::transforms::batch_busy_period(in.job, in.lambda, in.delta));
        }
        out.busy_period_us =
            static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(busy.size());
        const auto bits = [](const csq::dist::Moments& m) {
          return std::make_tuple(std::bit_cast<std::uint64_t>(m.m1),
                                 std::bit_cast<std::uint64_t>(m.m2),
                                 std::bit_cast<std::uint64_t>(m.m3));
        };
        const auto less = [&](const auto& a, const auto& b) { return bits(a) < bits(b); };
        const auto same = [&](const auto& a, const auto& b) { return bits(a) == bits(b); };
        std::sort(busy.begin(), busy.end(), less);
        busy.erase(std::unique(busy.begin(), busy.end(), same), busy.end());
        t0 = now_ns();
        for (const csq::dist::Moments& m : busy) keep += csq::dist::fit_ph(m, 3).num_phases();
        out.fit_us =
            static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(busy.size());
      } catch (...) {
        error = std::current_exception();
      }
    }).join();
    if (error) std::rethrow_exception(error);
  }
  g_keep = keep;
  return out;
}

}  // namespace perfbench
