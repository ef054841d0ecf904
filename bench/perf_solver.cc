// Runtime reproduction of the paper's Section 4 remark: "the simulation
// portion required close to an hour to generate [per results graph], whereas
// the analysis portion required less than a second" (Matlab 6 on a Pentium
// III). One figure panel is ~30 sweep points; compare per-point costs.
//
// Emit a machine-readable baseline with tools/bench_json.sh (the committed
// snapshots live at BENCH_*.json; see docs/performance.md).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/cscq.h"
#include "analysis/stability.h"
#include "analysis/csid.h"
#include "analysis/truncated_cscq.h"
#include "core/solver.h"
#include "core/sweep.h"
#include "dist/moment_match.h"
#include "durable/journal.h"
#include "sim/simulator.h"
#include "transforms/busy_period.h"

// ---------------------------------------------------------------------------
// Allocation counting: a global operator new override feeding an atomic
// counter, so benchmarks can report allocs_per_iter. This measures the QBD
// scratch reuse directly (heap traffic per solve), which is robust
// on any host — unlike wall-clock speedups on a loaded CI machine.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC inlines the replaced operator new into callers and then flags the
// malloc/free pairing as a new/free mismatch; the pairing here is
// intentional and consistent across all six replaceable functions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace csq;

// Attach "allocations per benchmark iteration" to the reported counters.
class AllocScope {
 public:
  explicit AllocScope(benchmark::State& state)
      : state_(state), start_(g_alloc_count.load(std::memory_order_relaxed)) {}
  ~AllocScope() {
    const std::uint64_t delta = g_alloc_count.load(std::memory_order_relaxed) - start_;
    state_.counters["allocs_per_iter"] =
        benchmark::Counter(static_cast<double>(delta), benchmark::Counter::kAvgIterations);
  }

 private:
  benchmark::State& state_;
  std::uint64_t start_;
};

const SystemConfig& config() {
  static const SystemConfig cfg = SystemConfig::paper_setup(1.2, 0.5, 1.0, 1.0, 8.0);
  return cfg;
}

void BM_AnalyzeCscq(benchmark::State& state) {
  // Steady-state cost: the thread's QBD scratch persists across iterations,
  // as it does across a sweep's points.
  AllocScope allocs(state);
  for (auto _ : state) benchmark::DoNotOptimize(analysis::analyze_cscq(config()));
}
BENCHMARK(BM_AnalyzeCscq);

void BM_AnalyzeCscqNearFrontier(benchmark::State& state) {
  // 1% of the way in from the CS-CQ frontier (2 - rho_L - rho_S = 1e-2,
  // Coxian C^2 = 8 longs), where sp(R) -> 1: a linearly convergent R
  // iteration needs ~1e4 steps here, logarithmic reduction a dozen doublings.
  const SystemConfig c = SystemConfig::paper_setup(1.5 - 1e-2, 0.5, 1.0, 1.0, 8.0);
  AllocScope allocs(state);
  for (auto _ : state) benchmark::DoNotOptimize(analysis::analyze_cscq(c));
}
BENCHMARK(BM_AnalyzeCscqNearFrontier);

// 8192 CS-CQ operating points with distinct long loads (rho_S = 1.2, so all
// inside Theorem 1): every iteration fits and solves a new point.
const std::vector<SystemConfig>& cold_configs() {
  static const std::vector<SystemConfig> configs = [] {
    std::vector<SystemConfig> out;
    for (double rho_l : linspace(0.05, 0.75, 8192))
      out.push_back(SystemConfig::paper_setup(1.2, rho_l, 1.0, 1.0, 8.0));
    return out;
  }();
  return configs;
}

void BM_AnalyzeCscqCold(benchmark::State& state) {
  // BM_AnalyzeCscq re-analyzes one point. Here every iteration has a new
  // rho_L, so its busy periods, fits (B_L and B_{N+1}) and chain differ from
  // the last, as on the serving path for distinct requests; the QBD scratch
  // stays warm.
  const std::vector<SystemConfig>& configs = cold_configs();
  std::size_t i = 0;
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyze_cscq(configs[i]));
    i = (i + 1) % configs.size();
  }
}
BENCHMARK(BM_AnalyzeCscqCold);

void BM_FitCoxian3Cold(benchmark::State& state) {
  // One three-moment fit per iteration, cycling through the B_L and B_{N+1}
  // moments analyze_cscq fits at the cold_configs() points (mean short 1,
  // so delta = 2 mu_S = 2).
  std::vector<dist::Moments> busy;
  for (const SystemConfig& c : cold_configs()) {
    const dist::Moments xl = c.long_size->moments();
    busy.push_back(transforms::mg1_busy_period(xl, c.lambda_long));
    busy.push_back(transforms::batch_busy_period(xl, c.lambda_long, 2.0));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::fit_ph(busy[i], 3));
    i = (i + 1) % busy.size();
  }
}
BENCHMARK(BM_FitCoxian3Cold);

void BM_AnalyzeCsid(benchmark::State& state) {
  AllocScope allocs(state);
  for (auto _ : state) benchmark::DoNotOptimize(analysis::analyze_csid(config()));
}
BENCHMARK(BM_AnalyzeCsid);

void BM_AnalyzeBatch30(benchmark::State& state) {
  // A figure panel's worth of CS-CQ points as a plain try_analyze loop: the
  // thread's QBD scratch is amortized over all 30 solves.
  std::vector<SystemConfig> points;
  for (double rho_s : linspace(1.45 / 30.0, 1.45, 30)) {
    const SystemConfig c = SystemConfig::paper_setup(rho_s, 0.5, 1.0, 1.0, 8.0);
    if (analysis::cscq_stable(c.rho_short(), c.rho_long())) points.push_back(c);
  }
  AllocScope allocs(state);
  for (auto _ : state)
    for (const SystemConfig& c : points) benchmark::DoNotOptimize(try_analyze(Policy::kCsCq, c));
}
BENCHMARK(BM_AnalyzeBatch30)->Unit(benchmark::kMillisecond);

void BM_SweepPanel30Points(benchmark::State& state) {
  // One figure panel: 30 sweep points, all three policies, evaluated through
  // the public sweep API on `threads` pool workers (threads:1 is the inline
  // baseline). UseRealTime so the thread-count axis shows wall-clock scaling.
  const std::vector<double> grid = linspace(1.45 / 30.0, 1.45, 30);
  SweepOptions opts;
  opts.threads = static_cast<int>(state.range(0));
  AllocScope allocs(state);
  for (auto _ : state)
    benchmark::DoNotOptimize(sweep_rho_short(0.5, 1.0, 1.0, 8.0, grid, opts));
}
BENCHMARK(BM_SweepPanel30Points)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SimulateOnePoint(benchmark::State& state) {
  // Simulation cost for ONE point at the accuracy used in validation
  // (the paper's per-graph hour / 30 points ~ 2 min per point on 2003 HW).
  sim::SimOptions opts;
  opts.total_completions = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::simulate(sim::PolicyKind::kCsCq, config(), opts));
}
BENCHMARK(BM_SimulateOnePoint)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_SimulateReplications(benchmark::State& state) {
  // Eight deterministic replications of one point, fanned out over the pool
  // on the same 1/2/4/8 thread axis as BM_SweepPanel30Points.
  sim::SimOptions opts;
  opts.total_completions = 100000;
  sim::ReplicationOptions ropts;
  ropts.replications = 8;
  ropts.threads = static_cast<int>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sim::simulate_replications(sim::PolicyKind::kCsCq, config(), opts, ropts));
}
BENCHMARK(BM_SimulateReplications)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_JournalAppend(benchmark::State& state) {
  // Per-request durability overhead: one write-ahead request+response append
  // pair at the server's default fsync batching. bench_compare.py caps this
  // at an absolute 5 us — the docs/serving.md §9 overhead promise — because
  // the benchmark postdates the newest committed baseline snapshot.
  char path[] = "/tmp/csq_bench_journal_XXXXXX";
  const int fd = ::mkstemp(path);
  if (fd < 0) {
    state.SkipWithError("mkstemp failed");
    return;
  }
  ::close(fd);
  durable::JournalOptions jopts;
  jopts.fsync_every = 64;
  durable::Journal journal = durable::Journal::open(path, jopts);
  const std::string request =
      R"({"id":"bench","op":"analyze","rho_s":1.2,"rho_l":0.5,"scv_l":8})";
  const std::string response =
      R"({"id":"bench","ok":true,"op":"analyze","result":{"mean_short":3.14}})";
  std::uint64_t appended = 0;
  for (auto _ : state) {
    const std::uint64_t seq = journal.append_request(request);
    journal.append_response(seq, response);
    if (++appended % 200000 == 0) {
      // Keep the scratch file bounded (~30 MB) over long timed runs; the
      // truncate-and-reopen happens outside the measured region.
      state.PauseTiming();
      journal.close();
      std::remove(path);
      journal = durable::Journal::open(path, jopts);
      state.ResumeTiming();
    }
  }
  journal.close();
  std::remove(path);
}
BENCHMARK(BM_JournalAppend);

// The exactness oracle; the argument is its long cap N (cost ~ N^3).
void BM_TruncatedChain(benchmark::State& state) {
  analysis::TruncatedCscqOptions topts;
  topts.max_longs = static_cast<int>(state.range(0));
  const SystemConfig cfg = SystemConfig::paper_setup(1.2, 0.5, 1.0, 1.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::analyze_cscq_truncated(cfg, topts));
}
BENCHMARK(BM_TruncatedChain)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace
