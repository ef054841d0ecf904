// Heap-allocation counts on the solver hot path (tier1). A counting global
// operator new (the same hook bench/perf_solver.cc uses for its
// allocs_per_iter column) measures two invariants directly instead of
// approximating them from source text:
//
//  - Once the thread's solver scratch is warm, the R solve allocates
//    nothing per doubling step: solve_r allocates the same number of times
//    at a loose tolerance (few steps) and at the default one (more steps).
//  - One warm analyze_cscq (solver scratch filled by an earlier call on the
//    same thread) stays within the allocation count
//    measured when this test was written; a new allocation anywhere in the
//    fit, busy-period, QBD or boundary layers shows up as a higher count.
//  - The Coxian fits, busy-period transforms and QBD solves that call makes
//    are pinned layer by layer (solve_r alone, then the whole qbd::solve),
//    so a regression inside that budget names its layer.
//
// The counter is process-wide, so the suite is its own binary and every
// measured call runs on the test thread with no other work in flight.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

#include "analysis/cscq.h"
#include "core/config.h"
#include "core/numeric.h"
#include "dist/moment_match.h"
#include "linalg/matrix.h"
#include "qbd/qbd.h"
#include "transforms/busy_period.h"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

// GCC inlines the replaced operator new into callers and then flags the
// malloc/free pairing as a new/free mismatch; the pairing here is
// intentional and consistent across all six replaceable functions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace csq {
namespace {

using linalg::Matrix;

// Heap allocations made while running `f`.
template <class F>
long allocations(F&& f) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// A stable 4-phase QBD repeating portion: Poisson arrivals at `lambda`
// (diagonal a0), completions at rate 2 (diagonal a2), a cyclic phase
// coupling in a1. At lambda = 1.8 logarithmic reduction takes more doubling
// steps at the default tolerance than at 1e-4.
struct RepeatingBlocks {
  Matrix a0, a1, a2;
};

RepeatingBlocks blocks(double lambda) {
  const std::size_t m = 4;
  const double mu = 2.0, c = 0.3;
  RepeatingBlocks blk{Matrix(m, m), Matrix(m, m), Matrix(m, m)};
  for (std::size_t i = 0; i < m; ++i) {
    blk.a0(i, i) = lambda;
    blk.a2(i, i) = mu;
    blk.a1(i, (i + 1) % m) = c;
    blk.a1(i, i) = -(lambda + mu + c);
  }
  return blk;
}

// The blocks as a whole QBD: one boundary level with the repeating level's
// arrivals, as in an M/M/1-style queue with modulated phases.
qbd::Model model(const RepeatingBlocks& blk) {
  qbd::Model m;
  m.a0 = blk.a0;
  m.a1 = blk.a1;  // qbd::solve overwrites the diagonals it is given
  m.a2 = blk.a2;
  m.first_down = blk.a2;
  m.boundary.resize(1);
  m.boundary[0].local = m.a1;
  m.boundary[0].up = blk.a0;
  return m;
}

TEST(HotPathAlloc, WarmSolveRCountIndependentOfIterations) {
  const RepeatingBlocks blk = blocks(1.8);
  qbd::Options loose;
  loose.tolerance = 1e-4;
  const qbd::Options tight;  // default 1e-13
  // Warm-up: sizes this thread's scratch buffers.
  (void)qbd::solve_r(blk.a0, blk.a1, blk.a2, tight);

  qbd::SolveStats loose_stats;
  qbd::SolveStats tight_stats;
  const long loose_count = allocations(
      [&] { (void)qbd::solve_r(blk.a0, blk.a1, blk.a2, loose, &loose_stats); });
  const long tight_count = allocations(
      [&] { (void)qbd::solve_r(blk.a0, blk.a1, blk.a2, tight, &tight_stats); });

  // The two solves must really differ in length for the comparison to mean
  // anything.
  ASSERT_GT(tight_stats.iterations, loose_stats.iterations)
      << loose_stats.iterations << " vs " << tight_stats.iterations << " doubling steps";
  EXPECT_EQ(tight_count, loose_count)
      << "solve_r allocated " << loose_count << " times in " << loose_stats.iterations
      << " doubling steps but " << tight_count << " times in " << tight_stats.iterations;
}

TEST(HotPathAlloc, WarmQbdLayersPinned) {
  // Warm allocation counts of the two QBD layers on the blocks above, as
  // measured when the R-equation residual moved into the thread's solver
  // scratch (GCC 12, libstdc++; 9 and 36 before): solve_r alone, then the
  // whole qbd::solve (R, (I - R)^{-1}, boundary assembly and LU, Solution).
  // The mean-drift LU before the R solve runs in that scratch and adds none.
  // solve_r's count is per solve, not per doubling step. Fault sites
  // allocate nothing unless armed.
  constexpr long kSolveR = 3, kSolve = 29;
  const RepeatingBlocks blk = blocks(1.8);
  const qbd::Model mdl = model(blk);
  (void)qbd::solve(mdl);  // warm-up: scratch and one-time obs registration
  const long solve_r = allocations([&] { (void)qbd::solve_r(blk.a0, blk.a1, blk.a2); });
  const long solve = allocations([&] { (void)qbd::solve(mdl); });
  EXPECT_EQ(solve_r, kSolveR) << "qbd::solve_r";
  EXPECT_EQ(solve, kSolve) << "qbd::solve";
}

TEST(HotPathAlloc, MatrixArithmeticMovesItsResult) {
  // The binary operators take one operand by value and move it into the
  // result, so each allocates exactly once (that operand's copy); returning
  // the compound assignment's reference would copy it a second time.
  const RepeatingBlocks blk = blocks(1.8);
  Matrix out;
  EXPECT_EQ(allocations([&] { out = blk.a0 + blk.a1; }), 1) << "a + b";
  EXPECT_EQ(allocations([&] { out = blk.a0 - blk.a1; }), 1) << "a - b";
  EXPECT_EQ(allocations([&] { out = 2.0 * blk.a1; }), 1) << "s * a";
  EXPECT_EQ(allocations([&] { out = blk.a1 * 2.0; }), 1) << "a * s";
}

TEST(HotPathAlloc, AnalyzeCscqWithinMeasuredBudget) {
  // Heap allocations of one warm analyze_cscq at the BM_AnalyzeCscq
  // operating point: 67 as measured when the result started to carry the
  // solved chain instead of copies of its stats and an eager p99 walk
  // (GCC 12, libstdc++; 72 before), plus a headroom of 6. Fault sites
  // allocate nothing unless armed.
  constexpr long kBudget = 73;
  const SystemConfig config = SystemConfig::paper_setup(1.2, 0.5, 1.0, 1.0, 8.0);
  (void)analysis::analyze_cscq(config);  // warm-up: solver scratch
  const long count = allocations([&] { (void)analysis::analyze_cscq(config); });
  EXPECT_GT(count, 0);
  EXPECT_LE(count, kBudget);
}

TEST(HotPathAlloc, AnalyzeCscqFitAndTransformCallsPinned) {
  // Warm allocation counts of the fit and busy-period calls analyze_cscq
  // makes at the BM_AnalyzeCscq point (exponential shorts, so one window
  // pass: B_L, B_{N+1}, one fit each), as measured when PhaseType's moments
  // moved from a dense inverse to back substitution (GCC 12, libstdc++; 14
  // per fit before). Each fit builds its PhaseType afresh: 6 allocations.
  constexpr long kMg1Busy = 0, kBatchBusy = 0, kFitSingle = 6, kFitBatch = 6;
  const SystemConfig config = SystemConfig::paper_setup(1.2, 0.5, 1.0, 1.0, 8.0);
  // Two warm-up calls, so one-time obs registrations are done.
  (void)analysis::analyze_cscq(config);
  const analysis::CscqResult warm = analysis::analyze_cscq(config);
  ASSERT_EQ(warm.window_iterations, 1);

  // The same arguments analyze_cscq passes: long-job moments, the long
  // arrival rate, and delta = 2 mu_S for exponential shorts.
  const dist::Moments xl = config.long_size->moments();
  const double ll = config.lambda_long;
  const double delta = 2.0 / config.short_size->moments().m1;
  const int fit_moments = analysis::CscqOptions{}.busy_period_moments;
  dist::Moments busy_single;
  dist::Moments busy_batch;
  dist::FitReport report;
  const long mg1_busy =
      allocations([&] { busy_single = transforms::mg1_busy_period(xl, ll); });
  const long batch_busy =
      allocations([&] { busy_batch = transforms::batch_busy_period(xl, ll, delta); });
  const long fit_single =
      allocations([&] { (void)dist::fit_ph(busy_single, fit_moments, &report); });
  const long fit_batch =
      allocations([&] { (void)dist::fit_ph(busy_batch, fit_moments, &report); });
  // These are the calls analyze_cscq made, not look-alikes.
  for (const auto& [mine, theirs] : {std::pair{busy_single, warm.busy_single},
                                     std::pair{busy_batch, warm.busy_batch}}) {
    ASSERT_TRUE(num::exactly_eq(mine.m1, theirs.m1));
    ASSERT_TRUE(num::exactly_eq(mine.m2, theirs.m2));
    ASSERT_TRUE(num::exactly_eq(mine.m3, theirs.m3));
  }

  EXPECT_EQ(mg1_busy, kMg1Busy) << "transforms::mg1_busy_period";
  EXPECT_EQ(batch_busy, kBatchBusy) << "transforms::batch_busy_period";
  EXPECT_EQ(fit_single, kFitSingle) << "dist::fit_ph(B_L)";
  EXPECT_EQ(fit_batch, kFitBatch) << "dist::fit_ph(B_{N+1})";
}

}  // namespace
}  // namespace csq
