// Quasi-birth-death (QBD) process solver (matrix-analytic method).
//
// Supports the chain shape the paper's analysis needs: a few heterogeneous
// boundary levels (phase sets may differ level to level) followed by an
// infinite level-independent repeating portion. The stationary distribution
// of the repeating portion is matrix-geometric: pi_{K+j} = pi_K R^j, where R
// is the minimal nonnegative solution of A0 + R A1 + R^2 A2 = 0
// (Neuts 1981; Latouche & Ramaswami 1999).
//
// Robustness: solve_r runs a fallback chain — functional iteration, then
// logarithmic reduction (quadratically convergent, so it survives the
// near-boundary configs where the linear iteration stalls), then a
// relaxed-tolerance retry — and records per-stage diagnostics in SolveStats.
// Failures throw the structured taxonomy of core/status.h; solutions can be
// self-verified via Solution::verify().
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/deadline.h"
#include "core/status.h"
#include "linalg/matrix.h"

namespace csq::qbd {

using linalg::Matrix;

// One boundary level. `local` holds within-level transition *rates*
// (off-diagonal; the solver fills diagonals so generator rows sum to zero),
// `up` the rates to the next level, `down` the rates to the previous level
// (empty for level 0).
struct BoundaryLevel {
  Matrix local;
  Matrix up;
  Matrix down;
};

// QBD model: boundary levels 0..K-1, then repeating levels K, K+1, ... with
// blocks a0 (up), a1 (within-level, off-diagonal only), a2 (down). The first
// repeating level K transitions down into boundary level K-1 via
// `first_down` (m x b_{K-1}); its per-row rate totals must match a2's so the
// repeating generator row sums stay level-independent.
struct Model {
  std::vector<BoundaryLevel> boundary;
  Matrix a0, a1, a2;
  Matrix first_down;
};

struct Options {
  double tolerance = 1e-13;
  int max_iterations = 200000;
  // Enable the solve_r fallback chain (logarithmic reduction, then a
  // relaxed-tolerance retry) when functional iteration fails. Off = the
  // pre-fallback behaviour: functional iteration or bust.
  bool allow_fallback = true;
  // Self-verification level applied by solve() to its Solution.
  VerifyLevel verify = VerifyLevel::kBasic;
  // Wall-clock/cancellation budget. The iteration loops poll it (functional
  // iteration every 16 iterations, log-reduction every doubling step, power
  // iteration every 64 steps) and throw csq::DeadlineExceededError /
  // csq::CancelledError with the partial SolveStats accumulated so far.
  // Default: unlimited.
  RunBudget budget;
};

// Which stage of the fallback chain produced R.
enum class RMethod { kFunctionalIteration, kLogReduction, kRelaxedIteration };
[[nodiscard]] const char* r_method_name(RMethod method);

// Diagnostics recorded by solve_r / solve.
struct SolveStats {
  RMethod method = RMethod::kFunctionalIteration;
  int iterations = 0;                 // iterations spent by the winning stage
  double residual = -1.0;             // ‖A0 + R A1 + R² A2‖_max at acceptance
  double spectral_radius = -1.0;      // sp(R) power-iteration estimate
  double boundary_condition = -1.0;   // condition estimate of the boundary solve
  std::vector<std::string> trail;     // human-readable per-stage notes

  // Fold these stats into a Diagnostics payload.
  [[nodiscard]] Diagnostics to_diagnostics() const;
};

struct Solution {
  std::vector<std::vector<double>> boundary_pi;  // stationary mass, levels 0..K-1
  std::vector<double> pi_k;                      // level K (first repeating)
  Matrix r;                                      // rate matrix R
  Matrix i_minus_r_inv;                          // (I - R)^{-1}
  SolveStats stats;                              // how R was obtained, residuals

  // Spectral-radius proxy: max row sum of R (< 1 for positive recurrence).
  [[nodiscard]] double r_row_sum_max() const;

  // E[level] with boundary level i worth i and repeating level K+j worth K+j.
  [[nodiscard]] double mean_level() const;

  // P(level == n).
  [[nodiscard]] double level_probability(std::size_t n) const;

  // P(level > n) — exact partial sums for the boundary plus the closed-form
  // matrix-geometric tail.
  [[nodiscard]] double level_tail(std::size_t n) const;

  // Asymptotic decay rate of the level distribution: the spectral radius of
  // R, so P(level = n) ~ c * rate^n for large n. Returns the estimate the
  // solver already computed (stats.spectral_radius, same estimator and
  // tolerance); falls back to a fresh estimate for hand-built Solutions.
  [[nodiscard]] double tail_decay_rate() const;

  // Smallest n with P(level <= n) >= q (q in (0,1)); e.g. q = 0.99 bounds
  // the backlog a provisioner must absorb.
  [[nodiscard]] std::size_t level_quantile(double q) const;

  // Stationary mass of each repeating-portion phase, summed over all levels
  // >= K: pi_K (I-R)^{-1}.
  [[nodiscard]] std::vector<double> repeating_mass_by_phase() const;

  // Total stationary mass (== 1 up to numerical error; used by tests).
  [[nodiscard]] double total_mass() const;

  // Self-verification: total mass ≈ 1, no negative probabilities, sp(R) < 1,
  // finite values; kFull adds the R-equation residual and E[level] sanity.
  // Returns kOk or kVerificationFailed with the failing checks in the notes.
  [[nodiscard]] SolverStatus verify(VerifyLevel level = VerifyLevel::kFull) const;
};

// Solve the QBD. Throws csq::UnstableError if the process is not positive
// recurrent (sp(R) >= 1), csq::NotConvergedError when the whole fallback
// chain fails, csq::InvalidInputError for malformed models,
// csq::VerificationFailedError when opts.verify rejects the solution, and
// csq::DeadlineExceededError / csq::CancelledError when opts.budget is
// interrupted mid-solve (all derive from std exceptions).
//
// Every solve on a thread reuses that thread's scratch buffers and cached
// block patterns (a thread_local inside qbd.cc), so repeated solves run
// allocation-free in the R iteration. Reuse never changes results: every
// buffer is fully overwritten before it is read.
[[nodiscard]] Solution solve(const Model& model, const Options& opts = {});

// Minimal nonnegative solution of A0 + R A1 + R^2 A2 = 0. a1 must carry its
// diagonal. Runs the fallback chain described above (unless
// opts.allow_fallback is false); per-stage diagnostics are written to
// *stats_out when given. Shares solve()'s throw contract, plus
// csq::IllConditionedError when a stage's linear solve degenerates. Uses
// the thread's solver scratch, as solve() does.
[[nodiscard]] Matrix solve_r(const Matrix& a0, const Matrix& a1, const Matrix& a2,
                             const Options& opts = {}, SolveStats* stats_out = nullptr);

// G matrix by logarithmic reduction (Latouche-Ramaswami); the second stage
// of the solve_r fallback chain and an independent cross-check in the
// test-suite. G solves A2 + A1 G + A0 G^2 = 0 (first-passage probabilities
// down a level). Reports the doubling-step count / final update size via the
// optional out-params.
[[nodiscard]] Matrix solve_g_logred(const Matrix& a0, const Matrix& a1, const Matrix& a2,
                                    const Options& opts = {}, int* steps_out = nullptr,
                                    double* last_update_out = nullptr);

// R from G: R = A0 (-A1 - A0 G)^{-1}.
[[nodiscard]] Matrix r_from_g(const Matrix& a0, const Matrix& a1, const Matrix& g);

// Spectral-radius estimate via Gelfand's formula with repeated squaring
// (||m^(2^k)||^(1/2^k)), with early exit once the estimate stops moving.
// Unlike plain power iteration this converges geometrically in k for every
// spectrum — defective eigenvalues and equal-modulus complex pairs included
// — so `tolerance` is genuinely reachable. When the iteration budget (or
// the RunBudget) runs out before the estimate settles, the last iterate is
// still returned but *converged_out is false — callers that need a trusted
// estimate must check it (solve_r retries with a larger budget and then
// throws csq::NotConvergedError; best-effort callers like tail_decay_rate
// ignore it). *iterations_out reports the iterations actually spent.
[[nodiscard]] double spectral_radius_estimate(const Matrix& m, int max_iterations = 500,
                                              double tolerance = 1e-12,
                                              bool* converged_out = nullptr,
                                              int* iterations_out = nullptr,
                                              const RunBudget& budget = {});

}  // namespace csq::qbd
