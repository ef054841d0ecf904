// Quasi-birth-death (QBD) process solver (matrix-analytic method).
//
// Supports the chain shape the paper's analysis needs: a few heterogeneous
// boundary levels (phase sets may differ level to level) followed by an
// infinite level-independent repeating portion. The stationary distribution
// of the repeating portion is matrix-geometric: pi_{K+j} = pi_K R^j, where R
// is the minimal nonnegative solution of A0 + R A1 + R^2 A2 = 0
// (Neuts 1981; Latouche & Ramaswami 1999).
//
// Positive recurrence is decided first, by the level's mean drift (Neuts
// 1981; Latouche & Ramaswami 1999, Thm 7.2.3). R then comes from one solver:
// logarithmic reduction (Latouche & Ramaswami 1999, Ch. 8), which converges
// quadratically, so a solve takes a few dozen doubling steps at most, also
// where sp(R) -> 1 near the stability frontier. SolveStats records its
// diagnostics. Failures throw the structured taxonomy of core/status.h;
// solutions can be self-verified via Solution::verify().
#pragma once

#include <cstddef>
#include <limits>
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
  // Logarithmic reduction stops once its product T (positive-recurrent
  // chains) or its down block L (transient ones) falls below this in max
  // norm; either bounds what G still lacks.
  double tolerance = 1e-13;
  // Cap on logarithmic reduction's doubling steps. Step k spans 2^k levels,
  // so the paper's chains need 4-11 steps, and 24 at 1e-6 from the frontier.
  int max_iterations = 64;
  // Self-verification level applied by solve() to its Solution.
  VerifyLevel verify = VerifyLevel::kBasic;
  // Wall-clock/cancellation budget. Logarithmic reduction polls it every
  // doubling step and the boundary solve once before it starts; both throw
  // csq::DeadlineExceededError / csq::CancelledError with the partial
  // SolveStats accumulated so far. Default: unlimited.
  RunBudget budget;
};

// Diagnostics recorded by solve_r / solve.
struct SolveStats {
  int iterations = 0;                 // logarithmic-reduction doubling steps
  double residual = -1.0;             // ‖A0 + R A1 + R² A2‖_max at acceptance
  // The level's mean drift alpha A0 1 - alpha A2 1, where alpha is the
  // stationary vector of A0 + A1 + A2: negative iff the chain is positive
  // recurrent. NaN until solve_r computes it.
  double drift = std::numeric_limits<double>::quiet_NaN();
  double boundary_condition = -1.0;   // condition estimate of the boundary solve
  std::vector<std::string> trail;     // human-readable solver notes

  // Fold these stats into a Diagnostics payload.
  [[nodiscard]] Diagnostics to_diagnostics() const;
};

struct Solution {
  std::vector<std::vector<double>> boundary_pi;  // stationary mass, levels 0..K-1
  std::vector<double> pi_k;                      // level K (first repeating)
  Matrix r;                                      // rate matrix R
  Matrix i_minus_r_inv;                          // (I - R)^{-1}
  SolveStats stats;                              // how R was obtained, residuals

  // E[level] with boundary level i worth i and repeating level K+j worth K+j.
  [[nodiscard]] double mean_level() const;

  // P(level > n) — exact partial sums for the boundary plus the closed-form
  // matrix-geometric tail.
  [[nodiscard]] double level_tail(std::size_t n) const;

  // Asymptotic decay rate of the level distribution: the spectral radius of
  // R, so P(level = n) ~ c * rate^n for large n. Computed on each call by
  // spectral_radius_estimate; no solve computes it.
  [[nodiscard]] double tail_decay_rate() const;

  // Smallest n with P(level <= n) >= q (q in (0,1)); e.g. q = 0.99 bounds
  // the backlog a provisioner must absorb. Walks the levels one at a time,
  // so near the stability frontier it costs O(1 / (1 - sp(R))) vector-matrix
  // products.
  [[nodiscard]] std::size_t level_quantile(double q) const;

  // Stationary mass of each repeating-portion phase, summed over all levels
  // >= K: pi_K (I-R)^{-1}.
  [[nodiscard]] std::vector<double> repeating_mass_by_phase() const;

  // Total stationary mass (== 1 up to numerical error; used by tests).
  [[nodiscard]] double total_mass() const;

  // Self-verification: total mass ≈ 1, no negative probabilities, finite
  // values, and sp(R) < 1 certified from R and (I - R)^{-1} alone: R >= 0
  // and x = (I - R)^{-1} 1 >= 1 entrywise (Collatz–Wielandt; then
  // sp(R) <= 1 - 1 / max x), with max x <= 2^26, the largest the R solve
  // resolves. kFull adds the R-equation residual and E[level] sanity.
  // Returns kOk or kVerificationFailed with the failing checks in the notes.
  [[nodiscard]] SolverStatus verify(VerifyLevel level = VerifyLevel::kFull) const;
};

// Solve the QBD. Throws csq::UnstableError if the process is not positive
// recurrent (see solve_r), csq::NotConvergedError when R cannot be computed
// (see solve_r), csq::InvalidInputError for malformed models,
// csq::VerificationFailedError when opts.verify rejects the solution, and
// csq::DeadlineExceededError / csq::CancelledError when opts.budget is
// interrupted mid-solve (all derive from std exceptions).
//
// Every solve on a thread reuses that thread's scratch buffers (a
// thread_local inside qbd.cc), so repeated solves run allocation-free in the
// R iteration. Reuse never changes results: every buffer is fully
// overwritten before it is read.
[[nodiscard]] Solution solve(const Model& model, const Options& opts = {});

// Minimal nonnegative solution of A0 + R A1 + R^2 A2 = 0. a1 must carry its
// diagonal. Before any iteration, throws csq::UnstableError when the mean
// drift alpha A0 1 - alpha A2 1 is >= 0, alpha being the stationary vector of
// A0 + A1 + A2 (one bordered LU; the phase process must have a single closed
// class). Logarithmic reduction then computes G (A2 + A1 G + A0 G^2 = 0, the
// first-passage probabilities down a level) and R = A0 (-A1 - A0 G)^{-1};
// diagnostics are written to *stats_out when given. Throws
// csq::NotConvergedError when the doubling steps hit opts.max_iterations,
// an iterate turns non-finite, or R misses the residual bound. Shares
// solve()'s other throws, plus csq::IllConditionedError when a linear solve
// degenerates. Uses the thread's solver scratch, as solve() does.
[[nodiscard]] Matrix solve_r(const Matrix& a0, const Matrix& a1, const Matrix& a2,
                             const Options& opts = {}, SolveStats* stats_out = nullptr);

// Spectral radius by Gelfand's formula, ||m^(2^60)||^(1/2^60) through 60
// normalized squarings. Unlike power iteration this converges for every
// spectrum, defective eigenvalues and equal-modulus complex pairs included;
// 2^60 puts a Jordan block's polynomial factor far below 1e-12 relative.
[[nodiscard]] double spectral_radius_estimate(const Matrix& m);

}  // namespace csq::qbd
