// LU factorization with partial pivoting, linear solves and inverses,
// plus the robustness extras the boundary systems need: a 1-norm condition
// estimate and iterative refinement (one residual-correction pass), so
// ill-conditioned systems are detected and mitigated rather than silently
// wrong.
//
// Throws csq::InvalidInputError (core/status.h) on malformed arguments.
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace csq::linalg {

// PA = LU factorization of a square matrix. Throws csq::IllConditionedError
// (a std::domain_error) on (numerically) singular input.
class Lu {
 public:
  explicit Lu(Matrix a);

  // Solve A x = b.
  [[nodiscard]] std::vector<double> solve(std::vector<double> b) const;

  // Solve A x = b, then apply one step of iterative refinement
  // (x += A \ (b - A x)) — recovers most of the accuracy lost to a large
  // condition number at the cost of one extra substitution pass.
  [[nodiscard]] std::vector<double> solve_refined(const std::vector<double>& b) const;

  // 1-norm condition number estimate ||A||_1 ||A^{-1}||_1. Computed on first
  // use (the matrices here are tiny, so the exact inverse is cheap) and
  // cached. Values >~ 1e14 mean the solve carries essentially no correct
  // digits in double precision.
  [[nodiscard]] double condition_estimate() const;

 private:
  // In-place forward/back substitution; x must already hold the permuted
  // right-hand side (x[i] = b[perm_[i]]).
  void substitute(std::vector<double>& x) const;

  Matrix a_;                // original matrix (refinement, condition)
  Matrix lu_;               // packed L (unit diagonal, below) and U (on/above)
  std::vector<int> perm_;   // row permutation
  mutable double cond_ = -1.0;  // cached condition estimate (-1 = not computed)
};

// dst = a^{-1}, substituted across all columns at once (cheaper than
// solving against the identity column by column, same values), factoring
// into the caller's `lu` and `perm` scratch instead of fresh storage: once
// the three buffers have held an n x n solve, further n x n inverses
// allocate nothing. dst, a and lu must be distinct. Throws like Lu(a).
void inverse_into(Matrix& dst, const Matrix& a, Matrix& lu, std::vector<int>& perm);

}  // namespace csq::linalg
