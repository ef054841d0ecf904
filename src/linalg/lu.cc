#include "linalg/lu.h"

#include <cmath>
#include <utility>

#include "core/status.h"

namespace csq::linalg {

namespace {

double norm1(const Matrix& a) {
  double best = 0.0;
  for (std::size_t c = 0; c < a.cols(); ++c) {
    double s = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r) s += std::abs(a(r, c));
    best = std::max(best, s);
  }
  return best;
}

}  // namespace

Lu::Lu(Matrix a) : a_(std::move(a)), lu_(a_) {
  if (lu_.rows() != lu_.cols()) throw InvalidInputError("Lu: matrix not square");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = static_cast<int>(i);

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t piv = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, k));
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (best < 1e-300) {
      Diagnostics d;
      d.stage = "lu_factorization";
      d.iterations = static_cast<long>(k);
      throw IllConditionedError("Lu: singular matrix (zero pivot at column " +
                                    std::to_string(k) + ")",
                                std::move(d));
    }
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(piv, c));
      std::swap(perm_[k], perm_[piv]);
      sign_ = -sign_;
    }
    const double d = lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = lu_(r, k) / d;
      lu_(r, k) = m;
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= m * lu_(k, c);
    }
  }
}

void Lu::substitute(std::vector<double>& x) const {
  const std::size_t n = lu_.rows();
  // Forward substitution (L has unit diagonal).
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) x[i] -= lu_(i, j) * x[j];
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) x[ii] -= lu_(ii, j) * x[j];
    x[ii] /= lu_(ii, ii);
  }
}

std::vector<double> Lu::solve(std::vector<double> b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw InvalidInputError("Lu::solve: size mismatch");
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[static_cast<std::size_t>(perm_[i])];
  substitute(x);
  return x;
}

Matrix Lu::solve(const Matrix& b) const {
  const std::size_t n = lu_.rows();
  if (b.rows() != n) throw InvalidInputError("Lu::solve: shape mismatch");
  Matrix x(n, b.cols());
  std::vector<double> col(n);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < n; ++r) col[r] = b(r, c);
    // The per-column overload returns by value; this variant is off the solver hot path.
    const std::vector<double> xc = solve(col);
    for (std::size_t r = 0; r < n; ++r) x(r, c) = xc[r];
  }
  return x;
}

std::vector<double> Lu::solve_refined(const std::vector<double>& b) const {
  std::vector<double> x = solve(b);
  const std::size_t n = lu_.rows();
  // Residual r = b - A x, then the correction solve A dx = r.
  std::vector<double> r(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t j = 0; j < n; ++j) s -= a_(i, j) * x[j];
    r[i] = s;
  }
  const std::vector<double> dx = solve(std::move(r));
  for (std::size_t i = 0; i < n; ++i) x[i] += dx[i];
  return x;
}

double Lu::determinant() const {
  double d = sign_;
  for (std::size_t i = 0; i < lu_.rows(); ++i) d *= lu_(i, i);
  return d;
}

Matrix Lu::inverse() const {
  const std::size_t n = lu_.rows();
  Matrix inv(n, n);
  std::vector<double> x(n);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t i = 0; i < n; ++i)
      x[i] = static_cast<std::size_t>(perm_[i]) == c ? 1.0 : 0.0;
    substitute(x);
    for (std::size_t r = 0; r < n; ++r) inv(r, c) = x[r];
  }
  return inv;
}

double Lu::condition_estimate() const {
  if (cond_ >= 0.0) return cond_;
  // The matrices here are small, so the exact ||A^{-1}||_1 via n unit-vector
  // solves is affordable and beats a Hager-style estimate in reliability.
  // The columns stream through one reused buffer — the boundary stage calls
  // this once per analyze, so the n heap-allocating solves it used to make
  // showed up in the allocation profile.
  const std::size_t n = lu_.rows();
  std::vector<double> x(n);
  double inv_norm = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t i = 0; i < n; ++i)
      x[i] = static_cast<std::size_t>(perm_[i]) == c ? 1.0 : 0.0;
    substitute(x);
    double col = 0.0;
    for (std::size_t i = 0; i < n; ++i) col += std::abs(x[i]);
    inv_norm = std::max(inv_norm, col);
  }
  cond_ = norm1(a_) * inv_norm;
  return cond_;
}

double Lu::residual_max(const std::vector<double>& x, const std::vector<double>& b) const {
  const std::size_t n = lu_.rows();
  if (x.size() != n || b.size() != n)
    throw InvalidInputError("Lu::residual_max: size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t j = 0; j < n; ++j) s -= a_(i, j) * x[j];
    worst = std::max(worst, std::abs(s));
  }
  return worst;
}

std::vector<double> solve_left(const Matrix& a, const std::vector<double>& b) {
  return Lu(a.transpose()).solve(b);
}

Matrix inverse(const Matrix& a) { return Lu(a).inverse(); }

}  // namespace csq::linalg
