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

// Factor `lu` in place as PA = LU with partial pivoting; perm receives the
// row permutation (its capacity is reused).
void factor_in_place(Matrix& lu, std::vector<int>& perm) {
  if (lu.rows() != lu.cols()) throw InvalidInputError("Lu: matrix not square");
  const std::size_t n = lu.rows();
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<int>(i);

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t piv = k;
    double best = std::abs(lu(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu(r, k));
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
      for (std::size_t c = 0; c < n; ++c) std::swap(lu(k, c), lu(piv, c));
      std::swap(perm[k], perm[piv]);
    }
    const double d = lu(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = lu(r, k) / d;
      lu(r, k) = m;
      for (std::size_t c = k + 1; c < n; ++c) lu(r, c) -= m * lu(k, c);
    }
  }
}

// In-place forward/back substitution through packed factors; x(i) must
// already hold the permuted right-hand side (x(i) = b[perm[i]]).
template <class At>
void substitute_factored(const Matrix& lu, At x) {
  const std::size_t n = lu.rows();
  // Forward substitution (L has unit diagonal).
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) x(i) -= lu(i, j) * x(j);
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) x(ii) -= lu(ii, j) * x(j);
    x(ii) /= lu(ii, ii);
  }
}

// A^{-1} from packed factors. The substitutions sweep whole rows of dst,
// X(i,:) -= lu(i,j) X(j,:), so every column sees substitute_factored's
// operations in the same order (same bits) while the inner loop runs across
// all columns at once and vectorises.
void invert_factored(Matrix& dst, const Matrix& lu, const std::vector<int>& perm) {
  const std::size_t n = lu.rows();
  dst.reshape_zero(n, n);
  for (std::size_t i = 0; i < n; ++i) dst(i, static_cast<std::size_t>(perm[i])) = 1.0;
  const auto axpy_row = [&dst, n](std::size_t i, double f, std::size_t j) {
    double* xi = &dst(i, 0);
    const double* xj = &dst(j, 0);
    for (std::size_t c = 0; c < n; ++c) xi[c] -= f * xj[c];
  };
  // Forward substitution (L has unit diagonal).
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) axpy_row(i, lu(i, j), j);
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) axpy_row(ii, lu(ii, j), j);
    const double d = lu(ii, ii);
    double* xi = &dst(ii, 0);
    for (std::size_t c = 0; c < n; ++c) xi[c] /= d;
  }
}

}  // namespace

Lu::Lu(Matrix a) : a_(std::move(a)), lu_(a_) { factor_in_place(lu_, perm_); }

void Lu::substitute(std::vector<double>& x) const {
  substitute_factored(lu_, [&x](std::size_t i) -> double& { return x[i]; });
}

std::vector<double> Lu::solve(std::vector<double> b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw InvalidInputError("Lu::solve: size mismatch");
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[static_cast<std::size_t>(perm_[i])];
  substitute(x);
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

double Lu::condition_estimate() const {
  if (cond_ >= 0.0) return cond_;
  // The matrices here are small, so the exact ||A^{-1}||_1 from the full
  // inverse is affordable and beats a Hager-style estimate in reliability.
  // The inverse and its column sums live in per-thread buffers: the boundary
  // stage calls this once per analyze on a fresh Lu. Each column sum adds
  // its entries top to bottom, as a per-column loop would.
  thread_local Matrix inv;
  thread_local std::vector<double> col;
  invert_factored(inv, lu_, perm_);
  const std::size_t n = lu_.rows();
  col.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < n; ++c) col[c] += std::abs(inv(i, c));
  double inv_norm = 0.0;
  for (std::size_t c = 0; c < n; ++c) inv_norm = std::max(inv_norm, col[c]);
  cond_ = norm1(a_) * inv_norm;
  return cond_;
}

void inverse_into(Matrix& dst, const Matrix& a, Matrix& lu, std::vector<int>& perm) {
  if (&dst == &a || &dst == &lu || &lu == &a)
    throw InvalidInputError("inverse_into: dst, a and lu must be distinct");
  lu = a;
  factor_in_place(lu, perm);
  invert_factored(dst, lu, perm);
}

}  // namespace csq::linalg
