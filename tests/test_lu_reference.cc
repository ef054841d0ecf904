// The row-sweeping inverse and the condition estimate built on it
// (linalg/lu.cc) against the column-at-a-time substitution they replaced,
// kept below verbatim as the reference. Each column of the inverse sees the
// same operations in the same order either way, so the two must agree bit
// for bit: linalg::inverse_into and Lu::condition_estimate, on seeded
// random matrices that force row pivoting and on the boundary systems
// qbd::solve assembles for CS-ID chains.
//
// tools/check_warnings.sh runs this suite in its portable
// (-DCSQ_NATIVE_KERNELS=OFF) stage too, next to the golden pins.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analysis/stability.h"
#include "csid_chain.h"
#include "linalg/lu.h"
#include "qbd/qbd.h"

namespace csq::linalg {
namespace {

// --- reference: factorization and per-column substitution, verbatim ----------

double norm1(const Matrix& a) {
  double best = 0.0;
  for (std::size_t c = 0; c < a.cols(); ++c) {
    double s = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r) s += std::abs(a(r, c));
    best = std::max(best, s);
  }
  return best;
}

void factor_in_place(Matrix& lu, std::vector<int>& perm) {
  const std::size_t n = lu.rows();
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<int>(i);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    double best = std::abs(lu(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu(r, k));
      if (v > best) {
        best = v;
        piv = r;
      }
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

Matrix reference_inverse(const Matrix& a) {
  Matrix lu = a;
  std::vector<int> perm;
  factor_in_place(lu, perm);
  const std::size_t n = lu.rows();
  Matrix dst;
  dst.reshape_zero(n, n);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t i = 0; i < n; ++i)
      dst(i, c) = static_cast<std::size_t>(perm[i]) == c ? 1.0 : 0.0;
    substitute_factored(lu, [&dst, c](std::size_t i) -> double& { return dst(i, c); });
  }
  return dst;
}

double reference_condition(const Matrix& a) {
  Matrix lu = a;
  std::vector<int> perm;
  factor_in_place(lu, perm);
  const std::size_t n = lu.rows();
  std::vector<double> x(n);
  double inv_norm = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t i = 0; i < n; ++i)
      x[i] = static_cast<std::size_t>(perm[i]) == c ? 1.0 : 0.0;
    substitute_factored(lu, [&x](std::size_t i) -> double& { return x[i]; });
    double col = 0.0;
    for (std::size_t i = 0; i < n; ++i) col += std::abs(x[i]);
    inv_norm = std::max(inv_norm, col);
  }
  return norm1(a) * inv_norm;
}

// --- comparison ---------------------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const Matrix& got, const Matrix& want, const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < want.data().size(); ++i)
    ASSERT_EQ(bits(got.data()[i]), bits(want.data()[i])) << what << ", entry " << i;
}

// inverse_into through scratch that last held another shape, and the
// condition estimate, both against the reference.
void expect_identical(const Matrix& a, const std::string& what, Matrix& dst, Matrix& lu,
                      std::vector<int>& perm) {
  const Matrix want = reference_inverse(a);
  inverse_into(dst, a, lu, perm);
  expect_same_bits(dst, want, what + " (inverse_into)");
  EXPECT_EQ(bits(Lu(a).condition_estimate()), bits(reference_condition(a))) << what;
}

// Uniform in [lo, hi) from the top 53 bits: the same doubles on every
// standard library, unlike std::uniform_real_distribution.
double uniform(std::mt19937_64& rng, double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
}

TEST(LuReference, BitIdenticalOnPivotingRandomMatrices) {
  // Entries in [-1, 1) with the diagonal shrunk 1000-fold, so nearly every
  // column pivots on a row below it.
  std::mt19937_64 rng(1999);
  Matrix dst, lu;
  std::vector<int> perm;
  for (std::size_t n = 1; n <= 24; ++n)
    for (int rep = 0; rep < 20; ++rep) {
      Matrix a(n, n);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = uniform(rng, -1.0, 1.0);
      for (std::size_t i = 0; i < n; ++i) a(i, i) *= 1e-3;
      expect_identical(a, "n = " + std::to_string(n) + ", rep " + std::to_string(rep), dst,
                       lu, perm);
    }
}

// The boundary system qbd::solve factors for a one-boundary-level chain,
// assembled the same way: x E = 0 over (pi_0, pi_K), equation 0 replaced by
// the normalization, then transposed for the LU.
Matrix boundary_system(const qbd::Model& model, const qbd::Solution& sol) {
  const std::size_t m = model.a0.rows();
  const auto fill_diagonal = [](Matrix& local, const std::vector<const Matrix*>& others) {
    for (std::size_t i = 0; i < local.rows(); ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < local.cols(); ++j)
        if (j != i) s += local(i, j);
      for (const Matrix* o : others)
        for (std::size_t j = 0; j < o->cols(); ++j) s += (*o)(i, j);
      local(i, i) = -s;
    }
  };
  Matrix local = model.boundary[0].local;
  fill_diagonal(local, {&model.boundary[0].up});
  Matrix a1 = model.a1;
  fill_diagonal(a1, {&model.a0, &model.a2});
  Matrix e(2 * m, 2 * m);
  const auto add_block = [&e](std::size_t row0, std::size_t col0, const Matrix& blk) {
    for (std::size_t i = 0; i < blk.rows(); ++i)
      for (std::size_t j = 0; j < blk.cols(); ++j) e(row0 + i, col0 + j) += blk(i, j);
  };
  add_block(0, 0, local);
  add_block(0, m, model.boundary[0].up);
  add_block(m, m, a1 + sol.r * model.a2);
  add_block(m, 0, model.first_down);
  for (std::size_t row = 0; row < 2 * m; ++row) e(row, 0) = 0.0;
  for (std::size_t j = 0; j < m; ++j) e(j, 0) = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < m; ++j) s += sol.i_minus_r_inv(i, j);
    e(m + i, 0) = s;
  }
  return e.transpose();
}

TEST(LuReference, BitIdenticalOnCsidBoundarySystems) {
  // Seeded CS-ID chains (two boundary-system blocks of up to 7 phases);
  // the solve's own boundary_condition must also be the reference's, which
  // pins the assembly above to qbd::solve's.
  std::mt19937_64 rng(2005);
  Matrix dst, lu;
  std::vector<int> perm;
  for (int rep = 0; rep < 200; ++rep) {
    const double rho_l = uniform(rng, 0.05, 0.9);
    const double rho_s = uniform(rng, 0.05, 0.999 * analysis::csid_max_rho_short(rho_l));
    const double mean_l = std::exp(uniform(rng, 0.0, std::log(30.0)));
    const double scv_l = std::exp(uniform(rng, 0.0, std::log(20.0)));
    const qbd::Model model = test::csid_chain(rho_s, rho_l, mean_l, scv_l);
    const qbd::Solution sol = qbd::solve(model);
    const Matrix a = boundary_system(model, sol);
    const std::string what = "rep " + std::to_string(rep);
    expect_identical(a, what, dst, lu, perm);
    EXPECT_EQ(bits(sol.stats.boundary_condition), bits(reference_condition(a))) << what;
  }
}

}  // namespace
}  // namespace csq::linalg
