// Kernel-equivalence suite (`ctest -L kernels`): linalg/kernels.h's
// multiply_into_dense must reproduce the generic Matrix operator* answer
// bit for bit at every size its fixed-N dispatch covers (n = 2..8) plus the
// general fallback (n >= 9), on right operands of every structural class
// the QBD blocks take (diagonal, sparse, banded, dense): the kernel skips
// exact-zero terms the same way the generic one does.
//
// The QBD solver keeps its iterates in per-thread scratch, so scratch reuse
// is pinned here too: a solve on a thread that has already solved other
// chains must match the same solve on a fresh thread bit for bit.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "qbd/qbd.h"

namespace csq::linalg {
namespace {

// Deterministic value stream (xorshift64*): the suite must test the same
// matrices on every run and host, so failures bisect cleanly.
struct ValueStream {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  double next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    const std::uint64_t x = state * 0x2545f4914f6cdd1dULL;
    // Map to [-2, 2) with plenty of mantissa variety.
    return static_cast<double>(x >> 11) / static_cast<double>(1ULL << 52) - 2.0;
  }
};

Matrix dense_matrix(std::size_t rows, std::size_t cols, ValueStream& vs) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = vs.next();
  return m;
}

Matrix diagonal_matrix(std::size_t n, ValueStream& vs) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = vs.next();
  return m;
}

// floor(n*n/4) nonzeros (at least one) scattered off the pure diagonal.
Matrix sparse_matrix(std::size_t n, ValueStream& vs) {
  Matrix m(n, n);
  const std::size_t nnz = (n * n) / 4 > 0 ? (n * n) / 4 : 1;
  for (std::size_t k = 0; k < nnz; ++k) {
    const std::size_t i = (k * 7 + 1) % n;
    const std::size_t j = (k * 5 + i + 1) % n;  // off-diagonal-ish scatter
    m(i, j) = vs.next();
  }
  return m;
}

Matrix tridiagonal_matrix(std::size_t n, ValueStream& vs) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) m(i, i - 1) = vs.next();
    m(i, i) = vs.next();
    if (i + 1 < n) m(i, i + 1) = vs.next();
  }
  return m;
}

// The reference answer, straight from the generic product.
Matrix generic_product(const Matrix& a, const Matrix& b) { return a * b; }

TEST(KernelEquivalence, DenseMultiplyIsBitIdenticalToGeneric) {
  ValueStream vs;
  for (std::size_t n = 1; n <= 9; ++n) {
    const Matrix a = dense_matrix(n + 2, n, vs);
    const Matrix b = dense_matrix(n, n + 1, vs);  // rectangular right operand
    Matrix out;
    multiply_into_dense(out, a, b);
    EXPECT_EQ(max_abs_diff(out, generic_product(a, b)), 0.0) << "n=" << n;
    // Square right operands of every structural class, with a rectangular
    // left operand so rows != inner stays honest.
    const Matrix left = dense_matrix(n + 3, n, vs);
    for (const Matrix& right : {diagonal_matrix(n, vs), sparse_matrix(n, vs),
                                tridiagonal_matrix(n, vs), dense_matrix(n, n, vs)}) {
      multiply_into_dense(out, left, right);
      EXPECT_EQ(max_abs_diff(out, generic_product(left, right)), 0.0) << "n=" << n;
    }
  }
}

TEST(KernelEquivalence, ShapeMismatchesThrowLikeTheGenericKernel) {
  ValueStream vs;
  const Matrix a = dense_matrix(4, 4, vs);
  const Matrix b = dense_matrix(5, 5, vs);
  Matrix out;
  EXPECT_THROW(multiply_into_dense(out, a, b), InvalidInputError);
  // dst may not alias an operand.
  Matrix c = dense_matrix(4, 4, vs);
  EXPECT_THROW(multiply_into_dense(c, a, c), InvalidInputError);
}

// ---------------------------------------------------------------------------
// Per-thread QBD scratch: reuse must be invisible in the results.

struct RepeatingBlocks {
  Matrix a0, a1, a2;
};

// A small stable QBD repeating portion with m phases: Poisson arrivals at
// rate `lambda` (a0), service completions at rate 2 (a2), a cyclic phase
// coupling in a1, diagonal filled so generator rows sum to zero. lambda < 2
// keeps sp(R) < 1.
RepeatingBlocks stable_blocks(double lambda, std::size_t m = 3) {
  const double mu = 2.0, c = 0.2;
  RepeatingBlocks blk{Matrix(m, m), Matrix(m, m), Matrix(m, m)};
  for (std::size_t i = 0; i < m; ++i) {
    blk.a0(i, i) = lambda;
    blk.a2(i, i) = mu;
    blk.a1(i, (i + 1) % m) = c;
    blk.a1(i, i) = -(lambda + mu + c);
  }
  return blk;
}

struct RSolve {
  Matrix r;
  qbd::SolveStats stats;
};

RSolve solve_blocks(const RepeatingBlocks& blk) {
  RSolve out;
  out.r = qbd::solve_r(blk.a0, blk.a1, blk.a2, {}, &out.stats);
  return out;
}

// The same solve on a thread whose scratch has never been touched.
RSolve solve_on_fresh_thread(const RepeatingBlocks& blk) {
  RSolve out;
  std::thread([&] { out = solve_blocks(blk); }).join();
  return out;
}

void expect_same_solve(const RSolve& warm, const RSolve& fresh) {
  EXPECT_EQ(max_abs_diff(warm.r, fresh.r), 0.0);
  EXPECT_EQ(warm.stats.iterations, fresh.stats.iterations);
  EXPECT_EQ(warm.stats.residual, fresh.stats.residual);
  EXPECT_EQ(warm.stats.drift, fresh.stats.drift);
}

TEST(KernelScratch, WarmThreadSolvesMatchFreshThreadsBitForBit) {
  // Three solves back to back on one thread, each warm from the one before,
  // against the same solves each on a fresh thread.
  std::vector<RepeatingBlocks> items;
  for (double lambda : {0.4, 0.9, 1.4}) items.push_back(stable_blocks(lambda));
  std::vector<RSolve> warm;
  std::thread([&] {
    for (const RepeatingBlocks& blk : items) warm.push_back(solve_blocks(blk));
  }).join();
  ASSERT_EQ(warm.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_solve(warm[i], solve_on_fresh_thread(items[i]));
  }
}

TEST(KernelScratch, ReuseAcrossShapesMatchesFreshThreadBitForBit) {
  // Scratch sized for one shape, then a solve of another shape (buffers
  // reshape), then back.
  const RepeatingBlocks first = stable_blocks(0.6, 3);
  const RepeatingBlocks second = stable_blocks(1.3, 5);
  RSolve r1, r2, r1_again;
  std::thread([&] {
    r1 = solve_blocks(first);
    r2 = solve_blocks(second);
    r1_again = solve_blocks(first);
  }).join();
  expect_same_solve(r1, solve_on_fresh_thread(first));
  expect_same_solve(r2, solve_on_fresh_thread(second));
  expect_same_solve(r1_again, r1);
}

}  // namespace
}  // namespace csq::linalg
