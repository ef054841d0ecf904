// Kernel-equivalence suite (`ctest -L kernels`): every structure-exploiting
// kernel in linalg/kernels.h must reproduce the generic Matrix operator*
// answer on matrices of every structural class and every size the fixed-N
// dispatch covers (n = 2..8) plus the general fallback (n >= 9). The kernels
// document a bit-identical contract (same additions, same ascending-k order,
// skipped terms exactly zero); the suite pins that exactly, and separately
// pins the issue-level 1e-14 tolerance so a future kernel that trades exact
// order for speed fails the strict test first and the contract test second.
//
// The QBD solver caches these patterns in per-thread scratch, so scratch
// reuse is pinned here too: a solve on a thread that has already solved
// other chains must match the same solve on a fresh thread bit for bit.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/numeric.h"
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

// floor(n*n/4) nonzeros scattered off the pure diagonal, which keeps the
// classifier in kSparse (nnz * 4 <= total) for every n >= 2.
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

TEST(KernelPattern, ClassifiesTheFourStructuralClasses) {
  ValueStream vs;
  EXPECT_EQ(analyze_pattern(diagonal_matrix(6, vs)).kind, PatternKind::kDiagonal);
  EXPECT_EQ(analyze_pattern(sparse_matrix(6, vs)).kind, PatternKind::kSparse);
  EXPECT_EQ(analyze_pattern(tridiagonal_matrix(8, vs)).kind, PatternKind::kBanded);
  EXPECT_EQ(analyze_pattern(dense_matrix(6, 6, vs)).kind, PatternKind::kDense);
}

TEST(KernelPattern, MatchesAcceptsSourceAndRejectsUncoveredNonzeros) {
  ValueStream vs;
  const Matrix sp = sparse_matrix(7, vs);
  const BlockPattern pat = analyze_pattern(sp);
  EXPECT_TRUE(pat.matches(sp));

  // A nonzero at a position the pattern does not cover must be rejected.
  Matrix extra = sp;
  bool flipped = false;
  for (std::size_t i = 0; i < extra.rows() && !flipped; ++i)
    for (std::size_t j = 0; j < extra.cols() && !flipped; ++j)
      if (num::exactly_zero(extra(i, j))) {
        extra(i, j) = 1.0;
        flipped = true;
      }
  ASSERT_TRUE(flipped);
  EXPECT_FALSE(pat.matches(extra));

  // Shape mismatch is a mismatch, not UB.
  EXPECT_FALSE(pat.matches(dense_matrix(3, 3, vs)));
}

TEST(KernelPattern, RowOfFlattensTheCsrExactly) {
  ValueStream vs;
  for (const Matrix& m : {sparse_matrix(6, vs), diagonal_matrix(5, vs)}) {
    const BlockPattern pat = analyze_pattern(m);
    ASSERT_EQ(pat.row_of.size(), pat.col_idx.size());
    ASSERT_EQ(pat.nnz, pat.col_idx.size());
    for (std::size_t r = 0; r < pat.rows; ++r)
      for (std::uint32_t idx = pat.row_ptr[r]; idx < pat.row_ptr[r + 1]; ++idx)
        EXPECT_EQ(pat.row_of[idx], r) << "flattened row index disagrees with row_ptr";
  }
  // The dense class carries no index lists at all.
  const BlockPattern dense_pat = analyze_pattern(dense_matrix(4, 4, vs));
  EXPECT_TRUE(dense_pat.row_of.empty());
  EXPECT_TRUE(dense_pat.col_idx.empty());
}

// The core equivalence sweep: every structural class x every column count
// covered by a fixed-N dispatch arm (2..8) plus the general fallback (9),
// with a rectangular left operand so rows != inner != cols stays honest.
TEST(KernelEquivalence, PatternMultiplyIsBitIdenticalToGeneric) {
  ValueStream vs;
  for (std::size_t n = 2; n <= 9; ++n) {
    const Matrix a = dense_matrix(n + 3, n, vs);
    const std::vector<Matrix> rights = {diagonal_matrix(n, vs), sparse_matrix(n, vs),
                                        tridiagonal_matrix(n, vs), dense_matrix(n, n, vs)};
    for (const Matrix& b : rights) {
      const BlockPattern pat = analyze_pattern(b);
      ASSERT_TRUE(pat.matches(b));
      Matrix out;
      multiply_into_pattern(out, a, b, pat);
      const Matrix ref = generic_product(a, b);
      EXPECT_EQ(max_abs_diff(out, ref), 0.0)
          << "kernel " << pattern_kind_name(pat.kind) << " diverges at n=" << n;
    }
  }
}

// The issue-level contract is 1e-14; pinned separately so the strict
// bit-identity test above can evolve without silently losing this floor.
TEST(KernelEquivalence, PatternMultiplyWithinContractTolerance) {
  ValueStream vs;
  for (std::size_t n = 2; n <= 9; ++n) {
    const Matrix a = dense_matrix(n + 1, n, vs);
    const Matrix b = sparse_matrix(n, vs);
    Matrix out;
    multiply_into_pattern(out, a, b, analyze_pattern(b));
    EXPECT_LE(max_abs_diff(out, generic_product(a, b)), 1e-14);
  }
}

TEST(KernelEquivalence, DenseMultiplyIsBitIdenticalToGeneric) {
  ValueStream vs;
  for (std::size_t n = 1; n <= 9; ++n) {
    const Matrix a = dense_matrix(n + 2, n, vs);
    const Matrix b = dense_matrix(n, n + 1, vs);  // rectangular right operand
    Matrix out;
    multiply_into_dense(out, a, b);
    EXPECT_EQ(max_abs_diff(out, generic_product(a, b)), 0.0) << "n=" << n;
  }
}

// A pattern that covers a superset of b's nonzeros is legal (the header's
// contract: extra positions cost work, never correctness).
TEST(KernelEquivalence, SupersetPatternStillExact) {
  ValueStream vs;
  const Matrix wide = sparse_matrix(6, vs);  // more nonzeros...
  Matrix b = wide;
  b(1, b.cols() > 2 ? 2 : 0) = 0.0;  // ...than b actually has
  const BlockPattern pat = analyze_pattern(wide);
  ASSERT_TRUE(pat.matches(b));
  const Matrix a = dense_matrix(7, 6, vs);
  Matrix out;
  multiply_into_pattern(out, a, b, pat);
  EXPECT_EQ(max_abs_diff(out, generic_product(a, b)), 0.0);
}

TEST(KernelEquivalence, AddIntoPatternMatchesPlainAdd) {
  ValueStream vs;
  for (const Matrix& b : {diagonal_matrix(6, vs), sparse_matrix(6, vs),
                          tridiagonal_matrix(6, vs), dense_matrix(6, 6, vs)}) {
    const BlockPattern pat = analyze_pattern(b);
    Matrix dst = dense_matrix(6, 6, vs);
    Matrix ref = dst;
    add_into_pattern(dst, b, pat);
    for (std::size_t i = 0; i < 6; ++i)
      for (std::size_t j = 0; j < 6; ++j) ref(i, j) += b(i, j);
    EXPECT_EQ(max_abs_diff(dst, ref), 0.0)
        << "add kernel " << pattern_kind_name(pat.kind) << " diverges";
  }
}

TEST(KernelEquivalence, ShapeMismatchesThrowLikeTheGenericKernel) {
  ValueStream vs;
  const Matrix a = dense_matrix(4, 4, vs);
  const Matrix b = dense_matrix(5, 5, vs);
  const BlockPattern pat = analyze_pattern(b);
  Matrix out;
  EXPECT_THROW(multiply_into_pattern(out, a, b, pat), InvalidInputError);
  EXPECT_THROW(multiply_into_dense(out, a, b), InvalidInputError);
  // Pattern must describe b, not some other matrix's shape.
  const Matrix c = dense_matrix(4, 4, vs);
  EXPECT_THROW(multiply_into_pattern(out, a, c, pat), InvalidInputError);
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
  EXPECT_EQ(warm.stats.spectral_radius, fresh.stats.spectral_radius);
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
  // Scratch sized and patterns cached for one shape, then a solve of
  // another shape (buffers reshape, pattern vectors shrink), then back.
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
