// Structure-exploiting multiply kernels for the QBD hot loops.
//
// The repeating blocks of the paper's chains are tiny but far from dense:
// A0 is a diagonal arrival block (lambda_S I), A2 a sparse service block
// (~m + k nonzeros), and the PH-fit pieces of A1 are banded. The generic
// Matrix operator* pays the full O(m^3) with a branch per element; the
// kernels here classify a block's zero structure once (BlockPattern) and
// dispatch to a matching kernel:
//
//   kDiagonal  right-multiply by a diagonal block: one product per entry
//   kSparse    CSR walk over the block's nonzeros: O(rows * nnz)
//   kBanded    k restricted to the band: O(rows * cols * bandwidth)
//   kDense     blocked row kernel with restrict-qualified pointers
//
// Numerical contract: every kernel accumulates dst(i,j) over k in ascending
// order, exactly like the generic kernel, and skipped terms are exact zeros
// — so for finite inputs the results are bit-identical to operator*
// (the kernel-equivalence suite pins this at 1e-14, conservatively).
//
// A BlockPattern describes *positions*, not values: it stays valid while the
// matrix keeps the same zero structure, which is exactly the lifetime of a
// QBD solve (A0/A1/A2 are fixed; only R evolves, and R is treated as dense).
// The QBD solver keeps its patterns in per-thread scratch (qbd/qbd.cc), so
// repeated solves reuse the pattern vectors' capacity.
//
// Throws csq::InvalidInputError on shape mismatches (same as operator*).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace csq::linalg {

enum class PatternKind : std::uint8_t { kDiagonal, kSparse, kBanded, kDense };

[[nodiscard]] const char* pattern_kind_name(PatternKind kind);

// Zero-structure summary of one block, produced by analyze_pattern().
struct BlockPattern {
  PatternKind kind = PatternKind::kDense;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t nnz = 0;
  // kBanded: nonzeros satisfy i - band_lower <= j <= i + band_upper.
  std::size_t band_lower = 0;
  std::size_t band_upper = 0;
  // kDiagonal / kSparse: CSR index lists (row_ptr size rows+1; col_idx holds
  // the nonzero columns of each row in ascending order). row_of flattens the
  // CSR: row_of[idx] is the row of col_idx[idx], so kernels can walk all nnz
  // positions in one loop (row-major order) instead of a nested walk whose
  // irregular inner trip counts defeat the branch predictor on tiny blocks.
  std::vector<std::uint32_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<std::uint32_t> row_of;

  // True when m has this pattern's shape and every nonzero of m sits at a
  // position the pattern covers (extra pattern positions are fine: they only
  // cost work, never correctness). Use in tests/assertions; the solver
  // guarantees it by construction.
  [[nodiscard]] bool matches(const Matrix& m) const;
};

// Classify m's zero structure. O(rows * cols), intended to run once per
// solve (or once per sweep when the structure is config-independent).
[[nodiscard]] BlockPattern analyze_pattern(const Matrix& m);

// In-place variant: refills pat, reusing its index vectors' capacity — the
// QBD solver's per-thread cached patterns re-analyze per solve without
// reallocating.
void analyze_pattern_into(BlockPattern& pat, const Matrix& m);

// dst = a * b where pat describes b (pat = analyze_pattern(b) or any pattern
// covering b's nonzeros). Dispatches on pat.kind; falls back to the dense
// kernel when pat covers everything. dst must not alias a or b.
void multiply_into_pattern(Matrix& dst, const Matrix& a, const Matrix& b,
                           const BlockPattern& pat);

// dst = a * b via the blocked restrict dense kernel (no pattern needed; use
// for products of evolving dense iterates like R*R). dst must not alias.
void multiply_into_dense(Matrix& dst, const Matrix& a, const Matrix& b);

// dst += b touching only the positions pat covers (diagonal add is rows ops
// instead of rows*cols). Shapes must match.
void add_into_pattern(Matrix& dst, const Matrix& b, const BlockPattern& pat);

}  // namespace csq::linalg
