// Allocation-free dense multiply for the QBD hot loops.
//
// The repeating blocks of the paper's chains are tiny (phase counts are
// single digits), and the solver's iterates are dense. The generic Matrix
// operator* returns a fresh matrix and pays a branch per element;
// multiply_into_dense writes into caller scratch with restrict-qualified
// row kernels, unrolled at compile time for 2..8 columns.
//
// Numerical contract: the kernel accumulates dst(i,j) over k in ascending
// order and skips exact-zero left entries, exactly like the generic kernel,
// so for finite inputs the results are bit-identical to operator*.
//
// Throws csq::InvalidInputError on shape mismatches (same as operator*).
#pragma once

#include "linalg/matrix.h"

namespace csq::linalg {

// dst = a * b via the blocked restrict dense kernel. dst must not alias a or
// b; its storage is reused when the shape already fits.
void multiply_into_dense(Matrix& dst, const Matrix& a, const Matrix& b);

}  // namespace csq::linalg
