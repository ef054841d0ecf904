// Compile fixture, expected to build: the twin of generic_mult_bad.cc. The
// structure-aware kernel does the matrix product; the row-vector product
// (pi <- pi R, no block structure) keeps its generic in-place overload.
#include <vector>

#include "linalg/kernels.h"
#include "linalg/matrix.h"

void step(csq::linalg::Matrix& next, const csq::linalg::Matrix& acc,
          const csq::linalg::Matrix& r) {
  csq::linalg::multiply_into_dense(next, acc, r);
}

void advance(std::vector<double>& scratch, const std::vector<double>& pi,
             const csq::linalg::Matrix& r) {
  csq::linalg::multiply_into(scratch, pi, r);
}
