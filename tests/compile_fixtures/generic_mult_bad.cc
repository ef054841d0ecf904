// Compile fixture, expected to FAIL: linalg/matrix.h declares no in-place
// Matrix x Matrix product, so a generic one cannot appear in a QBD loop.
// Allocation-free products go through linalg/kernels.h.
#include "linalg/matrix.h"

void step(csq::linalg::Matrix& next, const csq::linalg::Matrix& acc,
          const csq::linalg::Matrix& r) {
  csq::linalg::multiply_into(next, acc, r);
}
