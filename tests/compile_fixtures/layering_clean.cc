// Compile fixture, expected to build: the twin of layering_bad.cc. With the
// same include roots, a header from a layer below qbd (linalg) resolves.
#include "linalg/matrix.h"

std::size_t downward_rows() { return csq::linalg::Matrix(2, 3).rows(); }
