#include "linalg/kernels.h"

#include "core/numeric.h"
#include "core/status.h"

namespace csq::linalg {

namespace {

void require(bool cond, const char* msg) {
  if (!cond) throw InvalidInputError(msg);
}

void check_multiply_args(const Matrix& dst, const Matrix& a, const Matrix& b) {
  require(a.cols() == b.rows(), "kernels: multiply shape mismatch");
  require(&dst != &a && &dst != &b, "kernels: dst must not alias an operand");
}

// Dense core with a compile-time column count: the j loop unrolls fully, so
// each k step is straight-line vector code with no remainder handling. The
// QBD blocks are tiny (m is single digits for every paper config), where
// that per-step loop machinery dominates the actual arithmetic.
template <std::size_t N>
void dense_core_fixed(double* __restrict__ d, const double* __restrict__ pa,
                      const double* __restrict__ pb, std::size_t rows, std::size_t inner) {
  for (std::size_t i = 0; i < rows; ++i) {
    // Row accumulator: the full j extent lives in registers across the k
    // loop, so the dependence chain is register adds instead of the
    // store-to-load forwarding round trip a `dst(i,j) +=` walk pays per
    // step. Same additions in the same ascending-k order — bit-identical.
    double acc[N] = {0.0};
    const double* __restrict__ arow = pa + i * inner;
    for (std::size_t k = 0; k < inner; ++k) {
      const double x = arow[k];
      if (num::exactly_zero(x)) continue;  // matches the generic kernel's skip
      const double* __restrict__ brow = pb + k * N;
      for (std::size_t j = 0; j < N; ++j) acc[j] += x * brow[j];
    }
    double* __restrict__ drow = d + i * N;
    for (std::size_t j = 0; j < N; ++j) drow[j] = acc[j];
  }
}

void dense_core_general(double* __restrict__ d, const double* __restrict__ pa,
                        const double* __restrict__ pb, std::size_t rows, std::size_t inner,
                        std::size_t n) {
  for (std::size_t i = 0; i < rows; ++i) {
    double* __restrict__ drow = d + i * n;
    const double* __restrict__ arow = pa + i * inner;
    for (std::size_t k = 0; k < inner; ++k) {
      const double x = arow[k];
      if (num::exactly_zero(x)) continue;
      const double* __restrict__ brow = pb + k * n;
      for (std::size_t j = 0; j < n; ++j) drow[j] += x * brow[j];
    }
  }
}

}  // namespace

void multiply_into_dense(Matrix& dst, const Matrix& a, const Matrix& b) {
  check_multiply_args(dst, a, b);
  const std::size_t rows = a.rows(), inner = a.cols(), n = b.cols();
  dst.reshape_zero(rows, n);
  if (rows == 0 || inner == 0 || n == 0) return;
  // reshape_zero guarantees distinct storage (aliasing rejected above), so
  // the restrict qualifiers hold and the inner j loop vectorizes. Unrolling
  // changes neither the per-element operation sequence nor the ascending-k
  // accumulation order, so every variant returns bit-identical results.
  double* __restrict__ d = &dst(0, 0);
  const double* __restrict__ pa = a.data().data();
  const double* __restrict__ pb = b.data().data();
  switch (n) {
    case 2: dense_core_fixed<2>(d, pa, pb, rows, inner); return;
    case 3: dense_core_fixed<3>(d, pa, pb, rows, inner); return;
    case 4: dense_core_fixed<4>(d, pa, pb, rows, inner); return;
    case 5: dense_core_fixed<5>(d, pa, pb, rows, inner); return;
    case 6: dense_core_fixed<6>(d, pa, pb, rows, inner); return;
    case 7: dense_core_fixed<7>(d, pa, pb, rows, inner); return;
    case 8: dense_core_fixed<8>(d, pa, pb, rows, inner); return;
    default: dense_core_general(d, pa, pb, rows, inner, n); return;
  }
}

}  // namespace csq::linalg
