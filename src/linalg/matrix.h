// Small dense matrix type used by the matrix-analytic (QBD) machinery.
//
// The matrices in this project are tiny (phase counts are single digits), so
// a simple row-major std::vector<double> store with O(n^3) kernels is both
// sufficient and easy to audit. No external linear-algebra dependency.
//
// Throws csq::InvalidInputError (core/status.h) on shape mismatches.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

namespace csq::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  // Row-major brace construction: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  static Matrix zeros(std::size_t rows, std::size_t cols) { return Matrix(rows, cols); }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  [[nodiscard]] const std::vector<double>& data() const { return data_; }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  // *this += s * rhs, elementwise, no temporaries.
  Matrix& add_scaled(const Matrix& rhs, double s);

  // Reshape to rows x cols and zero-fill, reusing existing capacity — the
  // building block of the allocation-free workspace kernels below.
  void reshape_zero(std::size_t rows, std::size_t cols);

  [[nodiscard]] Matrix transpose() const;

  // Sum of each row (useful for generator diagonals and mass checks).
  [[nodiscard]] std::vector<double> row_sums() const;

  // max_ij |a_ij|; NaN if any entry is NaN (norm guards must see poison).
  [[nodiscard]] double max_abs() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

[[nodiscard]] Matrix operator+(Matrix lhs, const Matrix& rhs);
[[nodiscard]] Matrix operator-(Matrix lhs, const Matrix& rhs);
[[nodiscard]] Matrix operator*(const Matrix& lhs, const Matrix& rhs);
[[nodiscard]] Matrix operator*(double s, Matrix m);
[[nodiscard]] Matrix operator*(Matrix m, double s);

// Row-vector times matrix (the natural operation on stationary vectors).
[[nodiscard]] std::vector<double> operator*(const std::vector<double>& v, const Matrix& m);
// Matrix times column vector.
[[nodiscard]] std::vector<double> operator*(const Matrix& m, const std::vector<double>& v);

// dst = v * m (row-vector product) reusing dst's storage; dst must not alias
// v. Lets stationary-vector recursions (pi <- pi R) ping-pong two buffers
// instead of allocating per level. There is deliberately no in-place
// Matrix x Matrix overload: allocation-free matrix products go through the
// structure-aware kernels of linalg/kernels.h (multiply_into_pattern /
// multiply_into_dense), so a generic one cannot creep into the QBD loop.
void multiply_into(std::vector<double>& dst, const std::vector<double>& v, const Matrix& m);

// max_ij |a_ij - b_ij| without forming a - b; shapes must match. NaN if any
// entry of the difference is NaN, like Matrix::max_abs.
[[nodiscard]] double max_abs_diff(const Matrix& a, const Matrix& b);

[[nodiscard]] double dot(const std::vector<double>& a, const std::vector<double>& b);
[[nodiscard]] double sum(const std::vector<double>& v);

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace csq::linalg
