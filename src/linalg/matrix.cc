#include "linalg/matrix.h"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "core/status.h"

#include "core/check.h"
#include "core/numeric.h"

namespace csq::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) throw InvalidInputError("Matrix: ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw InvalidInputError("Matrix+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw InvalidInputError("Matrix-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix& Matrix::add_scaled(const Matrix& rhs, double s) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw InvalidInputError("Matrix::add_scaled: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * rhs.data_[i];
  return *this;
}

void Matrix::reshape_zero(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);  // keeps capacity; reallocates only to grow
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

std::vector<double> Matrix::row_sums() const {
  std::vector<double> s(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) s[r] += (*this)(r, c);
  return s;
}

double Matrix::max_abs() const {
  // std::max(m, NaN) returns m (the comparison is false), which would mask a
  // NaN entry and let divergence/verification guards built on this norm pass
  // a poisoned matrix. Propagate NaN instead of dropping it.
  double m = 0.0;
  for (double x : data_) {
    const double v = std::abs(x);
    if (std::isnan(v)) return v;
    m = std::max(m, v);
  }
  return m;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }

Matrix operator*(const Matrix& lhs, const Matrix& rhs) {
  if (lhs.cols() != rhs.rows()) throw InvalidInputError("Matrix*: shape mismatch");
  Matrix out(lhs.rows(), rhs.cols());
  for (std::size_t i = 0; i < lhs.rows(); ++i)
    for (std::size_t k = 0; k < lhs.cols(); ++k) {
      const double a = lhs(i, k);
      if (num::exactly_zero(a)) continue;
      for (std::size_t j = 0; j < rhs.cols(); ++j) out(i, j) += a * rhs(k, j);
    }
  return out;
}

Matrix operator*(double s, Matrix m) { return m *= s; }
Matrix operator*(Matrix m, double s) { return m *= s; }

void multiply_into(std::vector<double>& dst, const std::vector<double>& v, const Matrix& m) {
  if (v.size() != m.rows()) throw InvalidInputError("multiply_into: shape mismatch");
  if (&dst == &v) throw InvalidInputError("multiply_into: dst must not alias v");
  dst.assign(m.cols(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double a = v[r];
    if (num::exactly_zero(a)) continue;
    for (std::size_t c = 0; c < m.cols(); ++c) dst[c] += a * m(r, c);
  }
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw InvalidInputError("max_abs_diff: shape mismatch");
  double m = 0.0;
  const std::vector<double>& da = a.data();
  const std::vector<double>& db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    // NaN-propagating for the same reason as Matrix::max_abs — iteration
    // convergence checks compare this value against a tolerance, and a masked
    // NaN would read as "converged".
    const double v = std::abs(da[i] - db[i]);
    if (std::isnan(v)) return v;
    m = std::max(m, v);
  }
  return m;
}

std::vector<double> operator*(const std::vector<double>& v, const Matrix& m) {
  if (v.size() != m.rows()) throw InvalidInputError("vec*Matrix: shape mismatch");
  std::vector<double> out(m.cols(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double a = v[r];
    if (num::exactly_zero(a)) continue;
    for (std::size_t c = 0; c < m.cols(); ++c) out[c] += a * m(r, c);
  }
  return out;
}

std::vector<double> operator*(const Matrix& m, const std::vector<double>& v) {
  if (v.size() != m.cols()) throw InvalidInputError("Matrix*vec: shape mismatch");
  std::vector<double> out(m.rows(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) out[r] += m(r, c) * v[c];
  return out;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  CSQ_ASSERT(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < m.cols(); ++c) os << (c ? ", " : "[") << m(r, c);
    os << "]" << (r + 1 == m.rows() ? "]" : "\n");
  }
  return os;
}

}  // namespace csq::linalg
