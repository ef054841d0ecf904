#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/lu.h"
#include "linalg/matrix.h"

namespace csq::linalg {
namespace {

TEST(Matrix, BasicOps) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 6);
  EXPECT_DOUBLE_EQ(sum(1, 1), 12);
  const Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(0, 1), 4);
  const Matrix prod = a * b;
  EXPECT_DOUBLE_EQ(prod(0, 0), 19);
  EXPECT_DOUBLE_EQ(prod(0, 1), 22);
  EXPECT_DOUBLE_EQ(prod(1, 0), 43);
  EXPECT_DOUBLE_EQ(prod(1, 1), 50);
  const Matrix scaled = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6);
}

TEST(Matrix, TransposeAndRowSums) {
  const Matrix a{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = a.transpose();
  ASSERT_EQ(t.rows(), 3u);
  ASSERT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6);
  const auto rs = a.row_sums();
  EXPECT_DOUBLE_EQ(rs[0], 6);
  EXPECT_DOUBLE_EQ(rs[1], 15);
  EXPECT_DOUBLE_EQ(a.max_abs(), 6);
}

TEST(Matrix, NormsPropagateNaNInsteadOfMaskingIt) {
  // std::max-based folds silently drop NaN (the comparison is false); the
  // norms must surface it so divergence and verification guards fire. The
  // fault-injection chaos suite found the masked variant letting a poisoned
  // functional iteration "converge".
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix a{{1, 2}, {3, 4}};
  Matrix b = a;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.0);
  a(0, 1) = nan;
  EXPECT_TRUE(std::isnan(a.max_abs()));
  EXPECT_TRUE(std::isnan(max_abs_diff(a, b)));
  // NaN anywhere poisons the norm, even when a larger finite entry follows.
  Matrix c{{nan, 2}, {3, 400}};
  EXPECT_TRUE(std::isnan(c.max_abs()));
}

TEST(Matrix, ShapeMismatchThrows) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{1, 2, 3}};
  EXPECT_THROW(a + b, std::invalid_argument);
  EXPECT_THROW(b * b, std::invalid_argument);
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, VectorProducts) {
  const Matrix a{{1, 2}, {3, 4}};
  const std::vector<double> v{1, 1};
  const auto left = v * a;
  EXPECT_DOUBLE_EQ(left[0], 4);
  EXPECT_DOUBLE_EQ(left[1], 6);
  const auto right = a * v;
  EXPECT_DOUBLE_EQ(right[0], 3);
  EXPECT_DOUBLE_EQ(right[1], 7);
  EXPECT_DOUBLE_EQ(dot(v, right), 10);
  EXPECT_DOUBLE_EQ(sum(left), 10);
}

TEST(Lu, SolvesKnownSystem) {
  const Matrix a{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}};
  const std::vector<double> b{8, -11, -3};
  const auto x = Lu(a).solve(b);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_NEAR(x[2], -1.0, 1e-12);
}

TEST(Lu, InverseRoundTrip) {
  const Matrix a{{4, 7, 1}, {2, 6, 0}, {1, 0, 5}};
  Matrix inv, lu;
  std::vector<int> perm;
  inverse_into(inv, a, lu, perm);
  const Matrix eye = a * inv;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(eye(i, j), i == j ? 1.0 : 0.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  const Matrix a{{1, 2}, {2, 4}};
  EXPECT_THROW(Lu{a}, std::domain_error);
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
  const Matrix a{{0, 1}, {1, 0}};
  const auto x = Lu(a).solve(std::vector<double>{3, 5});
  EXPECT_NEAR(x[0], 5.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

}  // namespace
}  // namespace csq::linalg
