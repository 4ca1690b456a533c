// Tests for matrix kernels: shape checks and agreement with naive reference.
#include <gtest/gtest.h>

#include <vector>

#include "klinq/common/rng.hpp"
#include "klinq/linalg/gemm.hpp"
#include "klinq/linalg/matrix.hpp"

namespace {

using klinq::la::matrix_f;

matrix_f random_matrix(std::size_t rows, std::size_t cols,
                       klinq::xoshiro256& rng) {
  matrix_f m(rows, cols);
  for (auto& v : m.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

/// Naive reference C = op(A)·op(B).
matrix_f reference_mul(const matrix_f& a, bool ta, const matrix_f& b,
                       bool tb) {
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t k = ta ? a.rows() : a.cols();
  const std::size_t n = tb ? b.rows() : b.cols();
  matrix_f c(m, n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a(p, i) : a(i, p);
        const float bv = tb ? b(j, p) : b(p, j);
        acc += static_cast<double>(av) * bv;
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

void expect_near(const matrix_f& actual, const matrix_f& expected,
                 float tol = 1e-4f) {
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.cols(), expected.cols());
  for (std::size_t i = 0; i < actual.rows(); ++i) {
    for (std::size_t j = 0; j < actual.cols(); ++j) {
      EXPECT_NEAR(actual(i, j), expected(i, j), tol)
          << "at (" << i << "," << j << ")";
    }
  }
}

TEST(Matrix, ConstructionAndAccess) {
  matrix_f m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
  m(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(m.row(0)[1], 7.0f);
}

TEST(Matrix, AtThrowsOutOfRange) {
  matrix_f m(2, 2);
  EXPECT_THROW(m.at(2, 0), klinq::invalid_argument_error);
  EXPECT_THROW(m.at(0, 2), klinq::invalid_argument_error);
}

TEST(Matrix, FromRowsValidatesSize) {
  EXPECT_THROW(matrix_f::from_rows(2, 2, std::vector<float>(3)),
               klinq::invalid_argument_error);
  const auto m = matrix_f::from_rows(2, 2, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(m(1, 0), 3.0f);
}

TEST(Matrix, FillAndEquality) {
  matrix_f a(2, 2, 3.0f);
  matrix_f b(2, 2);
  b.fill(3.0f);
  EXPECT_EQ(a, b);
}

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, NnMatchesReference) {
  const auto [m, k, n] = GetParam();
  klinq::xoshiro256 rng(2000 + m * 100 + k * 10 + n);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  matrix_f c(m, n);
  klinq::la::gemm_nn(a, b, c);
  expect_near(c, reference_mul(a, false, b, false));
}

TEST_P(GemmShapeTest, TnMatchesReference) {
  const auto [m, k, n] = GetParam();
  klinq::xoshiro256 rng(3000 + m * 100 + k * 10 + n);
  const auto a = random_matrix(k, m, rng);  // Aᵀ is (m×k)
  const auto b = random_matrix(k, n, rng);
  matrix_f c(m, n);
  klinq::la::gemm_tn(a, b, c);
  expect_near(c, reference_mul(a, true, b, false));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                      std::make_tuple(8, 8, 8), std::make_tuple(17, 31, 7),
                      std::make_tuple(64, 33, 16),
                      std::make_tuple(100, 201, 16)));

TEST(Gemm, AccumulateAddsIntoC) {
  klinq::xoshiro256 rng(78);
  const auto a = random_matrix(4, 5, rng);
  const auto b = random_matrix(5, 3, rng);
  matrix_f c(4, 3, 1.0f);
  klinq::la::gemm_nn(a, b, c, /*accumulate=*/true);
  auto expected = reference_mul(a, false, b, false);
  for (auto& v : expected.flat()) v += 1.0f;
  expect_near(c, expected);
}

TEST(Gemm, ShapeMismatchThrows) {
  matrix_f a(2, 3);
  matrix_f b(4, 2);  // inner dim 3 vs 4
  matrix_f c(2, 2);
  EXPECT_THROW(klinq::la::gemm_nn(a, b, c), klinq::invalid_argument_error);
}

TEST(Gemm, LargeParallelPathMatchesReference) {
  // Big enough to trigger the threaded path.
  klinq::xoshiro256 rng(79);
  const auto a = random_matrix(128, 96, rng);
  const auto b = random_matrix(96, 64, rng);
  matrix_f c(128, 64);
  klinq::la::gemm_nn(a, b, c);
  expect_near(c, reference_mul(a, false, b, false), 5e-4f);
}

TEST(Gemv, MatchesGemmRow) {
  klinq::xoshiro256 rng(80);
  const auto m = random_matrix(5, 7, rng);
  std::vector<float> x(7);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> y(5);
  const std::vector<float> bias{0.1f, 0.2f, 0.3f, 0.4f, 0.5f};
  klinq::la::gemv(m, x, y, bias);
  for (std::size_t i = 0; i < 5; ++i) {
    double acc = bias[i];
    for (std::size_t j = 0; j < 7; ++j) acc += m(i, j) * x[j];
    EXPECT_NEAR(y[i], acc, 1e-5);
  }
}

TEST(Dot, BasicAndMismatch) {
  const std::vector<float> a{1, 2, 3};
  const std::vector<float> b{4, 5, 6};
  EXPECT_FLOAT_EQ(klinq::la::dot(a, b), 32.0f);
  const std::vector<float> c{1, 2};
  EXPECT_THROW(klinq::la::dot(a, c), klinq::invalid_argument_error);
}

TEST(Axpy, AccumulatesScaled) {
  const std::vector<float> x{1, 2, 3};
  std::vector<float> y{10, 10, 10};
  klinq::la::axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[2], 16.0f);
}

TEST(ColumnSums, MatchesManualSum) {
  const auto m = matrix_f::from_rows(3, 2, {1, 2, 3, 4, 5, 6});
  std::vector<float> sums(2);
  klinq::la::column_sums(m, sums);
  EXPECT_FLOAT_EQ(sums[0], 9.0f);
  EXPECT_FLOAT_EQ(sums[1], 12.0f);
  klinq::la::column_sums(m, sums, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(sums[0], 18.0f);
}

}  // namespace
