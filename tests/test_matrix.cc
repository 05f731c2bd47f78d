#include "linalg/matrix.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace omnifair {
namespace {

TEST(MatrixTest, DefaultEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, FillConstructor) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(MatrixTest, InitializerList) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, ElementWrite) {
  Matrix m(2, 2);
  m.Set(1, 1, 7.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 7.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, RowPointerIsContiguous) {
  Matrix m = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const float* row = m.RowF(1);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  EXPECT_DOUBLE_EQ(row[2], 6.0);
}

TEST(MatrixTest, RowAndColVector) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.RowVector(1), (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(m.ColVector(0), (std::vector<double>{1.0, 3.0, 5.0}));
}

TEST(MatrixTest, SelectRows) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  Matrix s = m.SelectRows({2, 0});
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 2.0);
}

TEST(MatrixTest, SelectRowsWithRepeats) {
  Matrix m = {{1.0}, {2.0}};
  Matrix s = m.SelectRows({1, 1, 1});
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_DOUBLE_EQ(s(2, 0), 2.0);
}

TEST(MatrixTest, AppendRowToEmpty) {
  Matrix m;
  m.AppendRow({1.0, 2.0, 3.0});
  m.AppendRow({4.0, 5.0, 6.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
}

TEST(MatrixTest, MatVec) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  const std::vector<double> y = m.MatVec({1.0, 1.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(MatrixTest, MatVecIntoMatchesMatVec) {
  Matrix m = {{1.0, -2.0, 0.5}, {3.0, 4.0, -1.0}};
  const std::vector<double> x = {2.0, 0.1, -0.4};
  const std::vector<double> expected = m.MatVec(x);
  std::vector<double> y;
  m.MatVecInto(x, &y);
  EXPECT_EQ(y, expected);
  std::vector<double> raw(m.rows(), -99.0);
  m.MatVecInto(x.data(), raw.data());
  EXPECT_EQ(raw, expected);
}

TEST(MatrixTest, WritesNarrowToFloatOnce) {
  const double value = 0.1;  // not representable in float
  const double narrowed = static_cast<double>(static_cast<float>(value));
  Matrix m(1, 2, value);
  EXPECT_EQ(m(0, 1), narrowed);
  m.Set(0, 0, -value);
  EXPECT_EQ(m(0, 0), -narrowed);
  EXPECT_EQ(m.RowF(0)[0], -static_cast<float>(value));
  m.AppendRow({value, 6.5});
  EXPECT_EQ(m(1, 0), narrowed);
  EXPECT_EQ(m(1, 1), 6.5);  // exactly representable
  const Matrix listed = {{value}};
  EXPECT_EQ(listed(0, 0), narrowed);
}

TEST(MatrixTest, SelectRowsCopiesElementsBitExact) {
  Matrix m(3, 2);
  m.Set(0, 0, 0.1);
  m.Set(2, 1, -1.0 / 3.0);
  const Matrix s = m.SelectRows({2, 0});
  EXPECT_EQ(s.RowF(0)[1], m.RowF(2)[1]);
  EXPECT_EQ(s.RowF(1)[0], m.RowF(0)[0]);
  EXPECT_EQ(s.RowF(1)[1], 0.0f);
}

TEST(MatrixTest, RawBytesAreFourPerElement) {
  Matrix m(4, 3);
  EXPECT_EQ(m.RawBytes(), 4u * 3u * sizeof(float));
  EXPECT_EQ(m.RawData(), static_cast<const void*>(m.RowF(0)));
  EXPECT_EQ(Matrix().RawBytes(), 0u);
}

TEST(MatrixTest, ProductsMatchDoubleReferenceOnStoredValues) {
  // Values that float32 rounds: the product must equal double arithmetic
  // over the widened stored elements, not over the unrounded inputs.
  Matrix m = {{0.1, -2.3, 0.7}, {3.3, 4.1, -1.9}, {0.25, 0.6, 2.2}};
  const std::vector<double> x = {0.7, -1.3, 0.2};
  std::vector<double> y;
  m.MatVecInto(x, &y);
  ASSERT_EQ(y.size(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    double expected = 0.0;
    for (size_t c = 0; c < 3; ++c) expected += m(r, c) * x[c];
    EXPECT_NEAR(y[r], expected, 1e-12);
  }
}

TEST(MatrixDeathTest, ShapeOverflowDiesInsteadOfWrapping) {
  const size_t huge = (std::numeric_limits<size_t>::max() / 2) + 2;
  EXPECT_DEATH({ Matrix m(huge, 2); }, "overflows");
}

}  // namespace
}  // namespace omnifair
