#include "data/encoder.h"

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

namespace omnifair {
namespace {

Dataset ToyDataset() {
  Dataset d("toy");
  Column age = Column::Numeric("age");
  Column g = Column::Categorical("g", {"a", "b", "c"});
  const double ages[] = {10.0, 20.0, 30.0, 40.0};
  const int codes[] = {0, 1, 2, 0};
  for (int i = 0; i < 4; ++i) {
    age.AppendNumeric(ages[i]);
    g.AppendCode(codes[i]);
  }
  d.AddColumn(std::move(age));
  d.AddColumn(std::move(g));
  d.SetLabels({0, 1, 0, 1});
  return d;
}

TEST(EncoderTest, FeatureLayout) {
  FeatureEncoder encoder;
  encoder.Fit(ToyDataset());
  // 1 numeric + 3 one-hot.
  EXPECT_EQ(encoder.NumFeatures(), 4u);
  EXPECT_EQ(encoder.feature_names()[0], "age");
  EXPECT_EQ(encoder.feature_names()[1], "g=a");
  EXPECT_EQ(encoder.feature_names()[3], "g=c");
}

TEST(EncoderTest, StandardizesNumeric) {
  FeatureEncoder encoder;
  const Dataset d = ToyDataset();
  const Matrix X = encoder.FitTransform(d);
  double mean = 0.0;
  for (size_t r = 0; r < 4; ++r) mean += X(r, 0);
  mean /= 4.0;
  // Tolerances allow the one float32 rounding of each stored value.
  EXPECT_NEAR(mean, 0.0, 1e-6);
  double var = 0.0;
  for (size_t r = 0; r < 4; ++r) var += X(r, 0) * X(r, 0);
  EXPECT_NEAR(var / 4.0, 1.0, 1e-6);
}

TEST(EncoderTest, OneHotCorrect) {
  FeatureEncoder encoder;
  const Dataset d = ToyDataset();
  const Matrix X = encoder.FitTransform(d);
  // Row 1 is category "b" -> column 2 set.
  EXPECT_DOUBLE_EQ(X(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(X(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(X(1, 3), 0.0);
}

TEST(EncoderTest, TransformUsesTrainStatistics) {
  FeatureEncoder encoder;
  const Dataset train = ToyDataset();
  encoder.Fit(train);
  // A "validation" dataset with different values must use train's mean/std.
  Dataset val("toy");
  Column age = Column::Numeric("age");
  Column g = Column::Categorical("g", {"a", "b", "c"});
  age.AppendNumeric(25.0);  // train mean -> 0
  g.AppendCode(1);
  val.AddColumn(std::move(age));
  val.AddColumn(std::move(g));
  val.SetLabels({0});
  const Matrix X = encoder.Transform(val);
  EXPECT_NEAR(X(0, 0), 0.0, 1e-12);
}

TEST(EncoderTest, DropColumns) {
  FeatureEncoder encoder;
  EncoderOptions options;
  options.drop_columns = {"g"};
  encoder.Fit(ToyDataset(), options);
  EXPECT_EQ(encoder.NumFeatures(), 1u);
  EXPECT_EQ(encoder.feature_names()[0], "age");
}

TEST(EncoderTest, NoStandardization) {
  FeatureEncoder encoder;
  EncoderOptions options;
  options.standardize_numeric = false;
  const Matrix X = encoder.FitTransform(ToyDataset(), options);
  EXPECT_DOUBLE_EQ(X(0, 0), 10.0);
}

TEST(EncoderTest, ConstantColumnDoesNotDivideByZero) {
  Dataset d("const");
  Column c = Column::Numeric("c");
  for (int i = 0; i < 3; ++i) c.AppendNumeric(5.0);
  d.AddColumn(std::move(c));
  d.SetLabels({0, 1, 0});
  FeatureEncoder encoder;
  const Matrix X = encoder.FitTransform(d);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(std::isfinite(X(r, 0)));
    EXPECT_DOUBLE_EQ(X(r, 0), 0.0);
  }
}

TEST(EncoderTest, IntegerCodesWithoutOneHot) {
  FeatureEncoder encoder;
  EncoderOptions options;
  options.one_hot_categorical = false;
  const Matrix X = encoder.FitTransform(ToyDataset(), options);
  EXPECT_EQ(encoder.NumFeatures(), 2u);
  EXPECT_DOUBLE_EQ(X(2, 1), 2.0);  // raw code of "c"
}

TEST(EncoderTest, Float32FeaturesNarrowStorageOnly) {
  // Each stored element is the double encoding computed from the dataset,
  // narrowed once to float: (x - mean) / stddev for the numeric column (the
  // population statistics of the fit data), exact 0/1 for one-hot columns.
  const Dataset d = ToyDataset();
  FeatureEncoder encoder;
  const Matrix X = encoder.FitTransform(d);
  const std::vector<double>& ages = d.ColumnByName("age").numeric_values();
  double mean = 0.0;
  for (double a : ages) mean += a;
  mean /= static_cast<double>(ages.size());
  double var = 0.0;
  for (double a : ages) var += (a - mean) * (a - mean);
  const double stddev = std::sqrt(var / static_cast<double>(ages.size()));
  const int codes[] = {0, 1, 2, 0};
  ASSERT_EQ(X.rows(), ages.size());
  ASSERT_EQ(X.cols(), 4u);
  for (size_t r = 0; r < X.rows(); ++r) {
    EXPECT_EQ(X.RowF(r)[0], static_cast<float>((ages[r] - mean) / stddev))
        << "row " << r;
    for (size_t c = 1; c < 4; ++c) {
      EXPECT_EQ(X.RowF(r)[c], static_cast<int>(c) - 1 == codes[r] ? 1.0f : 0.0f);
    }
  }
}

}  // namespace
}  // namespace omnifair
