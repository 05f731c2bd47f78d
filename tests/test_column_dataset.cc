#include <gtest/gtest.h>

#include "data/column.h"
#include "data/dataset.h"

namespace omnifair {
namespace {

TEST(ColumnTest, NumericAppendAndRead) {
  Column col = Column::Numeric("age");
  col.AppendNumeric(30.0);
  col.AppendNumeric(45.0);
  EXPECT_EQ(col.type(), ColumnType::kNumeric);
  EXPECT_EQ(col.size(), 2u);
  EXPECT_DOUBLE_EQ(col.NumericValue(1), 45.0);
}

TEST(ColumnTest, CategoricalByCode) {
  Column col = Column::Categorical("race", {"A", "B"});
  col.AppendCode(1);
  col.AppendCode(0);
  EXPECT_EQ(col.size(), 2u);
  EXPECT_EQ(col.CategoryOf(0), "B");
  EXPECT_EQ(col.Code(1), 0);
}

TEST(ColumnTest, ArraysTakenByMoveAndCodesRangeChecked) {
  std::vector<double> values = {1.5, -2.0};
  const double* data = values.data();
  const Column age = Column::NumericOf("age", std::move(values));
  EXPECT_EQ(age.numeric_values().data(), data);  // moved, not copied
  EXPECT_EQ(age.size(), 2u);

  const Column race = Column::CategoricalOf("race", {"A", "B"}, {1, 0, 1});
  EXPECT_EQ(race.CategoryOf(0), "B");
  EXPECT_EQ(race.Code(1), 0);
  EXPECT_DEATH(Column::CategoricalOf("race", {"A", "B"}, {0, 2}), "race");
  EXPECT_DEATH(Column::CategoricalOf("race", {"A"}, {-1}), "race");
}

TEST(ColumnTest, AppendCategoryRegistersNew) {
  Column col = Column::Categorical("city", {});
  col.AppendCategory("NYC");
  col.AppendCategory("LA");
  col.AppendCategory("NYC");
  EXPECT_EQ(col.categories().size(), 2u);
  EXPECT_EQ(col.Code(0), col.Code(2));
  EXPECT_NE(col.Code(0), col.Code(1));
}

TEST(ColumnTest, CodeOfUnknownIsMinusOne) {
  Column col = Column::Categorical("x", {"a"});
  EXPECT_EQ(col.CodeOf("a"), 0);
  EXPECT_EQ(col.CodeOf("zzz"), -1);
}

TEST(ColumnTest, SelectRowsPreservesDictionary) {
  Column col = Column::Categorical("g", {"a", "b", "c"});
  col.AppendCode(2);
  col.AppendCode(0);
  col.AppendCode(1);
  Column sub = col.SelectRows({2, 0});
  EXPECT_EQ(sub.categories().size(), 3u);
  EXPECT_EQ(sub.CategoryOf(0), "b");
  EXPECT_EQ(sub.CategoryOf(1), "c");
}

TEST(DatasetTest, AddColumnsAndLabels) {
  Dataset d("toy");
  Column age = Column::Numeric("age");
  age.AppendNumeric(20.0);
  age.AppendNumeric(30.0);
  d.AddColumn(std::move(age));
  d.SetLabels({0, 1});
  EXPECT_EQ(d.NumRows(), 2u);
  EXPECT_EQ(d.NumColumns(), 1u);
  EXPECT_EQ(d.Label(1), 1);
  EXPECT_TRUE(d.Validate().ok());
}

TEST(DatasetTest, FindColumn) {
  Dataset d;
  d.AddColumn(Column::Numeric("a"));
  EXPECT_TRUE(d.HasColumn("a"));
  EXPECT_FALSE(d.HasColumn("b"));
  EXPECT_NE(d.FindColumn("a"), nullptr);
  EXPECT_EQ(d.FindColumn("b"), nullptr);
}

TEST(DatasetTest, PositiveRate) {
  Dataset d;
  Column x = Column::Numeric("x");
  for (int i = 0; i < 4; ++i) x.AppendNumeric(i);
  d.AddColumn(std::move(x));
  d.SetLabels({1, 0, 0, 1});
  EXPECT_DOUBLE_EQ(d.PositiveRate(), 0.5);
}

TEST(DatasetTest, SelectRows) {
  Dataset d("toy");
  Column x = Column::Numeric("x");
  Column g = Column::Categorical("g", {"m", "f"});
  for (int i = 0; i < 4; ++i) {
    x.AppendNumeric(i);
    g.AppendCode(i % 2);
  }
  d.AddColumn(std::move(x));
  d.AddColumn(std::move(g));
  d.SetLabels({0, 1, 0, 1});

  Dataset sub = d.SelectRows({3, 1});
  EXPECT_EQ(sub.NumRows(), 2u);
  EXPECT_EQ(sub.name(), "toy");
  EXPECT_DOUBLE_EQ(sub.ColumnByName("x").NumericValue(0), 3.0);
  EXPECT_EQ(sub.ColumnByName("g").CategoryOf(1), "f");
  EXPECT_EQ(sub.Label(0), 1);
}

TEST(DatasetTest, ValidateCatchesNonBinaryLabels) {
  Dataset d;
  Column x = Column::Numeric("x");
  x.AppendNumeric(1.0);
  d.AddColumn(std::move(x));
  d.SetLabels({2});
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, SetLabelMutates) {
  Dataset d;
  Column x = Column::Numeric("x");
  x.AppendNumeric(1.0);
  d.AddColumn(std::move(x));
  d.SetLabels({0});
  d.SetLabel(0, 1);
  EXPECT_EQ(d.Label(0), 1);
}

}  // namespace
}  // namespace omnifair
