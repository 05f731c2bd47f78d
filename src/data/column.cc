#include "data/column.h"

#include <algorithm>

#include "util/logging.h"

namespace omnifair {

Column Column::Numeric(std::string name) {
  return Column(std::move(name), ColumnType::kNumeric);
}

Column Column::Categorical(std::string name, std::vector<std::string> categories) {
  Column col(std::move(name), ColumnType::kCategorical);
  col.categories_ = std::move(categories);
  return col;
}

Column Column::NumericOf(std::string name, std::vector<double> values) {
  Column col(std::move(name), ColumnType::kNumeric);
  col.values_ = std::move(values);
  return col;
}

Column Column::CategoricalOf(std::string name, std::vector<std::string> categories,
                             std::vector<int> codes) {
  Column col = Categorical(std::move(name), std::move(categories));
  const auto [lo, hi] = std::minmax_element(codes.begin(), codes.end());
  if (lo != codes.end()) {
    OF_CHECK_GE(*lo, 0) << "CategoricalOf " << col.name_;
    OF_CHECK_LT(static_cast<size_t>(*hi), col.categories_.size())
        << "CategoricalOf " << col.name_;
  }
  col.codes_ = std::move(codes);
  return col;
}

void Column::AppendNumeric(double value) {
  OF_CHECK(type_ == ColumnType::kNumeric) << "AppendNumeric on " << name_;
  values_.push_back(value);
}

void Column::AppendCode(int code) {
  OF_CHECK(type_ == ColumnType::kCategorical) << "AppendCode on " << name_;
  OF_CHECK_GE(code, 0);
  OF_CHECK_LT(static_cast<size_t>(code), categories_.size());
  codes_.push_back(code);
}

void Column::AppendCategory(const std::string& category) {
  OF_CHECK(type_ == ColumnType::kCategorical) << "AppendCategory on " << name_;
  int code = CodeOf(category);
  if (code < 0) {
    code = static_cast<int>(categories_.size());
    categories_.push_back(category);
  }
  codes_.push_back(code);
}

int Column::CodeOf(const std::string& category) const {
  for (size_t i = 0; i < categories_.size(); ++i) {
    if (categories_[i] == category) return static_cast<int>(i);
  }
  return -1;
}

Column Column::SelectRows(const std::vector<size_t>& indices) const {
  Column out(name_, type_);
  out.categories_ = categories_;
  if (type_ == ColumnType::kNumeric) {
    out.values_.reserve(indices.size());
    for (size_t i : indices) {
      OF_CHECK_LT(i, values_.size());
      out.values_.push_back(values_[i]);
    }
  } else {
    out.codes_.reserve(indices.size());
    for (size_t i : indices) {
      OF_CHECK_LT(i, codes_.size());
      out.codes_.push_back(codes_[i]);
    }
  }
  return out;
}

}  // namespace omnifair
