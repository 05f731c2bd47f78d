#ifndef OMNIFAIR_DATA_COLUMN_H_
#define OMNIFAIR_DATA_COLUMN_H_

#include <string>
#include <vector>

namespace omnifair {

/// Physical type of a column.
enum class ColumnType {
  kNumeric,      ///< double values
  kCategorical,  ///< dictionary-encoded strings
};

/// A named, typed column of a tabular dataset.
///
/// Categorical columns are dictionary-encoded: values are stored as integer
/// codes into a per-column category list, like Arrow's dictionary arrays.
/// This keeps group-membership checks (the hot path of grouping functions)
/// integer comparisons.
class Column {
 public:
  /// Creates an empty numeric column.
  static Column Numeric(std::string name);
  /// Creates an empty categorical column with a fixed category dictionary.
  static Column Categorical(std::string name, std::vector<std::string> categories);
  /// A numeric column that takes `values` by move.
  static Column NumericOf(std::string name, std::vector<double> values);
  /// A categorical column that takes its dictionary and `codes` by move;
  /// every code must index `categories`.
  static Column CategoricalOf(std::string name, std::vector<std::string> categories,
                              std::vector<int> codes);

  const std::string& name() const { return name_; }
  ColumnType type() const { return type_; }
  size_t size() const {
    return type_ == ColumnType::kNumeric ? values_.size() : codes_.size();
  }

  // --- Numeric access -------------------------------------------------------
  double NumericValue(size_t row) const { return values_[row]; }
  void AppendNumeric(double value);
  const std::vector<double>& numeric_values() const { return values_; }

  // --- Categorical access ---------------------------------------------------
  int Code(size_t row) const { return codes_[row]; }
  const std::string& CategoryOf(size_t row) const { return categories_[codes_[row]]; }
  const std::vector<std::string>& categories() const { return categories_; }
  const std::vector<int>& codes() const { return codes_; }
  void AppendCode(int code);
  /// Appends by category name, registering a new category if needed.
  void AppendCategory(const std::string& category);
  /// Returns the code for a category name, or -1 if unknown.
  int CodeOf(const std::string& category) const;

  /// New column holding the given subset of rows, in order.
  Column SelectRows(const std::vector<size_t>& indices) const;

 private:
  Column(std::string name, ColumnType type)
      : name_(std::move(name)), type_(type) {}

  std::string name_;
  ColumnType type_;
  std::vector<double> values_;           // numeric payload
  std::vector<int> codes_;               // categorical payload
  std::vector<std::string> categories_;  // categorical dictionary
};

}  // namespace omnifair

#endif  // OMNIFAIR_DATA_COLUMN_H_
