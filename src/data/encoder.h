#ifndef OMNIFAIR_DATA_ENCODER_H_
#define OMNIFAIR_DATA_ENCODER_H_

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace omnifair {

/// Options for feature encoding.
struct EncoderOptions {
  /// Standardize numeric columns to zero mean / unit variance using the
  /// statistics of the dataset the encoder was fit on (the training split).
  bool standardize_numeric = true;
  /// One-hot encode categorical columns (dropping nothing; trees don't care
  /// and linear models carry an explicit intercept elsewhere).
  bool one_hot_categorical = true;
  /// Columns excluded from the feature matrix (e.g. the sensitive attribute
  /// when training "fairness through unawareness"-style, or id columns).
  std::vector<std::string> drop_columns;
};

/// Encodes a Dataset's attribute columns into a numeric feature Matrix.
/// Each encoded value is computed in double and narrowed to float32 once, as
/// it is stored (Matrix has one, float32, storage), so a bundle's encoder
/// serves exactly the features its model was trained on.
///
/// Fit on the training split, then applied to validation/test splits so the
/// standardization statistics and one-hot layout come from training data
/// only — the standard leakage-free protocol the paper's experiments follow.
class FeatureEncoder {
 public:
  FeatureEncoder() = default;

  /// Learns column statistics/layout from the given dataset.
  void Fit(const Dataset& dataset, const EncoderOptions& options = {});

  /// Encodes a dataset with the fitted layout. Columns must match the fitted
  /// schema by name; categorical codes outside the fitted dictionary map to
  /// all-zero one-hot blocks.
  Matrix Transform(const Dataset& dataset) const;

  /// Fit + Transform in one step.
  Matrix FitTransform(const Dataset& dataset, const EncoderOptions& options = {});

  /// Number of output feature dimensions after encoding.
  size_t NumFeatures() const { return feature_names_.size(); }

  /// Human-readable names of output features ("age", "race=Hispanic", ...).
  const std::vector<std::string>& feature_names() const { return feature_names_; }

  /// Writes the fitted layout + statistics in the library's text format
  /// (a model bundle's encoder section, so a deployed model can encode raw
  /// rows; DESIGN.md §15).
  void SerializeTo(std::ostream& os) const;
  /// Reads a layout written by SerializeTo.
  static Result<FeatureEncoder> Deserialize(std::istream& is);

  /// One fitted column's encode step, in feature-layout order.
  struct ColumnPlan {
    std::string name;
    ColumnType type = ColumnType::kNumeric;
    double mean = 0.0;
    double stddev = 1.0;
    size_t num_categories = 0;  // one-hot width for categorical columns
  };

  /// The fitted per-column plans. Streaming ingest (data/stream_reader.h)
  /// uses these to encode raw cells straight into the fitted feature layout
  /// without building an intermediate Dataset per block.
  const std::vector<ColumnPlan>& plans() const { return plans_; }

 private:
  EncoderOptions options_;
  std::vector<ColumnPlan> plans_;
  std::vector<std::string> feature_names_;
};

}  // namespace omnifair

#endif  // OMNIFAIR_DATA_ENCODER_H_
