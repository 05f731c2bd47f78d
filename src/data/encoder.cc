#include "data/encoder.h"

#include <cmath>

#include "linalg/vector_ops.h"
#include "util/logging.h"

namespace omnifair {
namespace {

bool IsDropped(const std::string& name, const EncoderOptions& options) {
  for (const std::string& dropped : options.drop_columns) {
    if (dropped == name) return true;
  }
  return false;
}

}  // namespace

void FeatureEncoder::Fit(const Dataset& dataset, const EncoderOptions& options) {
  options_ = options;
  plans_.clear();
  feature_names_.clear();
  for (const Column& col : dataset.columns()) {
    if (IsDropped(col.name(), options_)) continue;
    ColumnPlan plan;
    plan.name = col.name();
    plan.type = col.type();
    if (col.type() == ColumnType::kNumeric) {
      if (options_.standardize_numeric) {
        plan.mean = Mean(col.numeric_values());
        plan.stddev = StdDev(col.numeric_values());
        if (plan.stddev < 1e-12) plan.stddev = 1.0;
      }
      feature_names_.push_back(plan.name);
    } else {
      plan.num_categories = col.categories().size();
      if (options_.one_hot_categorical) {
        for (const std::string& cat : col.categories()) {
          feature_names_.push_back(plan.name + "=" + cat);
        }
      } else {
        feature_names_.push_back(plan.name);  // raw integer code
      }
    }
    plans_.push_back(std::move(plan));
  }
}

Matrix FeatureEncoder::Transform(const Dataset& dataset) const {
  const size_t n = dataset.NumRows();
  Matrix out(n, feature_names_.size());
  size_t offset = 0;
  for (const ColumnPlan& plan : plans_) {
    const Column& col = dataset.ColumnByName(plan.name);
    OF_CHECK(col.type() == plan.type) << "column type changed for " << plan.name;
    if (plan.type == ColumnType::kNumeric) {
      for (size_t r = 0; r < n; ++r) {
        double value = col.NumericValue(r);
        if (options_.standardize_numeric) value = (value - plan.mean) / plan.stddev;
        out.Set(r, offset, value);
      }
      offset += 1;
    } else if (options_.one_hot_categorical) {
      for (size_t r = 0; r < n; ++r) {
        const int code = col.Code(r);
        if (code >= 0 && static_cast<size_t>(code) < plan.num_categories) {
          out.Set(r, offset + static_cast<size_t>(code), 1.0);
        }
      }
      offset += plan.num_categories;
    } else {
      for (size_t r = 0; r < n; ++r) out.Set(r, offset, col.Code(r));
      offset += 1;
    }
  }
  OF_CHECK_EQ(offset, feature_names_.size());
  return out;
}

Matrix FeatureEncoder::FitTransform(const Dataset& dataset,
                                    const EncoderOptions& options) {
  Fit(dataset, options);
  return Transform(dataset);
}

void FeatureEncoder::SerializeTo(std::ostream& os) const {
  os.precision(17);
  os << "encoder 1\n";
  os << "options " << (options_.standardize_numeric ? 1 : 0) << " "
     << (options_.one_hot_categorical ? 1 : 0) << " "
     << options_.drop_columns.size() << "\n";
  for (const std::string& name : options_.drop_columns) os << name << "\n";
  os << "plans " << plans_.size() << "\n";
  for (const ColumnPlan& plan : plans_) {
    os << (plan.type == ColumnType::kNumeric ? "numeric" : "categorical") << " "
       << plan.mean << " " << plan.stddev << " " << plan.num_categories << " "
       << plan.name << "\n";
  }
  os << "features " << feature_names_.size() << "\n";
  for (const std::string& name : feature_names_) os << name << "\n";
}

Result<FeatureEncoder> FeatureEncoder::Deserialize(std::istream& is) {
  std::string tag;
  int version = 0;
  if (!(is >> tag >> version) || tag != "encoder" || version != 1) {
    return Status::InvalidArgument("bad encoder header");
  }
  FeatureEncoder encoder;
  int standardize = 0;
  int one_hot = 0;
  size_t num_drops = 0;
  if (!(is >> tag >> standardize >> one_hot >> num_drops) || tag != "options") {
    return Status::InvalidArgument("bad encoder options line");
  }
  encoder.options_.standardize_numeric = standardize != 0;
  encoder.options_.one_hot_categorical = one_hot != 0;
  std::string line;
  std::getline(is, line);  // consume end of options line
  for (size_t i = 0; i < num_drops; ++i) {
    if (!std::getline(is, line)) return Status::InvalidArgument("truncated drops");
    encoder.options_.drop_columns.push_back(line);
  }
  size_t num_plans = 0;
  if (!(is >> tag >> num_plans) || tag != "plans") {
    return Status::InvalidArgument("bad encoder plans header");
  }
  for (size_t i = 0; i < num_plans; ++i) {
    ColumnPlan plan;
    std::string type;
    if (!(is >> type >> plan.mean >> plan.stddev >> plan.num_categories)) {
      return Status::InvalidArgument("truncated encoder plan");
    }
    plan.type = type == "numeric" ? ColumnType::kNumeric : ColumnType::kCategorical;
    is >> std::ws;
    if (!std::getline(is, plan.name)) {
      return Status::InvalidArgument("truncated plan name");
    }
    encoder.plans_.push_back(std::move(plan));
  }
  size_t num_features = 0;
  if (!(is >> tag >> num_features) || tag != "features") {
    return Status::InvalidArgument("bad encoder features header");
  }
  std::getline(is, line);
  for (size_t i = 0; i < num_features; ++i) {
    if (!std::getline(is, line)) return Status::InvalidArgument("truncated features");
    encoder.feature_names_.push_back(line);
  }
  return encoder;
}

}  // namespace omnifair
