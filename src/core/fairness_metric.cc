#include "core/fairness_metric.h"

#include "util/logging.h"

namespace omnifair {
namespace {

size_t CountLabel(const Dataset& dataset, const std::vector<size_t>& group, int label) {
  size_t count = 0;
  for (size_t i : group) count += (dataset.Label(i) == label);
  return count;
}

size_t CountPrediction(const std::vector<int>& predictions,
                       const std::vector<size_t>& group, int value) {
  size_t count = 0;
  for (size_t i : group) count += (predictions[i] == value);
  return count;
}

/// SP, MR, FPR and FNR: each row's coefficient depends only on its label and
/// the group's label counts (LabelCoefficientsOf).
class LabelCountMetric : public FairnessMetric {
 public:
  LabelCountMetric(MetricKind kind, std::string name)
      : kind_(kind), name_(std::move(name)) {}

  std::string Name() const override { return name_; }
  MetricCoefficients Coefficients(const Dataset& dataset,
                                  const std::vector<size_t>& group,
                                  const std::vector<int>*) const override {
    const size_t negatives = CountLabel(dataset, group, 0);
    const LabelCoefficients label_coef =
        LabelCoefficientsOf(kind_, negatives, group.size() - negatives);
    MetricCoefficients out;
    out.c.resize(group.size());
    for (size_t k = 0; k < group.size(); ++k) {
      out.c[k] = label_coef.c[dataset.Label(group[k]) == 1 ? 1 : 0];
    }
    out.c0 = label_coef.c0;
    return out;
  }

 private:
  MetricKind kind_;
  std::string name_;
};

/// FOR = P(y=1 | h=0) (Appendix A, Eq. 26) and FDR = P(y=0 | h=1):
/// prediction-parameterized. With v = 0 for FOR and v = 1 for FDR,
/// c_i = -1/|{h=v}| for y_i=v, 0 otherwise, c0 = 1. Among y_i=v rows only
/// those with h=v score 1(h=y)=1, so the identity recovers
/// 1 - |{h=v, y=v}|/|{h=v}|.
class PredictedValueRateMetric : public FairnessMetric {
 public:
  PredictedValueRateMetric(int value, std::string name)
      : value_(value), name_(std::move(name)) {}

  std::string Name() const override { return name_; }
  bool DependsOnPredictions() const override { return true; }
  MetricCoefficients Coefficients(const Dataset& dataset,
                                  const std::vector<size_t>& group,
                                  const std::vector<int>* predictions) const override {
    OF_CHECK(predictions != nullptr) << name_ << " requires predictions";
    MetricCoefficients out;
    const size_t predicted = CountPrediction(*predictions, group, value_);
    out.c.resize(group.size(), 0.0);
    if (predicted == 0) return out;
    const double coef = -1.0 / static_cast<double>(predicted);
    for (size_t k = 0; k < group.size(); ++k) {
      if (dataset.Label(group[k]) == value_) out.c[k] = coef;
    }
    out.c0 = 1.0;
    return out;
  }

 private:
  int value_;
  std::string name_;
};

}  // namespace

LabelCoefficients LabelCoefficientsOf(MetricKind kind, size_t negatives,
                                      size_t positives) {
  LabelCoefficients out;
  const size_t total = negatives + positives;
  switch (kind) {
    // SP, f = P(h=1) (Example 3, Equation 8): c = -1/|g| for y=0, +1/|g|
    // for y=1, c0 = |{y=0}|/|g|.
    case MetricKind::kStatisticalParity:
      if (total == 0) break;
      out.c = {-1.0 / static_cast<double>(total),
               1.0 / static_cast<double>(total)};
      out.c0 = static_cast<double>(negatives) / static_cast<double>(total);
      break;
    // MR parity expressed as accuracy (Appendix A, Eq. 25): f = P(h=y),
    // c = 1/|g|, c0 = 0. Equal accuracy <=> equal MR.
    case MetricKind::kMisclassificationRate:
      if (total == 0) break;
      out.c = {1.0 / static_cast<double>(total),
               1.0 / static_cast<double>(total)};
      break;
    // FPR = P(h=1 | y=0) = 1 - (1/|y=0|) * sum_{y_i=0} 1(h=y):
    // c = -1/|{y=0}| for y=0, 0 for y=1, c0 = 1. (Table 2 lists the
    // sign-flipped TNR variant; disparities coincide.)
    case MetricKind::kFalsePositiveRate:
      if (negatives == 0) break;
      out.c[0] = -1.0 / static_cast<double>(negatives);
      out.c0 = 1.0;
      break;
    // FNR = P(h=0 | y=1): c = -1/|{y=1}| for y=1, 0 for y=0, c0 = 1.
    case MetricKind::kFalseNegativeRate:
      if (positives == 0) break;
      out.c[1] = -1.0 / static_cast<double>(positives);
      out.c0 = 1.0;
      break;
    case MetricKind::kFalseOmissionRate:
    case MetricKind::kFalseDiscoveryRate:
      OF_CHECK(false) << "LabelCoefficientsOf: FOR/FDR depend on predictions";
  }
  return out;
}

double FairnessMetric::Evaluate(const Dataset& dataset,
                                const std::vector<size_t>& group,
                                const std::vector<int>& predictions) const {
  const MetricCoefficients coef = Coefficients(dataset, group, &predictions);
  OF_CHECK_EQ(coef.c.size(), group.size());
  double value = coef.c0;
  for (size_t k = 0; k < group.size(); ++k) {
    const size_t i = group[k];
    if (predictions[i] == dataset.Label(i)) value += coef.c[k];
  }
  return value;
}

std::unique_ptr<FairnessMetric> MakeMetric(MetricKind kind) {
  switch (kind) {
    case MetricKind::kStatisticalParity:
      return std::make_unique<LabelCountMetric>(kind, "sp");
    case MetricKind::kMisclassificationRate:
      return std::make_unique<LabelCountMetric>(kind, "mr");
    case MetricKind::kFalsePositiveRate:
      return std::make_unique<LabelCountMetric>(kind, "fpr");
    case MetricKind::kFalseNegativeRate:
      return std::make_unique<LabelCountMetric>(kind, "fnr");
    case MetricKind::kFalseOmissionRate:
      return std::make_unique<PredictedValueRateMetric>(0, "for");
    case MetricKind::kFalseDiscoveryRate:
      return std::make_unique<PredictedValueRateMetric>(1, "fdr");
  }
  OF_CHECK(false) << "unknown metric kind";
  return nullptr;
}

std::unique_ptr<FairnessMetric> MakeMetricByName(const std::string& name) {
  if (name == "sp") return MakeMetric(MetricKind::kStatisticalParity);
  if (name == "mr") return MakeMetric(MetricKind::kMisclassificationRate);
  if (name == "fpr") return MakeMetric(MetricKind::kFalsePositiveRate);
  if (name == "fnr") return MakeMetric(MetricKind::kFalseNegativeRate);
  if (name == "for") return MakeMetric(MetricKind::kFalseOmissionRate);
  if (name == "fdr") return MakeMetric(MetricKind::kFalseDiscoveryRate);
  OF_CHECK(false) << "unknown metric name: " << name;
  return nullptr;
}

std::vector<std::string> MetricNames() {
  return {"sp", "mr", "fpr", "fnr", "for", "fdr"};
}

MetricCoefficients AverageErrorCostMetric::Coefficients(
    const Dataset& dataset, const std::vector<size_t>& group,
    const std::vector<int>*) const {
  // f = (C_fp * sum_{y=0}(1 - 1_i) + C_fn * sum_{y=1}(1 - 1_i)) / |g|
  //   => c_i = -C_fp/|g| (y=0), -C_fn/|g| (y=1),
  //      c0 = (C_fp*|{y=0}| + C_fn*|{y=1}|) / |g|.
  MetricCoefficients out;
  if (group.empty()) return out;  // empty-group convention: contributes 0
  const double size = static_cast<double>(group.size());
  out.c.resize(group.size());
  size_t negatives = 0;
  for (size_t k = 0; k < group.size(); ++k) {
    if (dataset.Label(group[k]) == 0) {
      out.c[k] = -cost_fp_ / size;
      ++negatives;
    } else {
      out.c[k] = -cost_fn_ / size;
    }
  }
  const double positives = size - static_cast<double>(negatives);
  out.c0 = (cost_fp_ * static_cast<double>(negatives) + cost_fn_ * positives) / size;
  return out;
}

}  // namespace omnifair
