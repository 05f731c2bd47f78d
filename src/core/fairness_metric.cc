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

/// Statistical parity, f = P(h=1) (Example 3, Equation 8):
/// c_i = +1/|g| when y=1, -1/|g| when y=0, c0 = |{y=0}|/|g|.
class StatisticalParityMetric : public FairnessMetric {
 public:
  std::string Name() const override { return "sp"; }
  MetricCoefficients Coefficients(const Dataset& dataset,
                                  const std::vector<size_t>& group,
                                  const std::vector<int>*) const override {
    MetricCoefficients out;
    // Empty-group convention (DESIGN.md §8): the metric contributes 0, so
    // the constraint is skipped instead of dividing by zero.
    if (group.empty()) return out;
    const double size = static_cast<double>(group.size());
    out.c.resize(group.size());
    for (size_t k = 0; k < group.size(); ++k) {
      out.c[k] = dataset.Label(group[k]) == 1 ? 1.0 / size : -1.0 / size;
    }
    out.c0 = static_cast<double>(CountLabel(dataset, group, 0)) / size;
    return out;
  }
};

/// Misclassification rate parity expressed as accuracy (Appendix A, Eq. 25):
/// f = P(h=y), c_i = 1/|g|, c0 = 0. Equal accuracy <=> equal MR.
class MisclassificationRateMetric : public FairnessMetric {
 public:
  std::string Name() const override { return "mr"; }
  MetricCoefficients Coefficients(const Dataset&, const std::vector<size_t>& group,
                                  const std::vector<int>*) const override {
    MetricCoefficients out;
    if (group.empty()) return out;  // empty-group convention: contributes 0
    const double size = static_cast<double>(group.size());
    out.c.assign(group.size(), 1.0 / size);
    out.c0 = 0.0;
    return out;
  }
};

/// FPR = P(h=1 | y=0) = 1 - (1/|y=0|) * sum_{y_i=0} 1(h=y):
/// c_i = -1/|{y=0}| for y_i=0, 0 otherwise, c0 = 1.
/// (Table 2 lists the sign-flipped TNR variant; disparities coincide.)
class FalsePositiveRateMetric : public FairnessMetric {
 public:
  std::string Name() const override { return "fpr"; }
  MetricCoefficients Coefficients(const Dataset& dataset,
                                  const std::vector<size_t>& group,
                                  const std::vector<int>*) const override {
    MetricCoefficients out;
    const size_t negatives = CountLabel(dataset, group, 0);
    out.c.resize(group.size(), 0.0);
    if (negatives == 0) return out;  // FPR undefined; metric contributes 0
    const double coef = -1.0 / static_cast<double>(negatives);
    for (size_t k = 0; k < group.size(); ++k) {
      if (dataset.Label(group[k]) == 0) out.c[k] = coef;
    }
    out.c0 = 1.0;
    return out;
  }
};

/// FNR = P(h=0 | y=1): c_i = -1/|{y=1}| for y_i=1, 0 otherwise, c0 = 1.
class FalseNegativeRateMetric : public FairnessMetric {
 public:
  std::string Name() const override { return "fnr"; }
  MetricCoefficients Coefficients(const Dataset& dataset,
                                  const std::vector<size_t>& group,
                                  const std::vector<int>*) const override {
    MetricCoefficients out;
    const size_t positives = CountLabel(dataset, group, 1);
    out.c.resize(group.size(), 0.0);
    if (positives == 0) return out;
    const double coef = -1.0 / static_cast<double>(positives);
    for (size_t k = 0; k < group.size(); ++k) {
      if (dataset.Label(group[k]) == 1) out.c[k] = coef;
    }
    out.c0 = 1.0;
    return out;
  }
};

/// FOR = P(y=1 | h=0) (Appendix A, Eq. 26): prediction-parameterized.
/// c_i = -1/|{h=0}| for y_i=0, 0 otherwise, c0 = 1. Only rows with h=0 and
/// y=0 score 1(h=y)=1 among y_i=0 rows, so the identity recovers
/// 1 - TN/|{h=0}| = FOR.
class FalseOmissionRateMetric : public FairnessMetric {
 public:
  std::string Name() const override { return "for"; }
  bool DependsOnPredictions() const override { return true; }
  MetricCoefficients Coefficients(const Dataset& dataset,
                                  const std::vector<size_t>& group,
                                  const std::vector<int>* predictions) const override {
    OF_CHECK(predictions != nullptr) << "FOR requires predictions";
    MetricCoefficients out;
    const size_t predicted_negative = CountPrediction(*predictions, group, 0);
    out.c.resize(group.size(), 0.0);
    if (predicted_negative == 0) return out;
    const double coef = -1.0 / static_cast<double>(predicted_negative);
    for (size_t k = 0; k < group.size(); ++k) {
      if (dataset.Label(group[k]) == 0) out.c[k] = coef;
    }
    out.c0 = 1.0;
    return out;
  }
};

/// FDR = P(y=0 | h=1): prediction-parameterized.
/// c_i = -1/|{h=1}| for y_i=1, 0 otherwise, c0 = 1.
class FalseDiscoveryRateMetric : public FairnessMetric {
 public:
  std::string Name() const override { return "fdr"; }
  bool DependsOnPredictions() const override { return true; }
  MetricCoefficients Coefficients(const Dataset& dataset,
                                  const std::vector<size_t>& group,
                                  const std::vector<int>* predictions) const override {
    OF_CHECK(predictions != nullptr) << "FDR requires predictions";
    MetricCoefficients out;
    const size_t predicted_positive = CountPrediction(*predictions, group, 1);
    out.c.resize(group.size(), 0.0);
    if (predicted_positive == 0) return out;
    const double coef = -1.0 / static_cast<double>(predicted_positive);
    for (size_t k = 0; k < group.size(); ++k) {
      if (dataset.Label(group[k]) == 1) out.c[k] = coef;
    }
    out.c0 = 1.0;
    return out;
  }
};

}  // namespace

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
      return std::make_unique<StatisticalParityMetric>();
    case MetricKind::kMisclassificationRate:
      return std::make_unique<MisclassificationRateMetric>();
    case MetricKind::kFalsePositiveRate:
      return std::make_unique<FalsePositiveRateMetric>();
    case MetricKind::kFalseNegativeRate:
      return std::make_unique<FalseNegativeRateMetric>();
    case MetricKind::kFalseOmissionRate:
      return std::make_unique<FalseOmissionRateMetric>();
    case MetricKind::kFalseDiscoveryRate:
      return std::make_unique<FalseDiscoveryRateMetric>();
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
