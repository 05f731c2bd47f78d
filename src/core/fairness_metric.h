#ifndef OMNIFAIR_CORE_FAIRNESS_METRIC_H_
#define OMNIFAIR_CORE_FAIRNESS_METRIC_H_

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace omnifair {

/// The coefficients a declarative fairness metric returns (Definition 3):
///   f(h, g) = sum_i c[i] * 1(h(x_i) = y_i) + c0,
/// where c is aligned with the group's member-index list.
struct MetricCoefficients {
  std::vector<double> c;
  double c0 = 0.0;
};

/// A declarative fairness metric function f (§4.2). Implementations only
/// specify coefficients; everything else (weight derivation, evaluation,
/// tuning) is generic. For prediction-parameterized metrics (FOR, FDR) the
/// coefficients depend on h(x) and `predictions` must be supplied.
class FairnessMetric {
 public:
  virtual ~FairnessMetric() = default;

  virtual std::string Name() const = 0;

  /// Coefficients for the rows in `group` (indices into `dataset`).
  /// `predictions` covers ALL dataset rows; may be nullptr iff
  /// !DependsOnPredictions().
  virtual MetricCoefficients Coefficients(const Dataset& dataset,
                                          const std::vector<size_t>& group,
                                          const std::vector<int>* predictions) const = 0;

  /// True for metrics whose coefficients are parameterized by h(x)
  /// (FOR/FDR — the w_i(lambda, h_theta) rows of Table 3).
  virtual bool DependsOnPredictions() const { return false; }

  /// Evaluates f(h, g) via the Definition 3 identity using the coefficients.
  double Evaluate(const Dataset& dataset, const std::vector<size_t>& group,
                  const std::vector<int>& predictions) const;
};

/// Built-in group fairness metrics of §3.2. The returned coefficients follow
/// the paper's Table 2 / Appendix A derivations, adjusted where needed so
/// that Evaluate() returns the *true named rate* (e.g. FPR itself rather
/// than the sign-flipped 1-FPR the table lists); pairwise disparities
/// |f(g_i) - f(g_j)| are identical either way, and Algorithm 1 normalizes
/// the sign before tuning.
enum class MetricKind {
  kStatisticalParity,      ///< f = P(h=1)
  kMisclassificationRate,  ///< f = P(h=y) (accuracy parity)
  kFalsePositiveRate,      ///< f = P(h=1 | y=0)
  kFalseNegativeRate,      ///< f = P(h=0 | y=1)
  kFalseOmissionRate,      ///< f = P(y=1 | h=0), prediction-parameterized
  kFalseDiscoveryRate,     ///< f = P(y=0 | h=1), prediction-parameterized
};

/// Factory for the built-in metrics.
std::unique_ptr<FairnessMetric> MakeMetric(MetricKind kind);

/// Definition 3 coefficients of a prediction-independent built-in metric
/// (SP / MR / FPR / FNR) on one group: a row with label y gets c[y], so
///   f(h, g) = c0 + c[0] * #{h=0, y=0} + c[1] * #{h=1, y=1}.
struct LabelCoefficients {
  std::array<double, 2> c = {0.0, 0.0};
  double c0 = 0.0;
};

/// The SP / MR / FPR / FNR formulas, from the group's label counts. An
/// empty group (SP, MR) or an undefined rate (FPR without negatives, FNR
/// without positives) gives all zeros: the metric contributes 0 (DESIGN.md
/// §8). Aborts for the prediction-parameterized FOR / FDR.
LabelCoefficients LabelCoefficientsOf(MetricKind kind, size_t negatives,
                                      size_t positives);

/// The kind with short name "sp", "mr", "fpr", "fnr", "for" or "fdr"; false
/// for any other name.
bool MetricKindByName(const std::string& name, MetricKind* kind);

/// Factory by short name (MetricKindByName). Aborts on unknown names
/// (programmer error); callers holding user input check it against
/// MetricNames() first.
std::unique_ptr<FairnessMetric> MakeMetricByName(const std::string& name);

/// Every name MakeMetricByName accepts.
std::vector<std::string> MetricNames();

/// The customized Average Error Cost metric of Example 4 / Appendix A:
///   f(h,g) = (C_fp * #FP + C_fn * #FN) / |g|.
/// Demonstrates constraint customization — no tuning code changes needed.
class AverageErrorCostMetric : public FairnessMetric {
 public:
  AverageErrorCostMetric(double cost_fp, double cost_fn)
      : cost_fp_(cost_fp), cost_fn_(cost_fn) {}

  std::string Name() const override { return "aec"; }
  MetricCoefficients Coefficients(const Dataset& dataset,
                                  const std::vector<size_t>& group,
                                  const std::vector<int>* predictions) const override;

 private:
  double cost_fp_;
  double cost_fn_;
};

/// Escape hatch for fully custom metrics: wraps a user callable that
/// produces coefficients (the programmatic equivalent of Figure 1's
/// fairness_metric code box).
class LambdaMetric : public FairnessMetric {
 public:
  using CoefficientFn = std::function<MetricCoefficients(
      const Dataset&, const std::vector<size_t>&, const std::vector<int>*)>;

  LambdaMetric(std::string name, CoefficientFn fn, bool depends_on_predictions)
      : name_(std::move(name)),
        fn_(std::move(fn)),
        depends_on_predictions_(depends_on_predictions) {}

  std::string Name() const override { return name_; }
  bool DependsOnPredictions() const override { return depends_on_predictions_; }
  MetricCoefficients Coefficients(const Dataset& dataset,
                                  const std::vector<size_t>& group,
                                  const std::vector<int>* predictions) const override {
    return fn_(dataset, group, predictions);
  }

 private:
  std::string name_;
  CoefficientFn fn_;
  bool depends_on_predictions_;
};

}  // namespace omnifair

#endif  // OMNIFAIR_CORE_FAIRNESS_METRIC_H_
