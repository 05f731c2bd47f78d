#ifndef OMNIFAIR_ML_LOGISTIC_REGRESSION_H_
#define OMNIFAIR_ML_LOGISTIC_REGRESSION_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace omnifair {

/// Hyperparameters for weighted logistic regression.
struct LogisticRegressionOptions {
  /// L2 regularization strength on the non-intercept coefficients.
  double l2 = 1e-4;
  /// Maximum Newton iterations per fit (scikit-learn's max_iter default).
  /// Each iteration is one pass over the rows; a rejected step counts too.
  int max_iterations = 100;
  /// Convergence threshold on the gradient's infinity norm. The default
  /// matches scikit-learn's working precision: accuracy stops changing well
  /// before 1e-4, and a reachable threshold is what lets warm starts
  /// (initializing near the optimum) actually save iterations.
  double tolerance = 1e-4;
  /// Divergence recovery (DESIGN.md §8): when the loss or gradient goes
  /// non-finite, training rolls back to the last finite checkpoint with a
  /// halved Newton step, at most this many times before giving up and
  /// returning the checkpoint model.
  int max_divergence_retries = 3;
};

/// A trained logistic regression model: p(y=1|x) = sigmoid(w.x + b).
class LogisticRegressionModel : public Classifier {
 public:
  LogisticRegressionModel(std::vector<double> coefficients, double intercept);

  std::vector<double> PredictProba(const Matrix& X) const override;
  std::string Name() const override { return "logistic_regression"; }

  const std::vector<double>& coefficients() const { return coefficients_; }
  double intercept() const { return intercept_; }

 private:
  std::vector<double> coefficients_;
  double intercept_;
};

/// Weighted logistic regression trained by damped Newton's method — the
/// second-order solver family of scikit-learn's LogisticRegression, which
/// the paper runs on. Each iteration is one serial pass over X that
/// accumulates the weighted loss, gradient and (d+1)² Hessian on the simd
/// kernels; a Cholesky solve gives the step, which is halved only when the
/// full step raises the loss. Supports warm starts: when enabled, each Fit
/// starts Newton from the previous solution, which is the Table 6
/// optimization in the paper (1.2-3.4x speedups when Algorithm 1 retrains
/// across nearby lambda values).
class LogisticRegressionTrainer : public Trainer {
 public:
  explicit LogisticRegressionTrainer(LogisticRegressionOptions options = {});

  std::unique_ptr<Classifier> Fit(const Matrix& X, const std::vector<int>& y,
                                  const std::vector<double>& weights) override;
  using Trainer::Fit;

  std::string Name() const override { return "logistic_regression"; }
  std::unique_ptr<Trainer> Clone() const override {
    return std::make_unique<LogisticRegressionTrainer>(options_);
  }
  bool SupportsWarmStart() const override { return true; }
  void SetWarmStart(bool enabled) override { warm_start_ = enabled; }
  void ResetWarmStart() override { warm_theta_.clear(); }

  /// Total Newton iterations across all Fit calls (for the warm start
  /// speedup accounting in bench_table6).
  long long total_iterations() const { return total_iterations_; }

 private:
  LogisticRegressionOptions options_;
  bool warm_start_ = false;
  std::vector<double> warm_theta_;  // coefficients + intercept (last slot)
  long long total_iterations_ = 0;
};

}  // namespace omnifair

#endif  // OMNIFAIR_ML_LOGISTIC_REGRESSION_H_
