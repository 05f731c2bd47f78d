#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>

#include "linalg/vector_ops.h"
#include "util/logging.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omnifair {

NaiveBayesModel::NaiveBayesModel(double log_prior_ratio, std::vector<double> mean0,
                                 std::vector<double> mean1, std::vector<double> var0,
                                 std::vector<double> var1)
    : log_prior_ratio_(log_prior_ratio),
      mean0_(std::move(mean0)),
      mean1_(std::move(mean1)),
      var0_(std::move(var0)),
      var1_(std::move(var1)) {}

std::vector<double> NaiveBayesModel::PredictProba(const Matrix& X) const {
  OF_CHECK_EQ(X.cols(), mean0_.size());
  std::vector<double> proba(X.rows());
  for (size_t i = 0; i < X.rows(); ++i) {
    // log P(y=1|x) - log P(y=0|x) under the independence assumption.
    double log_odds = log_prior_ratio_;
    for (size_t c = 0; c < mean0_.size(); ++c) {
      const double x = X(i, c);
      const double d1 = x - mean1_[c];
      const double d0 = x - mean0_[c];
      log_odds += -0.5 * std::log(var1_[c]) - 0.5 * d1 * d1 / var1_[c];
      log_odds -= -0.5 * std::log(var0_[c]) - 0.5 * d0 * d0 / var0_[c];
    }
    proba[i] = Sigmoid(log_odds);
  }
  return proba;
}

NaiveBayesTrainer::NaiveBayesTrainer(NaiveBayesOptions options) : options_(options) {}

std::unique_ptr<Classifier> NaiveBayesTrainer::Fit(const Matrix& X,
                                                   const std::vector<int>& y,
                                                   const std::vector<double>& weights) {
  OF_CHECK_EQ(X.rows(), y.size());
  OF_CHECK_EQ(X.rows(), weights.size());
  OF_TRACE_SPAN("fit/nb");
  OF_SCOPED_LATENCY_US("ml.fit_us.nb");
  const size_t n = X.rows();
  const size_t d = X.cols();

  double w0 = 0.0;
  double w1 = 0.0;
  std::vector<double> mean0(d, 0.0);
  std::vector<double> mean1(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double>& mean = y[i] == 1 ? mean1 : mean0;
    (y[i] == 1 ? w1 : w0) += weights[i];
    for (size_t c = 0; c < d; ++c) mean[c] += weights[i] * X(i, c);
  }
  // Degenerate weighted classes: fall back to an uninformative prior.
  const double tiny = 1e-12;
  for (size_t c = 0; c < d; ++c) {
    mean0[c] = w0 > tiny ? mean0[c] / w0 : 0.0;
    mean1[c] = w1 > tiny ? mean1[c] / w1 : 0.0;
  }

  std::vector<double> var0(d, 0.0);
  std::vector<double> var1(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double>& mean = y[i] == 1 ? mean1 : mean0;
    std::vector<double>& var = y[i] == 1 ? var1 : var0;
    for (size_t c = 0; c < d; ++c) {
      const double diff = X(i, c) - mean[c];
      var[c] += weights[i] * diff * diff;
    }
  }
  double max_variance = 0.0;
  for (size_t c = 0; c < d; ++c) {
    var0[c] = w0 > tiny ? var0[c] / w0 : 1.0;
    var1[c] = w1 > tiny ? var1[c] / w1 : 1.0;
    max_variance = std::max({max_variance, var0[c], var1[c]});
  }
  const double floor =
      std::max(options_.variance_smoothing * std::max(max_variance, 1.0), 1e-12);
  for (size_t c = 0; c < d; ++c) {
    var0[c] = std::max(var0[c], floor);
    var1[c] = std::max(var1[c], floor);
  }

  const double prior1 = std::clamp(w1 / std::max(w0 + w1, tiny), 1e-9, 1.0 - 1e-9);
  const double log_prior_ratio = std::log(prior1 / (1.0 - prior1));
  return std::make_unique<NaiveBayesModel>(log_prior_ratio, std::move(mean0),
                                           std::move(mean1), std::move(var0),
                                           std::move(var1));
}

}  // namespace omnifair
