#include "baselines/zafar.h"

#include <cmath>

#include "core/problem.h"
#include "linalg/vector_ops.h"
#include "ml/logistic_regression.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace omnifair {
namespace {

/// Penalized objective: mean logistic loss + mu * cov(z, theta.x)^2 + L2,
/// where z is the centered group indicator (+1 group1, -1 group2, 0 outside).
double PenalizedLoss(const Matrix& X, const std::vector<int>& y,
                     const std::vector<double>& zc, double mu,
                     const std::vector<double>& theta, double l2) {
  const size_t n = X.rows();
  const size_t d = X.cols();
  double loss = 0.0;
  double cov = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const float* row = X.RowF(i);
    double margin = theta[d];
    for (size_t c = 0; c < d; ++c) margin += row[c] * theta[c];
    cov += zc[i] * margin;
    loss += Log1pExp(margin) - (y[i] == 1 ? margin : 0.0);
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  loss *= inv_n;
  cov *= inv_n;
  loss += mu * cov * cov;
  for (size_t c = 0; c < d; ++c) loss += 0.5 * l2 * theta[c] * theta[c];
  return loss;
}

/// Gradient descent with backtracking line search on PenalizedLoss.
std::unique_ptr<Classifier> FitCovariancePenalized(const Matrix& X,
                                                   const std::vector<int>& y,
                                                   const std::vector<double>& z,
                                                   double mu, int max_iterations) {
  const size_t n = X.rows();
  const size_t d = X.cols();
  std::vector<double> theta(d + 1, 0.0);
  std::vector<double> grad(d + 1, 0.0);
  std::vector<double> candidate(d + 1, 0.0);
  const double l2 = 1e-4;

  const double z_mean = Mean(z);
  std::vector<double> zc(n);
  for (size_t i = 0; i < n; ++i) zc[i] = z[i] - z_mean;

  double step = 0.5;
  double loss = PenalizedLoss(X, y, zc, mu, theta, l2);
  for (int iter = 0; iter < max_iterations; ++iter) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double cov = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const float* row = X.RowF(i);
      double margin = theta[d];
      for (size_t c = 0; c < d; ++c) margin += row[c] * theta[c];
      cov += zc[i] * margin;
      const double residual = Sigmoid(margin) - (y[i] == 1 ? 1.0 : 0.0);
      for (size_t c = 0; c < d; ++c) grad[c] += residual * row[c];
      grad[d] += residual;
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    cov *= inv_n;
    // d/dtheta [mu * cov^2] = 2 mu cov * (1/n) sum zc_i * x_i; the common
    // 1/n factor is applied with the loss gradient below.
    const double cov_scale = 2.0 * mu * cov;
    for (size_t i = 0; i < n && mu > 0.0; ++i) {
      const float* row = X.RowF(i);
      for (size_t c = 0; c < d; ++c) grad[c] += cov_scale * zc[i] * row[c];
      grad[d] += cov_scale * zc[i];
    }
    double max_abs = 0.0;
    for (size_t c = 0; c <= d; ++c) {
      grad[c] *= inv_n;
      if (c < d) grad[c] += l2 * theta[c];
      max_abs = std::max(max_abs, std::fabs(grad[c]));
    }
    if (max_abs < 1e-6) break;

    bool accepted = false;
    for (int attempt = 0; attempt < 30; ++attempt) {
      for (size_t c = 0; c <= d; ++c) candidate[c] = theta[c] - step * grad[c];
      const double candidate_loss = PenalizedLoss(X, y, zc, mu, candidate, l2);
      if (candidate_loss <= loss) {
        theta.swap(candidate);
        loss = candidate_loss;
        step = std::min(step * 1.25, 16.0);
        accepted = true;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) break;
  }

  const double intercept = theta[d];
  theta.resize(d);
  return std::make_unique<LogisticRegressionModel>(std::move(theta), intercept);
}

}  // namespace

bool ZafarCovariance::SupportsMetric(const FairnessMetric& metric) const {
  // The covariance proxy targets decision-rate disparities: SP and MR.
  return metric.Name() == "sp" || metric.Name() == "mr";
}

bool ZafarCovariance::SupportsTrainer(const Trainer& trainer) const {
  return trainer.Name() == "logistic_regression";
}

Result<BaselineResult> ZafarCovariance::Train(const Dataset& train, const Dataset& val,
                                              Trainer* trainer,
                                              const FairnessSpec& spec) {
  if (!SupportsMetric(*spec.metric)) {
    return Status::Unsupported("Zafar does not support metric " + spec.metric->Name());
  }
  if (trainer != nullptr && !SupportsTrainer(*trainer)) {
    return Status::Unsupported(
        "Zafar only works for decision-boundary classifiers (LR)");
  }
  Stopwatch stopwatch;
  // The problem object provides encoding + evaluation; fitting is custom.
  LogisticRegressionTrainer lr_trainer;
  Result<std::unique_ptr<FairnessProblem>> problem =
      FairnessProblem::Create(train, val, {spec}, &lr_trainer);
  if (!problem.ok()) return problem.status();
  if ((*problem)->NumConstraints() != 1) {
    return Status::Unsupported("Zafar handles a single pairwise constraint");
  }

  // Group indicator z from the constraint's two groups on the train split.
  const ConstraintEvaluator& train_eval = (*problem)->train_evaluator();
  std::vector<double> z((*problem)->train().NumRows(), 0.0);
  for (size_t i : train_eval.Group1(0)) z[i] = 1.0;
  for (size_t i : train_eval.Group2(0)) z[i] -= 1.0;

  BaselineResult result;
  result.encoder = (*problem)->encoder();
  double best_accuracy = -1.0;
  int models_trained = 0;
  const double mus[] = {0.0,   1.0,   2.0,    5.0,    10.0,  20.0,  50.0,
                        100.0, 200.0, 400.0, 700.0, 1000.0, 2500.0, 6000.0};
  for (double mu : mus) {
    std::unique_ptr<Classifier> model =
        FitCovariancePenalized((*problem)->train_features(),
                               (*problem)->train().labels(), z, mu,
                               /*max_iterations=*/250);
    ++models_trained;
    const std::vector<int> val_preds = (*problem)->PredictVal(*model);
    const bool satisfied = (*problem)->val_evaluator().MaxViolation(val_preds) <= 1e-12;
    const double accuracy = (*problem)->ValAccuracy(val_preds);
    if (satisfied && accuracy > best_accuracy) {
      best_accuracy = accuracy;
      result.model = std::move(model);
      result.satisfied = true;
      result.val_accuracy = accuracy;
      result.val_fairness_parts = (*problem)->val_evaluator().FairnessParts(val_preds);
    } else if (result.model == nullptr) {
      result.model = std::move(model);
      result.val_accuracy = accuracy;
      result.val_fairness_parts = (*problem)->val_evaluator().FairnessParts(val_preds);
    }
  }
  result.models_trained = models_trained;
  result.train_seconds = stopwatch.ElapsedSeconds();
  return result;
}

}  // namespace omnifair
