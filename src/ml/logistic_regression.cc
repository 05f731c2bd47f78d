#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/simd.h"
#include "linalg/vector_ops.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omnifair {
namespace {

/// Weighted negative log-likelihood + L2, with theta = [w..., b]. `margins`
/// is caller-owned scratch of size n — the full-batch z = X w computed in one
/// MatVecInto (simd kernels, no per-call allocation).
double Loss(const Matrix& X, const std::vector<int>& y,
            const std::vector<double>& weights, const std::vector<double>& theta,
            double l2, std::vector<double>* margins) {
  const size_t n = X.rows();
  const size_t d = X.cols();
  margins->resize(n);
  X.MatVecInto(theta.data(), margins->data());
  const double bias = theta[d];
  double loss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double z = (*margins)[i] + bias;
    // -log p(y_i | x_i) = log(1+exp(z)) - y*z.
    loss += weights[i] * (Log1pExp(z) - (y[i] == 1 ? z : 0.0));
  }
  loss /= static_cast<double>(n);
  for (size_t c = 0; c < d; ++c) loss += 0.5 * l2 * theta[c] * theta[c];
  return loss;
}

/// Gradient of Loss w.r.t. theta; returns infinity norm. `margins` is the
/// same caller-owned scratch as Loss's: it holds z, then sigmoid(z), then the
/// weighted residuals that feed the X^T product.
double Gradient(const Matrix& X, const std::vector<int>& y,
                const std::vector<double>& weights, const std::vector<double>& theta,
                double l2, std::vector<double>* grad, std::vector<double>* margins) {
  const size_t n = X.rows();
  const size_t d = X.cols();
  margins->resize(n);
  X.MatVecInto(theta.data(), margins->data());
  double* residual = margins->data();
  const double bias = theta[d];
  for (size_t i = 0; i < n; ++i) residual[i] += bias;
  SigmoidInPlace(residual, n);
  for (size_t i = 0; i < n; ++i) {
    residual[i] = weights[i] * (residual[i] - (y[i] == 1 ? 1.0 : 0.0));
  }
  X.TransposeMatVecInto(residual, grad->data());
  (*grad)[d] = 0.0;
  for (size_t i = 0; i < n; ++i) (*grad)[d] += residual[i];
  const double inv_n = 1.0 / static_cast<double>(n);
  double max_abs = 0.0;
  for (size_t c = 0; c <= d; ++c) {
    (*grad)[c] *= inv_n;
    if (c < d) (*grad)[c] += l2 * theta[c];
    max_abs = std::max(max_abs, std::fabs((*grad)[c]));
  }
  return max_abs;
}

/// Weighted logistic loss and gradient over rows [begin, end) only,
/// accumulated row by row on the simd kernels (float32 rows widen per lane).
/// Writes the unnormalized gradient sum into `grad` and returns the
/// unnormalized weighted loss sum. Serial by design: mini-batch updates must
/// be bit-reproducible at any thread count.
double BatchLossGradient(const Matrix& X, const std::vector<int>& y,
                         const std::vector<double>& weights,
                         const std::vector<double>& theta, size_t begin,
                         size_t end, std::vector<double>* grad) {
  const size_t d = X.cols();
  const simd::Kernels& kernels = simd::Active();
  std::fill(grad->begin(), grad->end(), 0.0);
  double* g = grad->data();
  const double bias = theta[d];
  double loss = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const float* row = X.RowF(i);
    const double z = bias + kernels.dot_f32(row, theta.data(), d);
    const double target = y[i] == 1 ? 1.0 : 0.0;
    loss += weights[i] * (Log1pExp(z) - target * z);
    const double residual = weights[i] * (Sigmoid(z) - target);
    if (residual != 0.0) {
      kernels.axpy_f32(residual, row, g, d);
      g[d] += residual;
    }
  }
  return loss;
}

}  // namespace

LogisticRegressionModel::LogisticRegressionModel(std::vector<double> coefficients,
                                                 double intercept)
    : coefficients_(std::move(coefficients)), intercept_(intercept) {}

std::vector<double> LogisticRegressionModel::PredictProba(const Matrix& X) const {
  OF_CHECK_EQ(X.cols(), coefficients_.size());
  // Fused batch predict: the margins land straight in the output buffer (one
  // simd matvec), then one batched sigmoid pass.
  std::vector<double> proba(X.rows());
  X.MatVecInto(coefficients_.data(), proba.data());
  for (double& p : proba) p += intercept_;
  SigmoidInPlace(&proba);
  return proba;
}

LogisticRegressionTrainer::LogisticRegressionTrainer(LogisticRegressionOptions options)
    : options_(options) {}

std::unique_ptr<Classifier> LogisticRegressionTrainer::Fit(
    const Matrix& X, const std::vector<int>& y, const std::vector<double>& weights) {
  OF_CHECK_EQ(X.rows(), y.size());
  OF_CHECK_EQ(X.rows(), weights.size());
  if (options_.batch_size > 0) return FitMiniBatch(X, y, weights);
  OF_TRACE_SPAN("fit/lr");
  OF_SCOPED_LATENCY_US("ml.fit_us.lr");
  const size_t d = X.cols();

  std::vector<double> theta(d + 1, 0.0);
  if (warm_start_ && warm_theta_.size() == d + 1) theta = warm_theta_;

  std::vector<double> grad(d + 1, 0.0);
  std::vector<double> candidate(d + 1, 0.0);
  std::vector<double> margins(X.rows(), 0.0);  // shared z/residual scratch
  double step = options_.learning_rate;
  double loss = Loss(X, y, weights, theta, options_.l2, &margins);
  if (!std::isfinite(loss) && warm_start_) {
    // A pathological warm start (e.g. from a diverged previous fit) can put
    // the initial loss out of range; restart from zero instead.
    std::fill(theta.begin(), theta.end(), 0.0);
    loss = Loss(X, y, weights, theta, options_.l2, &margins);
  }
  if (!std::isfinite(loss)) {
    // Even theta = 0 overflows: the data/weights themselves are degenerate.
    OF_LOG(Warning) << "logistic regression: non-finite loss at theta=0; "
                       "returning the zero-coefficient model";
    return std::make_unique<LogisticRegressionModel>(std::vector<double>(d, 0.0), 0.0);
  }

  // Divergence recovery (DESIGN.md §8): `checkpoint` is the last theta whose
  // loss was finite; on a non-finite loss/gradient we roll back to it with a
  // halved learning rate, up to max_divergence_retries times.
  std::vector<double> checkpoint = theta;
  double checkpoint_loss = loss;
  int retries = 0;

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    ++total_iterations_;
    const double grad_norm =
        Gradient(X, y, weights, theta, options_.l2, &grad, &margins);
    const bool diverged = !std::isfinite(loss) || !std::isfinite(grad_norm) ||
                          FaultInjector::ShouldFail(fault_sites::kLrDescend);
    if (diverged) {
      if (retries >= options_.max_divergence_retries) {
        OF_LOG(Warning) << "logistic regression: divergence persisted after "
                        << retries << " retries; returning last checkpoint";
        theta = checkpoint;
        break;
      }
      ++retries;
      CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
      OF_LOG(Warning) << "logistic regression: non-finite loss/gradient at "
                         "iteration "
                      << iter << "; backing off (retry " << retries << ")";
      theta = checkpoint;
      loss = checkpoint_loss;
      step = options_.learning_rate * std::pow(0.5, retries);
      continue;
    }
    if (grad_norm < options_.tolerance) break;

    // Backtracking line search on the full-batch loss.
    bool accepted = false;
    for (int attempt = 0; attempt < 30; ++attempt) {
      for (size_t c = 0; c <= d; ++c) candidate[c] = theta[c] - step * grad[c];
      const double candidate_loss =
          Loss(X, y, weights, candidate, options_.l2, &margins);
      if (candidate_loss <= loss) {
        theta.swap(candidate);
        loss = candidate_loss;
        accepted = true;
        // Gently expand the step after success to speed convergence.
        step = std::min(step * 1.25, 64.0);
        break;
      }
      step *= 0.5;
    }
    if (!accepted) break;  // step underflow: converged to numeric precision
    if (std::isfinite(loss)) {
      checkpoint = theta;
      checkpoint_loss = loss;
    }
  }

  if (warm_start_) warm_theta_ = theta;
  const double intercept = theta[d];
  theta.resize(d);
  return std::make_unique<LogisticRegressionModel>(std::move(theta), intercept);
}

std::unique_ptr<Classifier> LogisticRegressionTrainer::FitMiniBatch(
    const Matrix& X, const std::vector<int>& y, const std::vector<double>& weights) {
  OF_TRACE_SPAN("fit/lr_sgd");
  OF_SCOPED_LATENCY_US("ml.fit_us.lr");
  const size_t n = X.rows();
  const size_t d = X.cols();
  const size_t batch = std::min(options_.batch_size, n);
  const size_t num_batches = batch > 0 ? (n + batch - 1) / batch : 0;

  std::vector<double> theta(d + 1, 0.0);
  const bool warm_usable =
      warm_start_ && warm_theta_.size() == d + 1 &&
      std::all_of(warm_theta_.begin(), warm_theta_.end(),
                  [](double value) { return std::isfinite(value); });
  if (warm_usable) theta = warm_theta_;
  if (n == 0 || num_batches == 0) {
    return std::make_unique<LogisticRegressionModel>(std::vector<double>(d, 0.0), 0.0);
  }

  std::vector<double> grad(d + 1, 0.0);
  Rng shuffle_rng(options_.shuffle_seed);

  // Same recovery contract as the full-batch loop (DESIGN.md §8): the
  // checkpoint is the last end-of-epoch theta whose running loss (which,
  // through the L2 term, also covers theta itself) was finite; a non-finite
  // epoch rolls back to it with a halved learning rate.
  std::vector<double> checkpoint = theta;
  double learning_rate = options_.learning_rate;
  int retries = 0;
  double previous_loss = std::numeric_limits<double>::infinity();
  long long global_batch = 0;  // drives the kInvSqrt decay across epochs

  for (int epoch = 1; epoch <= options_.epochs; ++epoch) {
    // Deterministic per-epoch batch order: one sequential draw per epoch from
    // a single seeded stream, independent of thread count.
    const std::vector<size_t> order = shuffle_rng.Permutation(num_batches);
    double epoch_loss = 0.0;
    for (size_t b : order) {
      const size_t begin = b * batch;
      const size_t end = std::min(n, begin + batch);
      epoch_loss += BatchLossGradient(X, y, weights, theta, begin, end, &grad);
      ++global_batch;
      ++total_iterations_;
      double step = learning_rate;
      if (options_.lr_schedule == LrSchedule::kInvSqrt) {
        step /= std::sqrt(static_cast<double>(global_batch));
      }
      const double inv_rows = 1.0 / static_cast<double>(end - begin);
      for (size_t c = 0; c < d; ++c) {
        theta[c] -= step * (grad[c] * inv_rows + options_.l2 * theta[c]);
      }
      theta[d] -= step * grad[d] * inv_rows;
    }
    OF_COUNTER_ADD("sgd.batches", static_cast<long long>(order.size()));
    OF_COUNTER_INC("sgd.epochs");
    epoch_loss /= static_cast<double>(n);
    for (size_t c = 0; c < d; ++c) {
      epoch_loss += 0.5 * options_.l2 * theta[c] * theta[c];
    }

    const bool diverged = !std::isfinite(epoch_loss) ||
                          FaultInjector::ShouldFail(fault_sites::kLrDescend);
    if (diverged) {
      if (retries >= options_.max_divergence_retries) {
        OF_LOG(Warning) << "logistic regression (sgd): divergence persisted "
                           "after "
                        << retries << " retries; returning last checkpoint";
        theta = checkpoint;
        break;
      }
      ++retries;
      CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
      OF_LOG(Warning) << "logistic regression (sgd): non-finite epoch loss at "
                         "epoch "
                      << epoch << "; backing off (retry " << retries << ")";
      theta = checkpoint;
      learning_rate *= 0.5;
      previous_loss = std::numeric_limits<double>::infinity();
      continue;
    }
    checkpoint = theta;
    if (std::fabs(previous_loss - epoch_loss) <
        options_.tolerance * std::max(1.0, std::fabs(previous_loss))) {
      break;
    }
    previous_loss = epoch_loss;
  }

  // The loop can only exit with non-finite theta if every epoch diverged and
  // retries ran out before a finite checkpoint existed; guard regardless.
  if (!std::all_of(theta.begin(), theta.end(),
                   [](double value) { return std::isfinite(value); })) {
    theta = checkpoint;
  }
  if (warm_start_) warm_theta_ = theta;
  const double intercept = theta[d];
  theta.resize(d);
  return std::make_unique<LogisticRegressionModel>(std::move(theta), intercept);
}

}  // namespace omnifair
