#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "linalg/simd.h"
#include "linalg/vector_ops.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omnifair {
namespace {

/// Rows per Hessian tile. A tile holds sqrt(c_i) * [x_i, 1] for up to this
/// many rows, column-major, so each Hessian entry gains one simd dot of
/// length kTileRows per tile: (d+1) * kTileRows doubles of scratch (80 KiB at
/// d = 39) instead of an n x d double copy of X.
constexpr size_t kTileRows = 256;

/// Halvings of one Newton step before the fit stops at its checkpoint: a
/// descent direction that still raises the loss at 2^-30 of its length means
/// the loss has converged to rounding.
constexpr int kMaxStepHalvings = 30;

/// Weighted, L2-regularized logistic objective at one theta = [w..., b]:
///   loss = (1/n) sum_i w_i (log(1 + e^z_i) - y_i z_i) + (l2/2) |w|^2,
/// with its gradient and Hessian (row-major, (d+1)^2, symmetric).
struct NewtonPass {
  explicit NewtonPass(size_t d)
      : grad(d + 1), hessian((d + 1) * (d + 1)), tile((d + 1) * kTileRows) {}

  double loss = 0.0;
  double grad_norm = 0.0;  // infinity norm of grad
  std::vector<double> grad;
  std::vector<double> hessian;
  std::vector<double> tile;  // Hessian row tile, column-major
};

/// One serial pass over X evaluating loss, gradient and Hessian at theta.
/// Zero-weight rows contribute nothing and are skipped. Serial, so a fit is
/// bit-reproducible at any thread count.
void EvaluatePass(const Matrix& X, const std::vector<int>& y,
                  const std::vector<double>& weights,
                  const std::vector<double>& theta, double l2,
                  NewtonPass* pass) {
  const size_t n = X.rows();
  const size_t d = X.cols();
  const size_t dim = d + 1;
  const simd::Kernels& kernels = simd::Active();
  std::fill(pass->grad.begin(), pass->grad.end(), 0.0);
  std::fill(pass->hessian.begin(), pass->hessian.end(), 0.0);
  double* g = pass->grad.data();
  double* H = pass->hessian.data();
  double* tile = pass->tile.data();
  size_t filled = 0;
  // H += T^T T for the filled tile rows; lower triangle only.
  auto flush_tile = [&] {
    for (size_t j = 0; j < dim; ++j) {
      const double* col_j = tile + j * kTileRows;
      for (size_t k = 0; k <= j; ++k) {
        H[j * dim + k] += kernels.dot(col_j, tile + k * kTileRows, filled);
      }
    }
    filled = 0;
  };

  const double bias = theta[d];
  double loss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double w = weights[i];
    if (w == 0.0) continue;
    const float* row = X.RowF(i);
    const double z = bias + kernels.dot_f32(row, theta.data(), d);
    const double target = y[i] == 1 ? 1.0 : 0.0;
    loss += w * (Log1pExp(z) - target * z);
    const double p = Sigmoid(z);
    const double residual = w * (p - target);
    kernels.axpy_f32(residual, row, g, d);
    g[d] += residual;
    // Hessian weight w p (1 - p) >= 0, split as a square root over the two
    // factors of each tile dot.
    const double root = std::sqrt(w * p * (1.0 - p));
    for (size_t c = 0; c < d; ++c) tile[c * kTileRows + filled] = root * row[c];
    tile[d * kTileRows + filled] = root;
    if (++filled == kTileRows) flush_tile();
  }
  if (filled > 0) flush_tile();

  const double inv_n = 1.0 / static_cast<double>(n);
  pass->loss = loss * inv_n;
  pass->grad_norm = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    g[j] *= inv_n;
    for (size_t k = 0; k <= j; ++k) {
      H[j * dim + k] *= inv_n;
      H[k * dim + j] = H[j * dim + k];
    }
    if (j < d) {  // the intercept is not regularized
      pass->loss += 0.5 * l2 * theta[j] * theta[j];
      g[j] += l2 * theta[j];
      H[j * dim + j] += l2;
    }
    pass->grad_norm = std::max(pass->grad_norm, std::fabs(g[j]));
  }
}

/// Solves (H + jitter I) step = -grad by Cholesky. `H` is symmetric positive
/// semi-definite, but singular whenever the data pins no curvature on a
/// direction (l2 = 0 with separable or collinear features, an all-zero
/// column, all-zero weights). The diagonal jitter, 1e-10 * (1 + max_j H_jj),
/// keeps the factorization defined there: it is far below any real
/// curvature, so it never moves the optimum (the fixed point is still
/// grad = 0), and far above the rounding of H, so every pivot of a PSD H
/// stays at least half the jitter. Returns false when one does not, which
/// takes a non-finite or indefinite H (negative weights, outside the Trainer
/// contract).
bool SolveNewtonStep(const std::vector<double>& H, const std::vector<double>& grad,
                     std::vector<double>* chol, std::vector<double>* step) {
  const size_t dim = grad.size();
  double max_diagonal = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    max_diagonal = std::max(max_diagonal, H[j * dim + j]);
  }
  const double jitter = 1e-10 * (1.0 + max_diagonal);
  double* L = chol->data();
  for (size_t j = 0; j < dim; ++j) {
    double pivot = H[j * dim + j] + jitter;
    for (size_t k = 0; k < j; ++k) pivot -= L[j * dim + k] * L[j * dim + k];
    if (!(pivot >= 0.5 * jitter)) return false;
    const double diagonal = std::sqrt(pivot);
    L[j * dim + j] = diagonal;
    for (size_t i = j + 1; i < dim; ++i) {
      double value = H[i * dim + j];
      for (size_t k = 0; k < j; ++k) value -= L[i * dim + k] * L[j * dim + k];
      L[i * dim + j] = value / diagonal;
    }
  }
  // L u = -grad, then L^T step = u.
  double* s = step->data();
  for (size_t i = 0; i < dim; ++i) {
    double value = -grad[i];
    for (size_t k = 0; k < i; ++k) value -= L[i * dim + k] * s[k];
    s[i] = value / L[i * dim + i];
  }
  for (size_t i = dim; i-- > 0;) {
    double value = s[i];
    for (size_t k = i + 1; k < dim; ++k) value -= L[k * dim + i] * s[k];
    s[i] = value / L[i * dim + i];
  }
  return true;
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
  OF_TRACE_SPAN("fit/lr");
  OF_SCOPED_LATENCY_US("ml.fit_us.lr");
  const size_t d = X.cols();

  std::vector<double> theta(d + 1, 0.0);
  if (warm_start_ && warm_theta_.size() == d + 1) theta = warm_theta_;

  NewtonPass pass(d);
  EvaluatePass(X, y, weights, theta, options_.l2, &pass);
  if (!std::isfinite(pass.loss) && warm_start_) {
    // A pathological warm start (e.g. from a diverged previous fit) can put
    // the initial loss out of range; restart from zero instead.
    std::fill(theta.begin(), theta.end(), 0.0);
    EvaluatePass(X, y, weights, theta, options_.l2, &pass);
  }
  if (!std::isfinite(pass.loss)) {
    // Even theta = 0 overflows: the data/weights themselves are degenerate.
    OF_LOG(Warning) << "logistic regression: non-finite loss at theta=0; "
                       "returning the zero-coefficient model";
    return std::make_unique<LogisticRegressionModel>(std::vector<double>(d, 0.0), 0.0);
  }

  // `checkpoint` is the last accepted theta; `pass` always describes the
  // candidate checkpoint + scale * direction. Divergence recovery (DESIGN.md
  // §8): a non-finite loss/gradient rolls back to the checkpoint with a
  // halved Newton step, up to max_divergence_retries times.
  std::vector<double> checkpoint = theta;
  double checkpoint_loss = pass.loss;
  std::vector<double> direction(d + 1, 0.0);
  std::vector<double> chol((d + 1) * (d + 1), 0.0);
  double scale = 1.0;
  int halvings = 0;
  int retries = 0;

  for (int iter = 1;; ++iter) {
    ++total_iterations_;
    const bool diverged = !std::isfinite(pass.loss) ||
                          !std::isfinite(pass.grad_norm) ||
                          FaultInjector::ShouldFail(fault_sites::kLrDescend);
    if (diverged) {
      if (retries >= options_.max_divergence_retries) {
        OF_LOG(Warning) << "logistic regression: divergence persisted after "
                        << retries << " retries; returning last checkpoint";
        break;
      }
      ++retries;
      CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
      OF_LOG(Warning) << "logistic regression: non-finite loss/gradient at "
                         "iteration "
                      << iter << "; backing off (retry " << retries << ")";
      scale *= 0.5;
    } else if (pass.loss > checkpoint_loss) {
      // The step raised the loss: halve it.
      if (++halvings > kMaxStepHalvings) break;
      scale *= 0.5;
    } else {
      checkpoint = theta;
      checkpoint_loss = pass.loss;
      if (pass.grad_norm < options_.tolerance) break;
      if (!SolveNewtonStep(pass.hessian, pass.grad, &chol, &direction)) {
        OF_LOG(Warning) << "logistic regression: Hessian not positive "
                           "semi-definite; returning last checkpoint";
        break;
      }
      scale = 1.0;
      halvings = 0;
    }
    if (iter >= options_.max_iterations) break;  // the checkpoint stands
    for (size_t c = 0; c <= d; ++c) {
      theta[c] = checkpoint[c] + scale * direction[c];
    }
    EvaluatePass(X, y, weights, theta, options_.l2, &pass);
  }

  if (warm_start_) warm_theta_ = checkpoint;
  const double intercept = checkpoint[d];
  checkpoint.resize(d);
  return std::make_unique<LogisticRegressionModel>(std::move(checkpoint), intercept);
}

}  // namespace omnifair
