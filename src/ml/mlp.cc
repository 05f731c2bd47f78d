#include "ml/mlp.h"

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

// Flat parameter layout: [W1 (h*d), b1 (h), w2 (h), b2 (1)].
size_t ParamCount(size_t d, size_t h) { return h * d + h + h + 1; }

struct Views {
  double* W1;
  double* b1;
  double* w2;
  double* b2;
};

Views MakeViews(std::vector<double>& params, size_t d, size_t h) {
  Views v;
  v.W1 = params.data();
  v.b1 = params.data() + h * d;
  v.w2 = params.data() + h * d + h;
  v.b2 = params.data() + h * d + h + h;
  return v;
}

/// The trained model over a flat parameter vector (layout above).
std::unique_ptr<Classifier> ModelFromParams(const std::vector<double>& params,
                                            size_t d, size_t h) {
  const double* b1 = params.data() + h * d;
  const double* w2 = b1 + h;
  return std::make_unique<MlpModel>(
      d, std::vector<double>(params.data(), b1), std::vector<double>(b1, w2),
      std::vector<double>(w2, w2 + h), w2[h]);
}

/// Forward/backward over all rows at parameters `v`, accumulating
/// unnormalized gradient sums into `g`; returns the unnormalized weighted
/// loss sum. `hidden` / `relu_active` are caller-owned scratch of size h.
double AccumulateLossGrad(const Matrix& X, const std::vector<int>& y,
                          const std::vector<double>& weights, const Views& v,
                          const Views& g, size_t d, size_t h,
                          std::vector<double>& hidden,
                          std::vector<double>& relu_active) {
  const simd::Kernels& kernels = simd::Active();
  double loss = 0.0;
  for (size_t i = 0; i < X.rows(); ++i) {
    // Forward/backward dots and the gradient rank-1 update run on the simd
    // kernels; float32 feature rows widen per lane against the double
    // parameters, so accumulators stay double.
    const float* row = X.RowF(i);
    double z2 = *v.b2;
    for (size_t j = 0; j < h; ++j) {
      const double z = v.b1[j] + kernels.dot_f32(row, v.W1 + j * d, d);
      relu_active[j] = z > 0.0 ? 1.0 : 0.0;
      hidden[j] = z > 0.0 ? z : 0.0;
      z2 += v.w2[j] * hidden[j];
    }
    const double target = y[i] == 1 ? 1.0 : 0.0;
    loss += weights[i] * (Log1pExp(z2) - target * z2);
    const double delta2 = weights[i] * (Sigmoid(z2) - target);
    *g.b2 += delta2;
    for (size_t j = 0; j < h; ++j) {
      g.w2[j] += delta2 * hidden[j];
      const double delta1 = delta2 * v.w2[j] * relu_active[j];
      if (delta1 == 0.0) continue;
      g.b1[j] += delta1;
      kernels.axpy_f32(delta1, row, g.W1 + j * d, d);
    }
  }
  return loss;
}

}  // namespace

MlpModel::MlpModel(size_t inputs, std::vector<double> W1, std::vector<double> b1,
                   std::vector<double> w2, double b2)
    : inputs_(inputs),
      W1_(std::move(W1)),
      b1_(std::move(b1)),
      w2_(std::move(w2)),
      b2_(b2) {
  OF_CHECK_EQ(W1_.size(), b1_.size() * inputs_);
  OF_CHECK_EQ(w2_.size(), b1_.size());
}

std::vector<double> MlpModel::PredictProba(const Matrix& X) const {
  const size_t d = inputs_;
  OF_CHECK_EQ(X.cols(), d);
  const size_t n = X.rows();
  const size_t h = hidden_units();
  std::vector<double> proba(n);
  std::vector<double> hidden(h);  // one reused scratch row of activations
  const simd::Kernels& kernels = simd::Active();
  // Row-blocked batch predict: margins for a block of rows accumulate in the
  // output buffer, then one batched sigmoid pass per block while the block is
  // still cache-hot. 256 rows of margins is 2 KB — comfortably L1.
  constexpr size_t kBlockRows = 256;
  for (size_t start = 0; start < n; start += kBlockRows) {
    const size_t end = std::min(n, start + kBlockRows);
    for (size_t i = start; i < end; ++i) {
      const float* row = X.RowF(i);
      for (size_t j = 0; j < h; ++j) {
        const double z = kernels.dot_f32(row, W1_.data() + j * d, d) + b1_[j];
        hidden[j] = z > 0.0 ? z : 0.0;  // ReLU
      }
      proba[i] = b2_ + kernels.dot(w2_.data(), hidden.data(), h);
    }
    kernels.sigmoid_inplace(proba.data() + start, end - start);
  }
  return proba;
}

MlpTrainer::MlpTrainer(MlpOptions options) : options_(options) {}

std::unique_ptr<Classifier> MlpTrainer::Fit(const Matrix& X, const std::vector<int>& y,
                                            const std::vector<double>& weights) {
  OF_CHECK_EQ(X.rows(), y.size());
  OF_CHECK_EQ(X.rows(), weights.size());
  OF_TRACE_SPAN("fit/nn");
  OF_SCOPED_LATENCY_US("ml.fit_us.nn");
  const size_t n = X.rows();
  const size_t d = X.cols();
  const size_t h = static_cast<size_t>(options_.hidden_units);
  const size_t p = ParamCount(d, h);

  std::vector<double> params(p);
  const bool warm_usable =
      warm_start_ && warm_params_.size() == p &&
      std::all_of(warm_params_.begin(), warm_params_.end(),
                  [](double value) { return std::isfinite(value); });
  if (warm_usable) {
    params = warm_params_;
  } else {
    Rng rng(options_.seed);
    const double scale = std::sqrt(2.0 / static_cast<double>(d));
    for (size_t k = 0; k < h * d; ++k) params[k] = rng.NextGaussian(0.0, scale);
    for (size_t k = h * d; k < p; ++k) params[k] = 0.0;
    const double out_scale = std::sqrt(2.0 / static_cast<double>(h));
    Views v = MakeViews(params, d, h);
    for (size_t j = 0; j < h; ++j) v.w2[j] = rng.NextGaussian(0.0, out_scale);
  }

  std::vector<double> grad(p, 0.0);
  std::vector<double> m(p, 0.0);
  std::vector<double> vv(p, 0.0);
  std::vector<double> hidden(h);
  std::vector<double> relu_active(h);
  const double beta1 = 0.9;
  const double beta2 = 0.999;
  const double adam_eps = 1e-8;
  double previous_loss = std::numeric_limits<double>::infinity();

  // Divergence recovery (DESIGN.md §8): `checkpoint` is the last parameter
  // vector whose epoch loss was finite; a non-finite loss rolls back to it
  // with reset Adam moments and a halved learning rate.
  std::vector<double> checkpoint = params;
  double learning_rate = options_.learning_rate;
  int retries = 0;

  for (int epoch = 1; epoch <= options_.max_epochs; ++epoch) {
    Views v = MakeViews(params, d, h);
    std::fill(grad.begin(), grad.end(), 0.0);
    Views g = MakeViews(grad, d, h);
    const double loss_sum =
        AccumulateLossGrad(X, y, weights, v, g, d, h, hidden, relu_active);
    const double inv_n = 1.0 / static_cast<double>(n);
    double loss = loss_sum;
    loss *= inv_n;

    const bool diverged =
        !std::isfinite(loss) || FaultInjector::ShouldFail(fault_sites::kMlpEpoch);
    if (diverged) {
      if (retries >= options_.max_divergence_retries) {
        OF_LOG(Warning) << "mlp: divergence persisted after " << retries
                        << " retries; returning last checkpoint";
        params = checkpoint;
        break;
      }
      ++retries;
      CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
      OF_LOG(Warning) << "mlp: non-finite loss at epoch " << epoch
                      << "; backing off (retry " << retries << ")";
      params = checkpoint;
      std::fill(m.begin(), m.end(), 0.0);
      std::fill(vv.begin(), vv.end(), 0.0);
      learning_rate *= 0.5;
      previous_loss = std::numeric_limits<double>::infinity();
      continue;
    }
    checkpoint = params;

    for (size_t k = 0; k < p; ++k) {
      grad[k] = grad[k] * inv_n + options_.l2 * params[k];
    }

    // Adam update.
    const double bc1 = 1.0 - std::pow(beta1, epoch);
    const double bc2 = 1.0 - std::pow(beta2, epoch);
    for (size_t k = 0; k < p; ++k) {
      m[k] = beta1 * m[k] + (1.0 - beta1) * grad[k];
      vv[k] = beta2 * vv[k] + (1.0 - beta2) * grad[k] * grad[k];
      params[k] -= learning_rate * (m[k] / bc1) /
                   (std::sqrt(vv[k] / bc2) + adam_eps);
    }

    if (std::fabs(previous_loss - loss) <
        options_.tolerance * std::max(1.0, std::fabs(previous_loss))) {
      break;
    }
    previous_loss = loss;
  }

  // The final Adam update runs after the epoch's loss check, so it can still
  // push a parameter out of range; fall back to the checkpoint then.
  if (!std::all_of(params.begin(), params.end(),
                   [](double value) { return std::isfinite(value); })) {
    CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
    OF_LOG(Warning) << "mlp: non-finite parameters after training; "
                       "returning last checkpoint";
    params = checkpoint;
  }

  if (warm_start_) warm_params_ = params;

  return ModelFromParams(params, d, h);
}

}  // namespace omnifair
