#include "core/stream_tune.h"

#include <algorithm>
#include <cmath>

#include "core/lambda_tuner.h"
#include "linalg/simd.h"
#include "linalg/vector_ops.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/telemetry.h"

namespace omnifair {
namespace {

bool IsValidationBlock(size_t index, const StreamTuneOptions& options) {
  const size_t period = std::max<size_t>(options.val_block_period, 2);
  return index % period == period - 1;
}

/// Per-group label and true-outcome counts over the validation blocks.
struct ValCounts {
  uint64_t y0 = 0;
  uint64_t y1 = 0;
  uint64_t tn = 0;  // h == 0, y == 0
  uint64_t tp = 0;  // h == 1, y == 1
};

struct EvalResult {
  double accuracy = 0.0;
  double fairness_gap = 0.0;  // f(g1) - f(g2)
};

/// One fitted + scored candidate.
struct Candidate {
  std::vector<double> theta;
  double lambda = 0.0;
  EvalResult eval;
};

class StreamTuner {
 public:
  StreamTuner(const ChunkedDataset& data, const StreamTuneOptions& options,
              StreamCoefficientTable table)
      : data_(data), options_(options), table_(std::move(table)) {
    num_features_ = data.meta().num_features;
    for (size_t b = 0; b < data.num_blocks(); ++b) {
      if (IsValidationBlock(b, options_)) {
        val_blocks_.push_back(b);
      } else {
        train_blocks_.push_back(b);
      }
    }
  }

  Result<StreamTuneResult> Run() {
    if (train_blocks_.empty() || val_blocks_.empty()) {
      return Status::InvalidArgument(
          "streaming tune needs at least one train and one validation block "
          "(got " +
          std::to_string(data_.num_blocks()) + " blocks)");
    }

    Result<Candidate> base = FitAndScore(0.0);
    if (!base.ok()) return base.status();
    const double fp0 = base->eval.fairness_gap;
    if (std::abs(fp0) <= options_.epsilon) return Finish(*base, true);

    // Algorithm 1's shared search (lambda_tuner.h). `resolved_side` is the
    // candidate at the bracket's resolved end, returned when the band is
    // overshot; the stream holds its theta, so that needs no refit.
    const double direction = LemmaDirection(fp0);
    InBandBest<Candidate> best;
    Candidate resolved_side;
    Status fit_status;
    const LambdaProbe probe = [&](double magnitude) {
      Result<Candidate> fit = FitAndScore(direction * magnitude);
      if (!fit.ok()) {
        fit_status = fit.status();
        return ProbeOutcome::kStop;
      }
      const double gap = fit->eval.fairness_gap;
      if (!ResolvesViolation(gap, fp0, options_.epsilon)) {
        return ProbeOutcome::kViolated;
      }
      if (std::abs(gap) <= options_.epsilon) {
        best.Consider(*fit, fit->eval.accuracy);
      }
      resolved_side = std::move(*fit);
      return ProbeOutcome::kResolved;
    };
    LambdaBracket bracket = ExponentialBracket(
        options_.initial_step, options_.max_doublings, probe);
    if (!fit_status.ok()) return fit_status;
    // No crossing within max_doublings: infeasible, the lambda = 0 model.
    if (!bracket.bounded) return Finish(*base, false);
    Bisect(options_.tau, &bracket, probe);
    if (!fit_status.ok()) return fit_status;
    if (best.has) return Finish(best.candidate, true);
    return Finish(resolved_side, false);
  }

 private:
  Result<StreamTuneResult> Finish(const Candidate& c, bool satisfied) {
    StreamTuneResult result;
    result.theta = c.theta;
    result.lambda = c.lambda;
    result.satisfied = satisfied;
    result.val_accuracy = c.eval.accuracy;
    result.val_fairness_gap = c.eval.fairness_gap;
    result.models_trained = models_trained_;
    return result;
  }

  double WeightOf(int group, int label, double lambda) const {
    const double s =
        group >= 0 && static_cast<size_t>(group) < table_.s.size()
            ? table_.s[static_cast<size_t>(group)][label == 1 ? 1 : 0]
            : 0.0;
    const double w = 1.0 + static_cast<double>(table_.n_train) * lambda * s;
    return w > 0.0 ? w : 0.0;  // Eq. 12 clip
  }

  Result<Candidate> FitAndScore(double lambda) {
    Result<std::vector<double>> theta = FitSgd(lambda);
    if (!theta.ok()) return theta.status();
    Result<EvalResult> eval = Evaluate(*theta);
    if (!eval.ok()) return eval.status();
    ++models_trained_;
    return Candidate{std::move(*theta), lambda, *eval};
  }

  /// Weighted mini-batch SGD over the train blocks: blocks are visited in a
  /// seeded shuffled order per epoch, batches are contiguous rows within a
  /// block, and accumulation is serial — bit-identical at any thread count.
  Result<std::vector<double>> FitSgd(double lambda) {
    const size_t d = num_features_;
    const simd::Kernels& kernels = simd::Active();
    std::vector<double> theta(d + 1, 0.0);
    std::vector<double> grad(d + 1, 0.0);
    const size_t batch = std::max<size_t>(1, options_.batch_size);
    const uint64_t n_train = table_.n_train;
    if (n_train == 0) return theta;

    double lr = options_.learning_rate;
    int retries = 0;
    Rng shuffle_rng(options_.shuffle_seed);
    std::vector<double> checkpoint = theta;
    uint64_t t = 0;  // global batch counter for kInvSqrt

    for (int epoch = 0; epoch < options_.epochs; ++epoch) {
      const std::vector<size_t> order =
          shuffle_rng.Permutation(train_blocks_.size());
      double epoch_loss = 0.0;
      for (size_t oi = 0; oi < order.size(); ++oi) {
        const size_t block_index = train_blocks_[order[oi]];
        Result<DatasetBlock> block = data_.MaterializeBlock(block_index);
        if (!block.ok()) return block.status();
        const size_t rows = block->labels.size();
        for (size_t begin = 0; begin < rows; begin += batch) {
          const size_t end = std::min(rows, begin + batch);
          std::fill(grad.begin(), grad.end(), 0.0);
          double batch_loss = 0.0;
          for (size_t i = begin; i < end; ++i) {
            const int y = block->labels[i];
            const double w = WeightOf(block->groups[i], y, lambda);
            if (w == 0.0) continue;
            const float* row = block->features.RowF(i);
            const double z = theta[d] + kernels.dot_f32(row, theta.data(), d);
            const double target = static_cast<double>(y);
            batch_loss += w * (Log1pExp(z) - target * z);
            const double residual = w * (Sigmoid(z) - target);
            if (residual != 0.0) {
              kernels.axpy_f32(residual, row, grad.data(), d);
              grad[d] += residual;
            }
          }
          const double inv_rows = 1.0 / static_cast<double>(end - begin);
          ++t;
          const double step = options_.lr_schedule == LrSchedule::kInvSqrt
                                  ? lr / std::sqrt(static_cast<double>(t))
                                  : lr;
          for (size_t c = 0; c < d; ++c) {
            theta[c] -= step * (grad[c] * inv_rows + options_.l2 * theta[c]);
          }
          theta[d] -= step * grad[d] * inv_rows;
          epoch_loss += batch_loss;
          OF_COUNTER_INC("sgd.batches");
        }
      }
      OF_COUNTER_INC("sgd.epochs");
      double reg = 0.0;
      for (size_t c = 0; c < d; ++c) reg += theta[c] * theta[c];
      epoch_loss = epoch_loss / static_cast<double>(n_train) +
                   0.5 * options_.l2 * reg;
      if (!std::isfinite(epoch_loss)) {
        if (++retries > options_.max_divergence_retries) {
          return Status::Internal("streaming SGD diverged at lambda " +
                                  std::to_string(lambda));
        }
        theta = checkpoint;
        lr *= 0.5;
        --epoch;  // retry the epoch at the smaller step
        continue;
      }
      checkpoint = theta;
    }
    return theta;
  }

  /// Streams the validation blocks, accumulating per-group confusion counts.
  Result<EvalResult> Evaluate(const std::vector<double>& theta) const {
    const size_t d = num_features_;
    const simd::Kernels& kernels = simd::Active();
    const size_t num_groups = data_.meta().group_names.size();
    std::vector<ValCounts> counts(num_groups);
    uint64_t total = 0;
    uint64_t correct = 0;
    for (size_t block_index : val_blocks_) {
      Result<DatasetBlock> block = data_.MaterializeBlock(block_index);
      if (!block.ok()) return block.status();
      const size_t rows = block->labels.size();
      for (size_t i = 0; i < rows; ++i) {
        const double z =
            theta[d] + kernels.dot_f32(block->features.RowF(i), theta.data(), d);
        const int pred = z >= 0.0 ? 1 : 0;
        const int y = block->labels[i];
        ++total;
        correct += (pred == y);
        const int g = block->groups[i];
        if (g < 0 || static_cast<size_t>(g) >= num_groups) continue;
        ValCounts& vc = counts[static_cast<size_t>(g)];
        if (y == 0) {
          ++vc.y0;
          vc.tn += (pred == 0);
        } else {
          ++vc.y1;
          vc.tp += (pred == 1);
        }
      }
    }
    // Definition 3 on the counts: f(g) = c0 + c[0] * tn + c[1] * tp.
    auto metric_value = [&](const ValCounts& vc) {
      const LabelCoefficients coef =
          LabelCoefficientsOf(options_.metric, vc.y0, vc.y1);
      return coef.c0 + coef.c[0] * static_cast<double>(vc.tn) +
             coef.c[1] * static_cast<double>(vc.tp);
    };
    EvalResult out;
    out.accuracy = total > 0 ? static_cast<double>(correct) / total : 0.0;
    out.fairness_gap = metric_value(counts[options_.group1]) -
                       metric_value(counts[options_.group2]);
    return out;
  }

  const ChunkedDataset& data_;
  StreamTuneOptions options_;
  StreamCoefficientTable table_;
  size_t num_features_ = 0;
  std::vector<size_t> train_blocks_;
  std::vector<size_t> val_blocks_;
  int models_trained_ = 0;
};

}  // namespace

Result<StreamCoefficientTable> BuildStreamCoefficientTable(
    const ChunkedDataset& data, const StreamTuneOptions& options) {
  const size_t num_groups = data.meta().group_names.size();
  if (options.group1 >= num_groups || options.group2 >= num_groups ||
      options.group1 == options.group2) {
    return Status::InvalidArgument("invalid group pair for streaming tune");
  }
  if (options.metric == MetricKind::kFalseOmissionRate ||
      options.metric == MetricKind::kFalseDiscoveryRate) {
    return Status::Unsupported(
        "streaming tune supports prediction-independent metrics only "
        "(SP/MR/FPR/FNR)");
  }
  std::vector<std::array<size_t, 2>> label_counts(num_groups, {0, 0});
  uint64_t n_train = 0;
  for (size_t b = 0; b < data.num_blocks(); ++b) {
    if (IsValidationBlock(b, options)) continue;
    Result<DatasetBlock> block = data.MaterializeBlock(b);
    if (!block.ok()) return block.status();
    const size_t rows = block->labels.size();
    n_train += rows;
    for (size_t i = 0; i < rows; ++i) {
      const int g = block->groups[i];
      if (g < 0 || static_cast<size_t>(g) >= num_groups) continue;
      ++label_counts[static_cast<size_t>(g)][block->labels[i] == 0 ? 0 : 1];
    }
  }
  StreamCoefficientTable table;
  table.n_train = n_train;
  table.s.assign(num_groups, {0.0, 0.0});
  auto coefficients = [&](size_t group) {
    return LabelCoefficientsOf(options.metric, label_counts[group][0],
                               label_counts[group][1])
        .c;
  };
  const std::array<double, 2> c1 = coefficients(options.group1);
  const std::array<double, 2> c2 = coefficients(options.group2);
  table.s[options.group1] = {c1[0], c1[1]};
  table.s[options.group2] = {-c2[0], -c2[1]};
  return table;
}

Result<StreamTuneResult> StreamTuneLambda(const ChunkedDataset& data,
                                          const StreamTuneOptions& options) {
  Result<StreamCoefficientTable> table =
      BuildStreamCoefficientTable(data, options);
  if (!table.ok()) return table.status();
  StreamTuner tuner(data, options, std::move(*table));
  return tuner.Run();
}

}  // namespace omnifair
