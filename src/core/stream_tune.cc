#include "core/stream_tune.h"

#include <algorithm>
#include <cmath>

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

/// Per-group label counts over the train blocks.
struct GroupCounts {
  uint64_t total = 0;
  uint64_t y0 = 0;
  uint64_t y1 = 0;
};

/// Metric coefficient c(g, y) from the group's train-split label counts —
/// the same formulas FairnessMetric::Coefficients uses, including the
/// empty-group / undefined-rate conventions (contribute 0).
std::array<double, 2> MetricCoefficientOf(MetricKind metric,
                                          const GroupCounts& g) {
  std::array<double, 2> c = {0.0, 0.0};
  switch (metric) {
    case MetricKind::kStatisticalParity:
      if (g.total > 0) {
        c[0] = -1.0 / static_cast<double>(g.total);
        c[1] = 1.0 / static_cast<double>(g.total);
      }
      break;
    case MetricKind::kMisclassificationRate:
      if (g.total > 0) {
        c[0] = 1.0 / static_cast<double>(g.total);
        c[1] = c[0];
      }
      break;
    case MetricKind::kFalsePositiveRate:
      if (g.y0 > 0) c[0] = -1.0 / static_cast<double>(g.y0);
      break;
    case MetricKind::kFalseNegativeRate:
      if (g.y1 > 0) c[1] = -1.0 / static_cast<double>(g.y1);
      break;
    default:
      OF_CHECK(false) << "prediction-parameterized metric in streaming tuner";
  }
  return c;
}

/// Per-group confusion counts streamed over the validation blocks.
struct ValCounts {
  uint64_t total = 0;
  uint64_t y0 = 0;
  uint64_t y1 = 0;
  uint64_t correct = 0;     // h == y
  uint64_t pred1 = 0;       // h == 1
  uint64_t tn = 0;          // h == 0, y == 0
  uint64_t tp = 0;          // h == 1, y == 1
};

/// f(h, g) per metric from validation confusion counts, matching the
/// Definition 3 identity the in-memory Evaluate() computes (FPR/FNR return
/// the true named rate; undefined rates contribute 0).
double MetricValueOf(MetricKind metric, const ValCounts& g) {
  switch (metric) {
    case MetricKind::kStatisticalParity:
      return g.total > 0 ? static_cast<double>(g.pred1) / g.total : 0.0;
    case MetricKind::kMisclassificationRate:
      return g.total > 0 ? static_cast<double>(g.correct) / g.total : 0.0;
    case MetricKind::kFalsePositiveRate:
      return g.y0 > 0 ? 1.0 - static_cast<double>(g.tn) / g.y0 : 0.0;
    case MetricKind::kFalseNegativeRate:
      return g.y1 > 0 ? 1.0 - static_cast<double>(g.tp) / g.y1 : 0.0;
    default:
      OF_CHECK(false) << "prediction-parameterized metric in streaming tuner";
  }
  return 0.0;
}

struct EvalResult {
  double accuracy = 0.0;
  double fairness_gap = 0.0;  // f(g1) - f(g2)
};

/// One fitted + scored candidate.
struct Candidate {
  std::vector<double> theta;
  double lambda = 0.0;
  EvalResult eval;
  bool satisfied = false;
};

/// Keeps the highest-validation-accuracy satisfying candidate (the
/// BestCandidate rule of the in-memory tuner).
struct BestCandidate {
  Candidate candidate;
  bool has = false;

  void Consider(const Candidate& c) {
    if (!c.satisfied) return;
    if (!has || c.eval.accuracy > candidate.eval.accuracy) {
      candidate = c;
      has = true;
    }
  }
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
    ++models_trained_;
    BestCandidate best;
    best.Consider(*base);
    const double fp0 = base->eval.fairness_gap;
    if (std::abs(fp0) <= options_.epsilon) {
      return Finish(*base, /*satisfied=*/true);
    }

    // Lemma 2 orientation: a positive gap shrinks as lambda decreases.
    const double direction = fp0 > 0 ? -1.0 : 1.0;
    auto resolved = [&](double fp) {
      return std::abs(fp) <= options_.epsilon || (fp0 > 0 ? fp < 0 : fp > 0);
    };

    // Exponential search for a bracketing magnitude.
    double magnitude_lo = 0.0;
    double magnitude_hi = -1.0;
    double magnitude = options_.initial_step;
    Candidate last;
    for (int d = 0; d <= options_.max_doublings; ++d) {
      Result<Candidate> fit = FitAndScore(direction * magnitude);
      if (!fit.ok()) return fit.status();
      ++models_trained_;
      best.Consider(*fit);
      last = *fit;
      if (resolved(fit->eval.fairness_gap)) {
        magnitude_hi = magnitude;
        break;
      }
      magnitude_lo = magnitude;
      magnitude *= 2.0;
    }
    if (magnitude_hi < 0.0) {
      // No crossing within the search range: best-effort, unsatisfied
      // (mirrors the in-memory tuner's infeasible handling).
      return Finish(best.has ? best.candidate : last, best.has);
    }

    // Binary search pins the crossing to tau.
    while (magnitude_hi - magnitude_lo >= options_.tau) {
      const double mid = 0.5 * (magnitude_lo + magnitude_hi);
      Result<Candidate> fit = FitAndScore(direction * mid);
      if (!fit.ok()) return fit.status();
      ++models_trained_;
      best.Consider(*fit);
      last = *fit;
      if (resolved(fit->eval.fairness_gap)) {
        magnitude_hi = mid;
      } else {
        magnitude_lo = mid;
      }
    }
    if (best.has) return Finish(best.candidate, true);
    return Finish(last, last.satisfied);
  }

 private:
  Result<StreamTuneResult> Finish(const Candidate& c, bool satisfied) {
    StreamTuneResult result;
    result.theta = c.theta;
    result.lambda = c.lambda;
    result.satisfied = satisfied && c.satisfied;
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
    Candidate c;
    c.theta = std::move(*theta);
    c.lambda = lambda;
    c.eval = *eval;
    c.satisfied = std::abs(c.eval.fairness_gap) <= options_.epsilon;
    return c;
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
        ++vc.total;
        if (y == 0) ++vc.y0; else ++vc.y1;
        vc.correct += (pred == y);
        vc.pred1 += (pred == 1);
        vc.tn += (pred == 0 && y == 0);
        vc.tp += (pred == 1 && y == 1);
      }
    }
    EvalResult out;
    out.accuracy = total > 0 ? static_cast<double>(correct) / total : 0.0;
    out.fairness_gap = MetricValueOf(options_.metric, counts[options_.group1]) -
                       MetricValueOf(options_.metric, counts[options_.group2]);
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
  std::vector<GroupCounts> counts(num_groups);
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
      GroupCounts& gc = counts[static_cast<size_t>(g)];
      ++gc.total;
      if (block->labels[i] == 0) ++gc.y0; else ++gc.y1;
    }
  }
  StreamCoefficientTable table;
  table.n_train = n_train;
  table.s.assign(num_groups, {0.0, 0.0});
  const std::array<double, 2> c1 =
      MetricCoefficientOf(options.metric, counts[options.group1]);
  const std::array<double, 2> c2 =
      MetricCoefficientOf(options.metric, counts[options.group2]);
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
