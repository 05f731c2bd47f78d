#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/vector_ops.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace omnifair {
namespace {

// Rows per PredictRaw task, matching RandomForestModel's chunking.
constexpr size_t kPredictChunkRows = 256;

/// Builds one regression tree on (grad, hess) and returns the node array.
/// Histogram split search (DESIGN.md §11): each node scans per-feature
/// (sum_grad, sum_hess) bin histograms, and each split rescans only the
/// smaller child (the larger one is parent minus sibling). With at most
/// kMaxBins distinct values per feature the candidate set is every midpoint
/// between adjacent values, so the chosen split is the greedy gain optimum
/// (test_gbdt.cc checks this).
class GbdtTreeBuilder {
 public:
  GbdtTreeBuilder(const std::vector<double>& grad, const std::vector<double>& hess,
                  const GbdtOptions& options, const BinnedMatrix& binned)
      : grad_(grad),
        hess_(hess),
        options_(options),
        binned_(binned),
        stride_(static_cast<size_t>(binned.max_bins())) {}

  std::vector<GbdtTreeNode> Build() {
    std::vector<size_t> all(binned_.rows());
    std::iota(all.begin(), all.end(), 0);
    NodeHistogram root;
    FillNodeHistogram(binned_, all, grad_.data(), hess_.data(),
                      options_.num_threads, &root);
    BuildNode(std::move(all), std::move(root), 0);
    return std::move(nodes_);
  }

 private:
  double LeafValue(double g, double h) const {
    return -g / (h + options_.reg_lambda);
  }

  double ScoreHalf(double g, double h) const {
    return g * g / (h + options_.reg_lambda);
  }

  int BuildNode(std::vector<size_t> samples, NodeHistogram hist, int depth) {
    double g_total = 0.0;
    double h_total = 0.0;
    for (size_t i : samples) {
      g_total += grad_[i];
      h_total += hess_[i];
    }

    const int node_index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[node_index].value = LeafValue(g_total, h_total);

    if (depth >= options_.max_depth || samples.size() < 2 ||
        h_total < 2.0 * options_.min_child_weight) {
      return node_index;
    }

    bool found = false;
    size_t best_feature = 0;
    int best_bin = -1;
    double best_threshold = 0.0;
    double best_gain = options_.min_split_gain;
    const double parent_score = ScoreHalf(g_total, h_total);
    for (size_t feature = 0; feature < binned_.cols(); ++feature) {
      const int num_bins = binned_.NumBins(feature);
      const double* hg = hist.first.data() + feature * stride_;
      const double* hh = hist.second.data() + feature * stride_;
      double g_left = 0.0;
      double h_left = 0.0;
      for (int b = 0; b + 1 < num_bins; ++b) {
        g_left += hg[b];
        h_left += hh[b];
        const double h_right = h_total - h_left;
        if (h_left < options_.min_child_weight ||
            h_right < options_.min_child_weight) {
          continue;
        }
        const double g_right = g_total - g_left;
        const double gain =
            0.5 * (ScoreHalf(g_left, h_left) + ScoreHalf(g_right, h_right) -
                   parent_score);
        if (gain > best_gain + 1e-12) {
          found = true;
          best_feature = feature;
          best_bin = b;
          best_threshold = binned_.Boundary(feature, b);
          best_gain = gain;
        }
      }
    }
    if (!found) return node_index;

    const uint8_t* codes = binned_.Column(best_feature);
    std::vector<size_t> left_samples;
    std::vector<size_t> right_samples;
    left_samples.reserve(samples.size());
    right_samples.reserve(samples.size());
    for (size_t i : samples) {
      (codes[i] <= best_bin ? left_samples : right_samples).push_back(i);
    }
    if (left_samples.empty() || right_samples.empty()) return node_index;
    samples.clear();
    samples.shrink_to_fit();

    // Scan only the smaller child; the larger one inherits parent - sibling.
    const bool left_is_smaller = left_samples.size() <= right_samples.size();
    NodeHistogram small_hist;
    FillNodeHistogram(binned_, left_is_smaller ? left_samples : right_samples,
                      grad_.data(), hess_.data(), options_.num_threads,
                      &small_hist);
    hist.SubtractSibling(small_hist);
    NodeHistogram left_hist = left_is_smaller ? std::move(small_hist) : std::move(hist);
    NodeHistogram right_hist =
        left_is_smaller ? std::move(hist) : std::move(small_hist);

    const int left = BuildNode(std::move(left_samples), std::move(left_hist), depth + 1);
    const int right =
        BuildNode(std::move(right_samples), std::move(right_hist), depth + 1);
    nodes_[node_index].is_leaf = false;
    nodes_[node_index].feature = static_cast<int>(best_feature);
    nodes_[node_index].threshold = best_threshold;
    nodes_[node_index].left = left;
    nodes_[node_index].right = right;
    return node_index;
  }

  const std::vector<double>& grad_;
  const std::vector<double>& hess_;
  const GbdtOptions& options_;
  const BinnedMatrix& binned_;
  const size_t stride_;
  std::vector<GbdtTreeNode> nodes_;
};

/// Tree walk; comparisons widen the stored feature element to double.
double PredictTree(const std::vector<GbdtTreeNode>& nodes, const float* row) {
  int index = 0;
  while (!nodes[index].is_leaf) {
    index = static_cast<double>(row[nodes[index].feature]) <=
                    nodes[index].threshold
                ? nodes[index].left
                : nodes[index].right;
  }
  return nodes[index].value;
}

}  // namespace

GbdtModel::GbdtModel(std::vector<std::vector<GbdtTreeNode>> trees, double base_score,
                     double learning_rate, int num_threads)
    : trees_(std::move(trees)),
      base_score_(base_score),
      learning_rate_(learning_rate),
      num_threads_(std::max(1, num_threads)) {}

double GbdtModel::PredictRawRow(const float* row) const {
  double raw = base_score_;
  for (const auto& tree : trees_) raw += learning_rate_ * PredictTree(tree, row);
  return raw;
}

std::vector<double> GbdtModel::PredictRaw(const Matrix& X) const {
  const size_t n = X.rows();
  std::vector<double> raw(n);
  auto score_rows = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) raw[i] = PredictRawRow(X.RowF(i));
  };
  // Disjoint row chunks: no write overlap, and each row still sums its trees
  // in index order, so the result matches the serial path bit for bit.
  ThreadPool::Global().ParallelForRanges(0, n, kPredictChunkRows, score_rows,
                                         num_threads_);
  return raw;
}

std::vector<double> GbdtModel::PredictProba(const Matrix& X) const {
  // Raw margins land in the output buffer (chunk-parallel), then one batched
  // simd sigmoid pass converts them to probabilities in place.
  std::vector<double> proba = PredictRaw(X);
  SigmoidInPlace(&proba);
  return proba;
}

void GbdtModel::AccumulateProba(const Matrix& X, size_t row_begin, size_t row_end,
                                std::vector<double>& proba) const {
  // Blocked accumulate: stage raw margins for a block of rows in a
  // stack-resident scratch (2 KB — one reused buffer per pool worker, since
  // chunked callers run one block per task), sigmoid the block in one batched
  // pass, then add. Keeps the sigmoid vectorized without touching `proba`'s
  // running sums.
  double scratch[kPredictChunkRows];
  for (size_t start = row_begin; start < row_end; start += kPredictChunkRows) {
    const size_t len = std::min(row_end - start, kPredictChunkRows);
    for (size_t j = 0; j < len; ++j) scratch[j] = PredictRawRow(X.RowF(start + j));
    SigmoidInPlace(scratch, len);
    for (size_t j = 0; j < len; ++j) proba[start + j] += scratch[j];
  }
}

GbdtTrainer::GbdtTrainer(GbdtOptions options)
    : options_(options), bin_cache_(std::make_shared<BinningCache>()) {}

std::unique_ptr<Trainer> GbdtTrainer::Clone() const {
  auto clone = std::make_unique<GbdtTrainer>(options_);
  clone->bin_cache_ = bin_cache_;
  return clone;
}

std::unique_ptr<Classifier> GbdtTrainer::Fit(const Matrix& X,
                                             const std::vector<int>& y,
                                             const std::vector<double>& weights) {
  OF_CHECK_EQ(X.rows(), y.size());
  OF_CHECK_EQ(X.rows(), weights.size());
  OF_TRACE_SPAN("fit/xgb");
  OF_SCOPED_LATENCY_US("ml.fit_us.xgb");
  const size_t n = X.rows();

  // X is binned once per fit — and, via the cache shared across Clone()s,
  // once per tuning run: only the example weights change between λ refits,
  // never the binning (it is a pure function of X).
  const std::shared_ptr<const BinnedMatrix> binned =
      bin_cache_->GetOrBuild(X, options_.num_threads);

  // Base score: weighted log-odds of the positive class.
  double w_pos = 0.0;
  double w_total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    w_total += weights[i];
    if (y[i] == 1) w_pos += weights[i];
  }
  double prior = w_total > 0.0 ? w_pos / w_total : 0.5;
  prior = std::clamp(prior, 1e-6, 1.0 - 1e-6);
  const double base_score = std::log(prior / (1.0 - prior));

  std::vector<double> raw(n, base_score);
  std::vector<double> grad(n);
  std::vector<double> hess(n);
  std::vector<std::vector<GbdtTreeNode>> trees;
  trees.reserve(options_.num_rounds);

  // Divergence recovery (DESIGN.md §8): a round whose tree makes any raw
  // score non-finite is dropped, and later trees have their leaf values
  // damped by `backoff`. `raw` therefore only ever holds finite scores.
  std::vector<double> candidate_raw(n);
  double backoff = 1.0;
  int retries = 0;
  for (int round = 0; round < options_.num_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) {
      const double p = Sigmoid(raw[i]);
      grad[i] = weights[i] * (p - (y[i] == 1 ? 1.0 : 0.0));
      hess[i] = weights[i] * std::max(p * (1.0 - p), 1e-12);
    }
    std::vector<GbdtTreeNode> tree =
        GbdtTreeBuilder(grad, hess, options_, *binned).Build();
    if (backoff < 1.0) {
      for (GbdtTreeNode& node : tree) node.value *= backoff;
    }
    bool diverged = FaultInjector::ShouldFail(fault_sites::kGbdtRound);
    candidate_raw = raw;
    for (size_t i = 0; i < n; ++i) {
      candidate_raw[i] += options_.learning_rate * PredictTree(tree, X.RowF(i));
      diverged = diverged || !std::isfinite(candidate_raw[i]);
    }
    if (diverged) {
      if (retries >= options_.max_divergence_retries) {
        OF_LOG(Warning) << "gbdt: divergence persisted after " << retries
                        << " retries; stopping with " << trees.size() << " trees";
        break;
      }
      ++retries;
      CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
      OF_LOG(Warning) << "gbdt: non-finite raw score at round " << round
                      << "; dropping tree and damping (retry " << retries << ")";
      backoff *= 0.5;
      continue;
    }
    raw.swap(candidate_raw);
    trees.push_back(std::move(tree));
  }
  return std::make_unique<GbdtModel>(std::move(trees), base_score,
                                     options_.learning_rate, options_.num_threads);
}

}  // namespace omnifair
