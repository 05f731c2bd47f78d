#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omnifair {
namespace {

struct SplitCandidate {
  bool found = false;
  size_t feature = 0;
  double threshold = 0.0;
  double impurity_decrease = 0.0;
  /// The split sends codes <= bin to the left child.
  int bin = -1;
};

double GiniImpurity(double w_pos, double w_total) {
  if (w_total <= 0.0) return 0.0;
  const double p = w_pos / w_total;
  return 2.0 * p * (1.0 - p);
}

/// Histogram split search (DESIGN.md §11): each node scans per-feature bin
/// histograms, and each split rescans only the smaller child (the larger
/// child's histogram is parent minus sibling). Candidate thresholds are the
/// bin boundaries of the full X; with at most kMaxBins distinct values per
/// feature that is every midpoint between adjacent values, so the chosen
/// split is the greedy Gini optimum (test_decision_tree.cc checks this).
class TreeBuilder {
 public:
  TreeBuilder(const std::vector<int>& y, const std::vector<double>& weights,
              const DecisionTreeOptions& options,
              std::shared_ptr<const BinnedMatrix> binned)
      : y_(y),
        weights_(weights),
        options_(options),
        binned_(std::move(binned)),
        stride_(static_cast<size_t>(binned_->max_bins())),
        rng_(options.seed) {
    pos_weights_.resize(weights_.size());
    for (size_t i = 0; i < weights_.size(); ++i) {
      pos_weights_[i] = y_[i] == 1 ? weights_[i] : 0.0;
    }
  }

  std::vector<DecisionTreeModel::Node> Build() {
    std::vector<size_t> all(binned_->rows());
    std::iota(all.begin(), all.end(), 0);
    NodeHistogram root;
    FillNodeHistogram(*binned_, all, weights_.data(), pos_weights_.data(),
                      options_.num_threads, &root);
    BuildNode(std::move(all), std::move(root), /*depth=*/0);
    return std::move(nodes_);
  }

 private:
  int BuildNode(std::vector<size_t> samples, NodeHistogram hist, int depth) {
    double w_total = 0.0;
    double w_pos = 0.0;
    for (size_t i : samples) {
      w_total += weights_[i];
      if (y_[i] == 1) w_pos += weights_[i];
    }

    const int node_index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[node_index].probability = w_total > 0.0 ? w_pos / w_total : 0.5;

    const bool pure = w_pos <= 1e-12 || w_total - w_pos <= 1e-12;
    if (depth >= options_.max_depth || pure || w_total < options_.min_weight_split ||
        samples.size() < 2) {
      return node_index;
    }

    const SplitCandidate split = FindBestSplit(hist, w_pos, w_total);
    if (!split.found) return node_index;

    const uint8_t* codes = binned_->Column(split.feature);
    std::vector<size_t> left_samples;
    std::vector<size_t> right_samples;
    left_samples.reserve(samples.size());
    right_samples.reserve(samples.size());
    for (size_t i : samples) {
      if (codes[i] <= split.bin) {
        left_samples.push_back(i);
      } else {
        right_samples.push_back(i);
      }
    }
    if (left_samples.empty() || right_samples.empty()) return node_index;
    samples.clear();
    samples.shrink_to_fit();

    // Scan only the smaller child; the larger one inherits parent - sibling.
    const bool left_is_smaller = left_samples.size() <= right_samples.size();
    NodeHistogram small_hist;
    FillNodeHistogram(*binned_, left_is_smaller ? left_samples : right_samples,
                      weights_.data(), pos_weights_.data(), options_.num_threads,
                      &small_hist);
    hist.SubtractSibling(small_hist);
    NodeHistogram left_hist = left_is_smaller ? std::move(small_hist) : std::move(hist);
    NodeHistogram right_hist =
        left_is_smaller ? std::move(hist) : std::move(small_hist);

    const int left = BuildNode(std::move(left_samples), std::move(left_hist), depth + 1);
    const int right =
        BuildNode(std::move(right_samples), std::move(right_hist), depth + 1);
    nodes_[node_index].is_leaf = false;
    nodes_[node_index].feature = static_cast<int>(split.feature);
    nodes_[node_index].threshold = split.threshold;
    nodes_[node_index].left = left;
    nodes_[node_index].right = right;
    return node_index;
  }

  SplitCandidate FindBestSplit(const NodeHistogram& hist, double w_pos,
                               double w_total) {
    const double parent_impurity = GiniImpurity(w_pos, w_total);
    SplitCandidate best;

    features_.resize(binned_->cols());
    std::iota(features_.begin(), features_.end(), 0);
    size_t num_features = features_.size();
    if (options_.max_features > 0 && options_.max_features < num_features) {
      // Fisher-Yates prefix for a random feature subset.
      for (size_t i = 0; i < options_.max_features; ++i) {
        const size_t j = i + rng_.NextBounded(num_features - i);
        std::swap(features_[i], features_[j]);
      }
      num_features = options_.max_features;
    }

    for (size_t f_idx = 0; f_idx < num_features; ++f_idx) {
      const size_t feature = features_[f_idx];
      const int num_bins = binned_->NumBins(feature);
      const double* w = hist.first.data() + feature * stride_;
      const double* wp = hist.second.data() + feature * stride_;
      double left_total = 0.0;
      double left_pos = 0.0;
      for (int b = 0; b + 1 < num_bins; ++b) {
        left_total += w[b];
        left_pos += wp[b];
        const double right_total = w_total - left_total;
        const double right_pos = w_pos - left_pos;
        if (left_total < options_.min_weight_leaf ||
            right_total < options_.min_weight_leaf) {
          continue;
        }
        const double weighted_child_impurity =
            (left_total * GiniImpurity(left_pos, left_total) +
             right_total * GiniImpurity(right_pos, right_total)) /
            w_total;
        const double decrease = parent_impurity - weighted_child_impurity;
        if (decrease > best.impurity_decrease + 1e-12) {
          best.found = true;
          best.feature = feature;
          best.threshold = binned_->Boundary(feature, b);
          best.impurity_decrease = decrease;
          best.bin = b;
        }
      }
    }
    return best;
  }

  const std::vector<int>& y_;
  const std::vector<double>& weights_;
  const DecisionTreeOptions& options_;
  std::shared_ptr<const BinnedMatrix> binned_;
  const size_t stride_;
  Rng rng_;
  std::vector<double> pos_weights_;
  std::vector<DecisionTreeModel::Node> nodes_;
  /// Per-node scratch, hoisted so split search does not allocate per node.
  std::vector<size_t> features_;
};

}  // namespace

DecisionTreeModel::DecisionTreeModel(std::vector<Node> nodes)
    : nodes_(std::move(nodes)) {
  OF_CHECK(!nodes_.empty());
}

double DecisionTreeModel::PredictRow(const float* row) const {
  // Comparisons widen the stored element to double.
  int index = 0;
  while (!nodes_[index].is_leaf) {
    const Node& node = nodes_[index];
    index = static_cast<double>(row[node.feature]) <= node.threshold ? node.left
                                                                     : node.right;
  }
  return nodes_[index].probability;
}

std::vector<double> DecisionTreeModel::PredictProba(const Matrix& X) const {
  std::vector<double> proba(X.rows());
  for (size_t i = 0; i < X.rows(); ++i) proba[i] = PredictRow(X.RowF(i));
  return proba;
}

void DecisionTreeModel::AccumulateProba(const Matrix& X, size_t row_begin,
                                        size_t row_end,
                                        std::vector<double>& proba) const {
  for (size_t i = row_begin; i < row_end; ++i) proba[i] += PredictRow(X.RowF(i));
}

int DecisionTreeModel::Depth() const {
  // Iterative depth computation over the flat array.
  std::vector<int> depth(nodes_.size(), 0);
  int max_depth = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].is_leaf) {
      depth[nodes_[i].left] = depth[i] + 1;
      depth[nodes_[i].right] = depth[i] + 1;
    }
    max_depth = std::max(max_depth, depth[i]);
  }
  return max_depth;
}

DecisionTreeTrainer::DecisionTreeTrainer(DecisionTreeOptions options)
    : options_(options), bin_cache_(std::make_shared<BinningCache>()) {}

std::unique_ptr<Trainer> DecisionTreeTrainer::Clone() const {
  auto clone = std::make_unique<DecisionTreeTrainer>(options_);
  clone->bin_cache_ = bin_cache_;
  clone->preset_binned_ = preset_binned_;
  return clone;
}

std::unique_ptr<Classifier> DecisionTreeTrainer::Fit(
    const Matrix& X, const std::vector<int>& y, const std::vector<double>& weights) {
  OF_CHECK_EQ(X.rows(), y.size());
  OF_CHECK_EQ(X.rows(), weights.size());
  OF_CHECK_GT(X.rows(), 0u);
  OF_TRACE_SPAN("fit/dt");
  OF_SCOPED_LATENCY_US("ml.fit_us.dt");
  std::shared_ptr<const BinnedMatrix> binned = preset_binned_;
  if (binned == nullptr || !binned->Matches(X)) {
    binned = bin_cache_->GetOrBuild(X, options_.num_threads);
  }
  TreeBuilder builder(y, weights, options_, std::move(binned));
  return std::make_unique<DecisionTreeModel>(builder.Build());
}

}  // namespace omnifair
