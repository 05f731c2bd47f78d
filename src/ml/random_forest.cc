#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace omnifair {

namespace {
// Rows per PredictProba task: large enough to amortize scheduling, small
// enough to load-balance across workers on bench-sized datasets.
constexpr size_t kPredictChunkRows = 256;
}  // namespace

RandomForestModel::RandomForestModel(std::vector<std::unique_ptr<Classifier>> trees,
                                     int num_threads)
    : trees_(std::move(trees)), num_threads_(std::max(1, num_threads)) {
  OF_CHECK(!trees_.empty());
}

std::vector<double> RandomForestModel::PredictProba(const Matrix& X) const {
  const size_t n = X.rows();
  std::vector<double> proba(n, 0.0);
  auto accumulate_rows = [&](size_t begin, size_t end) {
    for (const auto& tree : trees_) tree->AccumulateProba(X, begin, end, proba);
  };
  // Disjoint row chunks: no write overlap, and each row still sums its trees
  // in index order, so the result matches the serial path bit for bit.
  ThreadPool::Global().ParallelForRanges(0, n, kPredictChunkRows,
                                         accumulate_rows, num_threads_);
  const double inv = 1.0 / static_cast<double>(trees_.size());
  for (double& p : proba) p *= inv;
  return proba;
}

RandomForestTrainer::RandomForestTrainer(RandomForestOptions options)
    : options_(options), bin_cache_(std::make_shared<BinningCache>()) {}

std::unique_ptr<Trainer> RandomForestTrainer::Clone() const {
  auto clone = std::make_unique<RandomForestTrainer>(options_);
  clone->bin_cache_ = bin_cache_;
  return clone;
}

std::unique_ptr<Classifier> RandomForestTrainer::Fit(
    const Matrix& X, const std::vector<int>& y, const std::vector<double>& weights) {
  OF_CHECK_EQ(X.rows(), y.size());
  OF_CHECK_EQ(X.rows(), weights.size());
  OF_TRACE_SPAN("fit/rf");
  OF_SCOPED_LATENCY_US("ml.fit_us.rf");
  const size_t n = X.rows();

  size_t max_features = options_.max_features;
  if (max_features == 0) {
    max_features = static_cast<size_t>(
        std::max(1.0, std::round(std::sqrt(static_cast<double>(X.cols())))));
  }

  // Seed every tree up-front so the fitted forest does not depend on the
  // thread count or scheduling.
  Rng rng(options_.seed);
  std::vector<uint64_t> bootstrap_seeds(options_.num_trees);
  std::vector<uint64_t> feature_seeds(options_.num_trees);
  for (int t = 0; t < options_.num_trees; ++t) {
    bootstrap_seeds[t] = rng.NextUint64();
    feature_seeds[t] = rng.NextUint64();
  }

  // Bin X once per fit (memoized across fits and clones by the shared cache)
  // and hand the same BinnedMatrix to every tree, so the parallel tree loop
  // never touches the cache lock.
  const std::shared_ptr<const BinnedMatrix> binned =
      bin_cache_->GetOrBuild(X, options_.num_threads);

  std::vector<std::unique_ptr<Classifier>> trees(options_.num_trees);
  auto build_tree = [&](int t) {
    Rng tree_rng(bootstrap_seeds[t]);
    // Bootstrap counts via n draws with replacement.
    std::vector<uint32_t> counts(n, 0);
    for (size_t draw = 0; draw < n; ++draw) ++counts[tree_rng.NextBounded(n)];
    std::vector<double> boot_weights(n);
    for (size_t i = 0; i < n; ++i) {
      boot_weights[i] = weights[i] * static_cast<double>(counts[i]);
    }
    DecisionTreeOptions tree_options;
    tree_options.max_depth = options_.max_depth;
    tree_options.max_features = max_features;
    tree_options.min_weight_leaf = options_.min_weight_leaf;
    tree_options.min_weight_split = 2.0 * options_.min_weight_leaf;
    tree_options.seed = feature_seeds[t];
    // Trees already run in parallel; keep per-tree histogram fills serial.
    tree_options.num_threads = 1;
    DecisionTreeTrainer tree_trainer(tree_options);
    tree_trainer.SetBinnedMatrix(binned);
    trees[t] = tree_trainer.Fit(X, y, boot_weights);
  };

  const int num_threads = std::max(1, std::min(options_.num_threads,
                                               options_.num_trees));
  if (num_threads == 1) {
    for (int t = 0; t < options_.num_trees; ++t) build_tree(t);
  } else {
    ThreadPool::Global().ParallelFor(
        static_cast<size_t>(options_.num_trees),
        [&](size_t t) { build_tree(static_cast<int>(t)); }, num_threads);
  }
  return std::make_unique<RandomForestModel>(std::move(trees),
                                             options_.num_threads);
}

}  // namespace omnifair
