#ifndef OMNIFAIR_TESTS_TESTING_SPLITS_H_
#define OMNIFAIR_TESTS_TESTING_SPLITS_H_

// A brute-force greedy split reference for the histogram tree builders: it
// scores every midpoint between adjacent node-local values, the candidate
// set a per-node sort-and-scan splitter would search.

#include <algorithm>
#include <limits>
#include <vector>

#include "linalg/matrix.h"
#include "util/random.h"

namespace omnifair {
namespace testing_splits {

/// Weighted binary data whose features take few distinct values (fewer than
/// BinnedMatrix::kMaxBins), all exact in float32 storage, so every node-local
/// midpoint is a bin boundary.
/// The informative 0/1 feature has exactly one candidate split, the last
/// (and only) bin boundary, which an off-by-one in the bin scan would miss.
struct GridData {
  Matrix X;
  std::vector<int> y;
  std::vector<double> weights;
};

inline GridData MakeGridData(size_t n, uint64_t seed) {
  Rng rng(seed);
  GridData data;
  data.X = Matrix(n, 4);
  data.y.resize(n);
  data.weights.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double x0 = static_cast<double>(rng.NextBounded(40));
    const double x1 = static_cast<double>(rng.NextBounded(12)) * 0.5;
    const double x2 = static_cast<double>(rng.NextBounded(90)) - 45.0;
    const double x3 = rng.NextBernoulli(0.5) ? 1.0 : 0.0;
    data.X.Set(i, 0, x0);
    data.X.Set(i, 1, x1);
    data.X.Set(i, 2, x2);
    data.X.Set(i, 3, x3);
    const double margin =
        0.1 * x0 - x1 + 0.02 * x2 + 1.5 * x3 + rng.NextGaussian(0.0, 1.0);
    data.y[i] = margin > 0.5 ? 1 : 0;
    data.weights[i] = 0.5 + static_cast<double>(rng.NextBounded(4)) * 0.5;
  }
  return data;
}

/// Rows of X reaching each node of a flat tree (parents precede children in
/// both node layouts, so one pass in index order routes every row).
template <typename Node>
std::vector<std::vector<size_t>> NodeSamples(const std::vector<Node>& nodes,
                                             const Matrix& X) {
  std::vector<std::vector<size_t>> samples(nodes.size());
  for (size_t i = 0; i < X.rows(); ++i) samples[0].push_back(i);
  for (size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].is_leaf) continue;
    for (size_t i : samples[n]) {
      const bool left = X(i, nodes[n].feature) <= nodes[n].threshold;
      samples[left ? nodes[n].left : nodes[n].right].push_back(i);
    }
  }
  return samples;
}

/// Score of splitting `samples` on `feature` at `threshold`. `score` maps the
/// left-side sums of the per-row statistics (a, b) and the node totals to a
/// split score, or -infinity when the split is not admissible.
template <typename Score>
double SplitScore(const Matrix& X, const std::vector<size_t>& samples,
                  size_t feature, double threshold, const std::vector<double>& a,
                  const std::vector<double>& b, Score score) {
  double total_a = 0.0, total_b = 0.0, left_a = 0.0, left_b = 0.0;
  for (size_t i : samples) {
    total_a += a[i];
    total_b += b[i];
    if (X(i, feature) <= threshold) {
      left_a += a[i];
      left_b += b[i];
    }
  }
  return score(left_a, left_b, total_a, total_b);
}

/// The best score over every feature and every midpoint between adjacent
/// distinct node-local values.
template <typename Score>
double BestMidpointScore(const Matrix& X, const std::vector<size_t>& samples,
                         const std::vector<double>& a,
                         const std::vector<double>& b, Score score) {
  double best = -std::numeric_limits<double>::infinity();
  std::vector<size_t> order = samples;
  for (size_t f = 0; f < X.cols(); ++f) {
    std::sort(order.begin(), order.end(),
              [&](size_t p, size_t q) { return X(p, f) < X(q, f); });
    for (size_t k = 0; k + 1 < order.size(); ++k) {
      const double value = X(order[k], f);
      const double next = X(order[k + 1], f);
      if (next <= value) continue;
      best = std::max(best, SplitScore(X, samples, f, 0.5 * (value + next), a,
                                       b, score));
    }
  }
  return best;
}

}  // namespace testing_splits
}  // namespace omnifair

#endif  // OMNIFAIR_TESTS_TESTING_SPLITS_H_
