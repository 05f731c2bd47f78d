#ifndef OMNIFAIR_ML_BINNING_H_
#define OMNIFAIR_ML_BINNING_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "linalg/matrix.h"

namespace omnifair {

/// A feature matrix pre-quantized for histogram split search, the only split
/// search the tree learners use (DESIGN.md §11): each feature is binned once
/// per feature matrix, split search scans bin histograms in
/// O(features * bins) per node, and children reuse the parent histogram via
/// subtraction. Thresholds are still real doubles (midpoints of adjacent bin
/// edges), so prediction and serialization never see the bins. Immutable
/// once built; safe to share across threads, trees, and trainer clones.
///
/// Binning is a pure function of X (each row counts once — unit-weight
/// quantiles), NOT of the example weights, so one BinnedMatrix serves every
/// λ refit of a tuning run even though the weights change per fit.
class BinnedMatrix {
 public:
  /// Bin codes are uint8_t, so at most 255 bins (code 255 is unused head
  /// room kept for future missing-value support).
  static constexpr int kMaxBins = 255;

  /// Quantile-bins every column of X into at most `max_bins` bins
  /// (clamped to [2, kMaxBins]). Trainers always bin at kMaxBins; the
  /// argument exists for tests of the quantile coding itself. Columns are
  /// binned independently — in parallel on the shared pool when
  /// `num_threads` > 1 — and each column is coded by a single serial scan,
  /// so the result is bit-identical for any thread count.
  static std::shared_ptr<const BinnedMatrix> Build(const Matrix& X,
                                                   int max_bins,
                                                   int num_threads = 1);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  int max_bins() const { return max_bins_; }

  /// Number of bins actually used by `feature` (1 for a constant column;
  /// equal to the distinct-value count when that is below max_bins).
  int NumBins(size_t feature) const {
    return static_cast<int>(boundaries_[feature].size()) + 1;
  }

  /// Column-major codes: Column(f)[i] is row i's bin index in feature f.
  const uint8_t* Column(size_t feature) const {
    return codes_.data() + feature * rows_;
  }

  /// The real-valued threshold realizing the split "bin <= b": the midpoint
  /// between the largest source value in bin b and the smallest in bin b+1.
  /// Valid for b in [0, NumBins(feature) - 2]. The coding invariant is
  ///   Column(f)[i] <= b  <=>  X(i, f) <= Boundary(f, b),
  /// so training-time partitions by code agree with prediction-time
  /// partitions by threshold.
  double Boundary(size_t feature, int bin) const {
    return boundaries_[feature][static_cast<size_t>(bin)];
  }

  /// Whether this binning was built from a matrix indistinguishable from X
  /// (same storage, shape, and sampled contents). Used by BinningCache and
  /// the trainers to validate reuse.
  bool Matches(const Matrix& X) const;

 private:
  BinnedMatrix() = default;

  size_t rows_ = 0;
  size_t cols_ = 0;
  int max_bins_ = 0;
  const void* source_data_ = nullptr;
  uint64_t fingerprint_ = 0;
  /// boundaries_[f] is strictly increasing, NumBins(f) - 1 entries.
  std::vector<std::vector<double>> boundaries_;
  /// cols * rows codes, column-major.
  std::vector<uint8_t> codes_;
};

/// Per-node split-search statistics: two weighted accumulators per
/// (feature, bin) — (sum_w, sum_w_pos) for CART, (sum_grad, sum_hess) for
/// GBDT. Flattened with a uniform per-feature stride of max_bins so both
/// tree builders index it the same way. The parent-minus-sibling trick
/// (SubtractSibling) means only the smaller child of a split ever rescans
/// its rows; the larger child's histogram is derived by subtraction.
struct NodeHistogram {
  std::vector<double> first;
  std::vector<double> second;

  void Reset(const BinnedMatrix& binned) {
    const size_t size = binned.cols() * static_cast<size_t>(binned.max_bins());
    first.assign(size, 0.0);
    second.assign(size, 0.0);
  }

  /// In place: this -= smaller (elementwise). Turns a parent histogram into
  /// the larger child's. Runs on the simd axpy kernel with a = -1; the -1 * x
  /// product is exact, so fused or not, every element comes out as one
  /// correctly rounded subtraction — bit-identical across backends.
  void SubtractSibling(const NodeHistogram& smaller);
};

/// Accumulates (stat_a[i], stat_b[i]) over the sample rows into `hist`,
/// feature by feature. Each feature's pair of bin arrays is filled by
/// exactly one task with a serial scan in sample order, so the histograms
/// — and therefore the fitted trees — are bit-identical for any
/// `num_threads`. Small nodes stay serial regardless (the fan-out would
/// cost more than the scan).
void FillNodeHistogram(const BinnedMatrix& binned,
                       const std::vector<size_t>& samples,
                       const double* stat_a, const double* stat_b,
                       int num_threads, NodeHistogram* hist);

/// Thread-safe memo of the most recent BinnedMatrix, binned at kMaxBins. A
/// trainer and all of its Clone()s share one cache (a shared_ptr member
/// copied on Clone), so a tuning run that fits dozens of clones on the same
/// X bins it exactly once: the first fit builds (recorded in the
/// `tree.hist_build_us` histogram), every later fit reuses (counted by
/// `tree.bins_reused`).
class BinningCache {
 public:
  std::shared_ptr<const BinnedMatrix> GetOrBuild(const Matrix& X,
                                                 int num_threads);

 private:
  std::mutex mu_;
  std::shared_ptr<const BinnedMatrix> cached_;
};

}  // namespace omnifair

#endif  // OMNIFAIR_ML_BINNING_H_
