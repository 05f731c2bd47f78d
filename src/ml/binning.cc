#include "ml/binning.h"

#include <algorithm>
#include <cstring>

#include "linalg/simd.h"
#include "util/logging.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace omnifair {
namespace {

/// splitmix64 finalizer — decorrelates the sampled doubles' bit patterns.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Cheap content fingerprint: shape plus up to 64 words sampled from the raw
/// element payload at a fixed stride. Combined with the storage-pointer check
/// in Matches this makes accidental reuse against a different matrix
/// vanishingly unlikely while keeping validation O(1) in the matrix size.
uint64_t FingerprintMatrix(const Matrix& X) {
  const unsigned char* bytes = static_cast<const unsigned char*>(X.RawData());
  const size_t nbytes = X.RawBytes();
  uint64_t h = Mix64(X.rows() * 0x100000001b3ULL ^ X.cols());
  if (nbytes < sizeof(uint64_t)) return h;
  const size_t words = nbytes / sizeof(uint64_t);
  const size_t samples = std::min<size_t>(64, words);
  const size_t stride = std::max<size_t>(1, words / samples);
  for (size_t w = 0; w < words; w += stride) {
    uint64_t bits;
    std::memcpy(&bits, bytes + w * sizeof(uint64_t), sizeof(bits));
    h = Mix64(h ^ bits);
  }
  uint64_t last;
  std::memcpy(&last, bytes + nbytes - sizeof(uint64_t), sizeof(last));
  return Mix64(h ^ last);
}

/// Builds one column's boundaries from its sorted values: at most
/// `max_bins` near-equal-count bins, cutting only between distinct values
/// (so every boundary is a realizable threshold). Pure integer/double
/// arithmetic over the sorted order — deterministic.
std::vector<double> ColumnBoundaries(std::vector<double>& sorted, int max_bins) {
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  std::vector<double> boundaries;

  // Distinct-value runs: cut positions are the starts of runs after the
  // first; fewer distinct values than bins means one bin per value.
  std::vector<size_t> run_end;  // exclusive end index of each run
  for (size_t i = 1; i <= n; ++i) {
    if (i == n || sorted[i] > sorted[i - 1]) run_end.push_back(i);
  }
  const size_t distinct = run_end.size();
  if (distinct <= 1) return boundaries;  // constant column: a single bin

  const size_t bins = static_cast<size_t>(max_bins);
  if (distinct <= bins) {
    boundaries.reserve(distinct - 1);
    for (size_t r = 0; r + 1 < distinct; ++r) {
      const size_t cut = run_end[r];  // first index of the next run
      boundaries.push_back(0.5 * (sorted[cut - 1] + sorted[cut]));
    }
    return boundaries;
  }

  // More distinct values than bins: place cut k at the first run boundary
  // whose cumulative count reaches rank k * n / bins. Skipping already-passed
  // ranks keeps boundaries strictly increasing when one fat run swallows
  // several quantiles.
  boundaries.reserve(bins - 1);
  size_t next_cut = 1;
  for (size_t r = 0; r + 1 < distinct && boundaries.size() + 1 < bins; ++r) {
    const size_t cumulative = run_end[r];
    const size_t target = next_cut * n / bins;
    if (cumulative < target) continue;
    const size_t cut = run_end[r];
    boundaries.push_back(0.5 * (sorted[cut - 1] + sorted[cut]));
    while (next_cut < bins && next_cut * n / bins <= cumulative) ++next_cut;
  }
  return boundaries;
}

}  // namespace

std::shared_ptr<const BinnedMatrix> BinnedMatrix::Build(const Matrix& X,
                                                        int max_bins,
                                                        int num_threads) {
  OF_CHECK_GT(X.rows(), 0u);
  OF_CHECK_GT(X.cols(), 0u);
  OF_TRACE_SPAN("binning/build");
  OF_SCOPED_LATENCY_US("tree.hist_build_us");

  max_bins = std::clamp(max_bins, 2, kMaxBins);
  auto binned = std::shared_ptr<BinnedMatrix>(new BinnedMatrix());
  binned->rows_ = X.rows();
  binned->cols_ = X.cols();
  binned->max_bins_ = max_bins;
  binned->source_data_ = X.RawData();
  binned->fingerprint_ = FingerprintMatrix(X);
  binned->boundaries_.resize(X.cols());
  binned->codes_.resize(X.rows() * X.cols());

  const size_t rows = X.rows();
  auto bin_column = [&](size_t f) {
    std::vector<double> sorted(rows);
    for (size_t i = 0; i < rows; ++i) sorted[i] = X(i, f);
    std::vector<double>& bounds = binned->boundaries_[f];
    bounds = ColumnBoundaries(sorted, max_bins);
    uint8_t* codes = binned->codes_.data() + f * rows;
    if (bounds.empty()) {
      std::memset(codes, 0, rows);
      return;
    }
    for (size_t i = 0; i < rows; ++i) {
      // First boundary >= value: code c <= b  <=>  value <= bounds[b].
      codes[i] = static_cast<uint8_t>(
          std::lower_bound(bounds.begin(), bounds.end(), X(i, f)) -
          bounds.begin());
    }
  };

  // Each column is owned by exactly one task, so parallel builds write
  // disjoint ranges and match the serial build bit for bit.
  if (num_threads > 1 && X.cols() > 1) {
    ThreadPool::Global().ParallelFor(X.cols(), bin_column, num_threads);
  } else {
    for (size_t f = 0; f < X.cols(); ++f) bin_column(f);
  }
  return binned;
}

bool BinnedMatrix::Matches(const Matrix& X) const {
  return rows_ == X.rows() && cols_ == X.cols() && source_data_ == X.RawData() &&
         fingerprint_ == FingerprintMatrix(X);
}

void FillNodeHistogram(const BinnedMatrix& binned,
                       const std::vector<size_t>& samples,
                       const double* stat_a, const double* stat_b,
                       int num_threads, NodeHistogram* hist) {
  hist->Reset(binned);
  const size_t stride = static_cast<size_t>(binned.max_bins());
  const size_t n = samples.size();
  auto fill_feature = [&](size_t f) {
    const uint8_t* codes = binned.Column(f);
    double* a = hist->first.data() + f * stride;
    double* b = hist->second.data() + f * stride;
    const size_t nb = static_cast<size_t>(binned.NumBins(f));
    // Large nodes: accumulate into four interleaved stripes of private bin
    // arrays, then merge. Repeated bin codes in consecutive samples create a
    // load-store dependence chain in the naive loop; striping by sample index
    // gives the core four independent chains. Stripe membership and the
    // pairwise merge order are fixed functions of the sample index, so the
    // result is deterministic for any thread count. The size gate only
    // affects speed: small nodes keep the direct scan, and the stripes' extra
    // zeroing/merge is amortized only when samples dominate bins.
    if (n >= 512 && n >= 8 * nb) {
      thread_local std::vector<double> scratch;
      scratch.assign(8 * stride, 0.0);
      double* sa = scratch.data();                // stripes 0..3 of `a`
      double* sb = scratch.data() + 4 * stride;   // stripes 0..3 of `b`
      const size_t n4 = n - (n % 4);
      for (size_t k = 0; k < n4; k += 4) {
        const size_t i0 = samples[k + 0];
        const size_t i1 = samples[k + 1];
        const size_t i2 = samples[k + 2];
        const size_t i3 = samples[k + 3];
        sa[0 * stride + codes[i0]] += stat_a[i0];
        sb[0 * stride + codes[i0]] += stat_b[i0];
        sa[1 * stride + codes[i1]] += stat_a[i1];
        sb[1 * stride + codes[i1]] += stat_b[i1];
        sa[2 * stride + codes[i2]] += stat_a[i2];
        sb[2 * stride + codes[i2]] += stat_b[i2];
        sa[3 * stride + codes[i3]] += stat_a[i3];
        sb[3 * stride + codes[i3]] += stat_b[i3];
      }
      for (size_t k = n4; k < n; ++k) {
        const size_t i = samples[k];
        sa[(k % 4) * stride + codes[i]] += stat_a[i];
        sb[(k % 4) * stride + codes[i]] += stat_b[i];
      }
      for (size_t bin = 0; bin < nb; ++bin) {
        a[bin] = (sa[bin] + sa[stride + bin]) +
                 (sa[2 * stride + bin] + sa[3 * stride + bin]);
        b[bin] = (sb[bin] + sb[stride + bin]) +
                 (sb[2 * stride + bin] + sb[3 * stride + bin]);
      }
    } else {
      for (size_t i : samples) {
        a[codes[i]] += stat_a[i];
        b[codes[i]] += stat_b[i];
      }
    }
  };
  // Fan out across features only when the node is big enough for the task
  // overhead to amortize; the cutoff only affects speed, never the result.
  constexpr size_t kMinParallelWork = size_t{1} << 15;
  if (num_threads > 1 && binned.cols() > 1 &&
      samples.size() * binned.cols() >= kMinParallelWork) {
    ThreadPool::Global().ParallelFor(binned.cols(), fill_feature, num_threads);
  } else {
    for (size_t f = 0; f < binned.cols(); ++f) fill_feature(f);
  }
}

void NodeHistogram::SubtractSibling(const NodeHistogram& smaller) {
  const simd::Kernels& k = simd::Active();
  k.axpy(-1.0, smaller.first.data(), first.data(), first.size());
  k.axpy(-1.0, smaller.second.data(), second.data(), second.size());
}

std::shared_ptr<const BinnedMatrix> BinningCache::GetOrBuild(const Matrix& X,
                                                             int num_threads) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cached_ != nullptr && cached_->Matches(X)) {
    OF_COUNTER_INC("tree.bins_reused");
    return cached_;
  }
  cached_ = BinnedMatrix::Build(X, BinnedMatrix::kMaxBins, num_threads);
  return cached_;
}

}  // namespace omnifair
