// Unit tests for the histogram-mode binning subsystem (DESIGN.md §11):
// boundary placement, the coding invariant that makes bin splits realizable
// as real thresholds, node-histogram accumulation and subtraction, serial
// vs parallel bit-identity, and cache reuse across refits.

#include "ml/binning.h"

#include <cstring>
#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "util/random.h"
#include "util/telemetry.h"

namespace omnifair {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix X(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t f = 0; f < cols; ++f) X.Set(i, f, rng.NextGaussian(0.0, 3.0));
  }
  return X;
}

TEST(BinningTest, ConstantFeatureGetsSingleBin) {
  Matrix X(50, 2);
  for (size_t i = 0; i < X.rows(); ++i) {
    X.Set(i, 0, 7.25);                         // constant
    X.Set(i, 1, static_cast<double>(i % 10));  // varying
  }
  const auto binned = BinnedMatrix::Build(X, 255);
  EXPECT_EQ(binned->NumBins(0), 1);
  EXPECT_EQ(binned->NumBins(1), 10);
  const uint8_t* codes = binned->Column(0);
  for (size_t i = 0; i < X.rows(); ++i) EXPECT_EQ(codes[i], 0);
}

TEST(BinningTest, FewDistinctValuesGetOneBinEach) {
  // 4 distinct values, far fewer than max_bins: one bin per value, with
  // boundaries at the midpoints between adjacent values.
  Matrix X(40, 1);
  const double values[4] = {-2.0, 0.5, 3.0, 9.0};
  for (size_t i = 0; i < X.rows(); ++i) X.Set(i, 0, values[i % 4]);
  const auto binned = BinnedMatrix::Build(X, 255);
  ASSERT_EQ(binned->NumBins(0), 4);
  EXPECT_DOUBLE_EQ(binned->Boundary(0, 0), 0.5 * (-2.0 + 0.5));
  EXPECT_DOUBLE_EQ(binned->Boundary(0, 1), 0.5 * (0.5 + 3.0));
  EXPECT_DOUBLE_EQ(binned->Boundary(0, 2), 0.5 * (3.0 + 9.0));
  const uint8_t* codes = binned->Column(0);
  for (size_t i = 0; i < X.rows(); ++i) EXPECT_EQ(codes[i], i % 4);
}

TEST(BinningTest, QuantileBinsAreNearEqualCount) {
  // 4000 distinct values into 8 bins: every bin holds ~n/8 rows even though
  // the value distribution is heavily skewed.
  Matrix X(4000, 1);
  Rng rng(3);
  for (size_t i = 0; i < X.rows(); ++i) {
    const double u = rng.NextUniform(0.0, 1.0);
    X.Set(i, 0, u * u * u);  // skewed toward 0
  }
  const auto binned = BinnedMatrix::Build(X, 8);
  ASSERT_EQ(binned->NumBins(0), 8);
  std::vector<size_t> counts(8, 0);
  const uint8_t* codes = binned->Column(0);
  for (size_t i = 0; i < X.rows(); ++i) ++counts[codes[i]];
  for (size_t b = 0; b < counts.size(); ++b) {
    EXPECT_GT(counts[b], X.rows() / 16) << "bin " << b;
    EXPECT_LT(counts[b], X.rows() / 4) << "bin " << b;
  }
}

TEST(BinningTest, CodingInvariantHolds) {
  // code <= b  <=>  value <= Boundary(f, b): training-time partitions by
  // code must agree with prediction-time partitions by threshold.
  const Matrix X = RandomMatrix(500, 3, 11);
  const auto binned = BinnedMatrix::Build(X, 16);
  for (size_t f = 0; f < X.cols(); ++f) {
    const uint8_t* codes = binned->Column(f);
    for (int b = 0; b + 1 < binned->NumBins(f); ++b) {
      const double threshold = binned->Boundary(f, b);
      for (size_t i = 0; i < X.rows(); ++i) {
        EXPECT_EQ(codes[i] <= b, X(i, f) <= threshold)
            << "feature " << f << " bin " << b << " row " << i;
      }
    }
  }
}

TEST(BinningTest, BoundariesStrictlyIncreasing) {
  const Matrix X = RandomMatrix(1000, 4, 21);
  const auto binned = BinnedMatrix::Build(X, 32);
  for (size_t f = 0; f < X.cols(); ++f) {
    for (int b = 1; b + 1 < binned->NumBins(f); ++b) {
      EXPECT_GT(binned->Boundary(f, b), binned->Boundary(f, b - 1));
    }
  }
}

TEST(BinningTest, ParallelBuildMatchesSerial) {
  const Matrix X = RandomMatrix(800, 6, 31);
  const auto serial = BinnedMatrix::Build(X, 64, /*num_threads=*/1);
  const auto parallel = BinnedMatrix::Build(X, 64, /*num_threads=*/4);
  for (size_t f = 0; f < X.cols(); ++f) {
    ASSERT_EQ(serial->NumBins(f), parallel->NumBins(f));
    for (int b = 0; b + 1 < serial->NumBins(f); ++b) {
      EXPECT_EQ(serial->Boundary(f, b), parallel->Boundary(f, b));
    }
    EXPECT_EQ(std::memcmp(serial->Column(f), parallel->Column(f), X.rows()), 0);
  }
}

TEST(BinningTest, NodeHistogramMatchesDirectSums) {
  const Matrix X = RandomMatrix(300, 3, 41);
  const auto binned = BinnedMatrix::Build(X, 16);
  Rng rng(5);
  std::vector<double> a(X.rows());
  std::vector<double> b(X.rows());
  for (size_t i = 0; i < X.rows(); ++i) {
    a[i] = rng.NextUniform(0.0, 2.0);
    b[i] = rng.NextUniform(0.0, 1.0);
  }
  std::vector<size_t> samples;
  for (size_t i = 0; i < X.rows(); i += 2) samples.push_back(i);

  NodeHistogram hist;
  FillNodeHistogram(*binned, samples, a.data(), b.data(), 1, &hist);

  for (size_t f = 0; f < X.cols(); ++f) {
    for (int bin = 0; bin < binned->NumBins(f); ++bin) {
      double want_a = 0.0;
      double want_b = 0.0;
      for (size_t i : samples) {
        if (binned->Column(f)[i] == bin) {
          want_a += a[i];
          want_b += b[i];
        }
      }
      const size_t idx = f * static_cast<size_t>(binned->max_bins()) + bin;
      EXPECT_DOUBLE_EQ(hist.first[idx], want_a);
      EXPECT_DOUBLE_EQ(hist.second[idx], want_b);
    }
  }
}

TEST(BinningTest, ParallelHistogramFillMatchesSerial) {
  // Big enough to cross the parallel-fill work cutoff.
  const Matrix X = RandomMatrix(20000, 4, 51);
  const auto binned = BinnedMatrix::Build(X, 32);
  std::vector<double> a(X.rows(), 1.0);
  std::vector<double> b(X.rows());
  for (size_t i = 0; i < X.rows(); ++i) b[i] = static_cast<double>(i % 7);
  std::vector<size_t> samples(X.rows());
  for (size_t i = 0; i < X.rows(); ++i) samples[i] = i;

  NodeHistogram serial;
  NodeHistogram parallel;
  FillNodeHistogram(*binned, samples, a.data(), b.data(), 1, &serial);
  FillNodeHistogram(*binned, samples, a.data(), b.data(), 4, &parallel);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
}

TEST(BinningTest, SubtractSiblingRecoversComplement) {
  const Matrix X = RandomMatrix(400, 2, 61);
  const auto binned = BinnedMatrix::Build(X, 16);
  std::vector<double> a(X.rows());
  std::vector<double> b(X.rows());
  for (size_t i = 0; i < X.rows(); ++i) {
    a[i] = 1.0 + static_cast<double>(i % 3);
    b[i] = 0.5 * static_cast<double>(i % 5);
  }
  std::vector<size_t> all(X.rows());
  std::vector<size_t> left;
  std::vector<size_t> right;
  for (size_t i = 0; i < X.rows(); ++i) {
    all[i] = i;
    (i % 3 == 0 ? left : right).push_back(i);
  }

  NodeHistogram parent;
  NodeHistogram left_hist;
  NodeHistogram right_hist;
  FillNodeHistogram(*binned, all, a.data(), b.data(), 1, &parent);
  FillNodeHistogram(*binned, left, a.data(), b.data(), 1, &left_hist);
  FillNodeHistogram(*binned, right, a.data(), b.data(), 1, &right_hist);

  parent.SubtractSibling(left_hist);  // parent - left == right
  for (size_t i = 0; i < parent.first.size(); ++i) {
    EXPECT_NEAR(parent.first[i], right_hist.first[i], 1e-9);
    EXPECT_NEAR(parent.second[i], right_hist.second[i], 1e-9);
  }
}

TEST(BinningTest, CacheReusesSameMatrixAndCountsIt) {
  const Matrix X = RandomMatrix(200, 3, 71);
  BinningCache cache;
  Counter* reused = MetricsRegistry::Global().GetCounter("tree.bins_reused");
  const long long reused_before = reused->Value();
  const auto first = cache.GetOrBuild(X, 1);
  const auto second = cache.GetOrBuild(X, 1);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_GT(reused->Value(), reused_before);
}

TEST(BinningTest, CacheRebuildsForDifferentMatrixAtFullResolution) {
  const Matrix X = RandomMatrix(200, 3, 81);
  const Matrix Y = RandomMatrix(200, 3, 91);
  BinningCache cache;
  const auto binned_x = cache.GetOrBuild(X, 1);
  const auto binned_y = cache.GetOrBuild(Y, 1);
  EXPECT_NE(binned_x.get(), binned_y.get());
  EXPECT_TRUE(binned_y->Matches(Y));
  EXPECT_FALSE(binned_y->Matches(X));
  EXPECT_EQ(binned_y->max_bins(), BinnedMatrix::kMaxBins);
}

TEST(BinningTest, MaxBinsClampedToCodeRange) {
  const Matrix X = RandomMatrix(600, 1, 101);
  const auto binned = BinnedMatrix::Build(X, 100000);
  EXPECT_EQ(binned->max_bins(), BinnedMatrix::kMaxBins);
  EXPECT_LE(binned->NumBins(0), BinnedMatrix::kMaxBins);
}

}  // namespace
}  // namespace omnifair
