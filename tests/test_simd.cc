#include "linalg/simd.h"

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/omnifair.h"
#include "data/datasets.h"
#include "data/split.h"
#include "linalg/vector_ops.h"
#include "ml/trainer_registry.h"

namespace omnifair {
namespace {

/// Every vector backend compiled in AND supported by this CPU. Empty on a
/// scalar-only machine, in which case the parity tests pass vacuously (the
/// dispatch layer itself is still exercised by every other suite).
std::vector<simd::Backend> VectorBackends() {
  std::vector<simd::Backend> backends;
  for (simd::Backend b : {simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::BackendAvailable(b)) backends.push_back(b);
  }
  return backends;
}

/// Deterministic non-trivial fill covering sign changes and magnitudes.
double Element(size_t i, double phase) {
  return (0.25 + static_cast<double>(i % 31)) *
         (i % 2 == 0 ? 1.0 : -1.0) * std::cos(phase + 0.1 * static_cast<double>(i));
}

/// The parity sweep: every size in [0, 257] (covers empty input, every
/// vector-width tail, and beyond one cache line) at several misalignments
/// (the kernels use unaligned loads; offsets make sure of it).
constexpr size_t kMaxN = 257;
constexpr size_t kOffsets[] = {0, 1, 3};

TEST(SimdParityTest, DotMatchesScalarToReassociationTolerance) {
  const simd::Kernels& ref = simd::ScalarKernels();
  for (simd::Backend backend : VectorBackends()) {
    const simd::Kernels& k = simd::KernelsFor(backend);
    for (size_t n = 0; n <= kMaxN; ++n) {
      for (size_t off : kOffsets) {
        std::vector<double> a(n + off), b(n + off);
        for (size_t i = 0; i < n + off; ++i) {
          a[i] = Element(i, 0.0);
          b[i] = Element(i, 1.0);
        }
        const double expected = ref.dot(a.data() + off, b.data() + off, n);
        const double got = k.dot(a.data() + off, b.data() + off, n);
        const double tol =
            1e-12 * std::max(1.0, std::fabs(expected)) * std::max<size_t>(n, 1);
        EXPECT_NEAR(got, expected, tol)
            << simd::BackendName(backend) << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST(SimdParityTest, SumMatchesScalarToReassociationTolerance) {
  const simd::Kernels& ref = simd::ScalarKernels();
  for (simd::Backend backend : VectorBackends()) {
    const simd::Kernels& k = simd::KernelsFor(backend);
    for (size_t n = 0; n <= kMaxN; ++n) {
      for (size_t off : kOffsets) {
        std::vector<double> v(n + off);
        for (size_t i = 0; i < n + off; ++i) v[i] = Element(i, 2.0);
        const double expected = ref.sum(v.data() + off, n);
        const double got = k.sum(v.data() + off, n);
        const double tol =
            1e-12 * std::max(1.0, std::fabs(expected)) * std::max<size_t>(n, 1);
        EXPECT_NEAR(got, expected, tol)
            << simd::BackendName(backend) << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST(SimdParityTest, AxpyMatchesScalarPerElement) {
  const simd::Kernels& ref = simd::ScalarKernels();
  for (simd::Backend backend : VectorBackends()) {
    const simd::Kernels& k = simd::KernelsFor(backend);
    for (size_t n = 0; n <= kMaxN; ++n) {
      for (size_t off : kOffsets) {
        std::vector<double> x(n + off), y0(n + off), y1;
        for (size_t i = 0; i < n + off; ++i) {
          x[i] = Element(i, 3.0);
          y0[i] = Element(i, 4.0);
        }
        y1 = y0;
        ref.axpy(0.37, x.data() + off, y0.data() + off, n);
        k.axpy(0.37, x.data() + off, y1.data() + off, n);
        for (size_t i = 0; i < n + off; ++i) {
          // Elementwise: only one FMA-vs-mul/add rounding of difference.
          EXPECT_NEAR(y1[i], y0[i], 1e-12 * std::max(1.0, std::fabs(y0[i])))
              << simd::BackendName(backend) << " n=" << n << " off=" << off
              << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdParityTest, ScaleIsBitIdenticalToScalar) {
  const simd::Kernels& ref = simd::ScalarKernels();
  for (simd::Backend backend : VectorBackends()) {
    const simd::Kernels& k = simd::KernelsFor(backend);
    for (size_t n = 0; n <= kMaxN; ++n) {
      for (size_t off : kOffsets) {
        std::vector<double> v0(n + off), v1;
        for (size_t i = 0; i < n + off; ++i) v0[i] = Element(i, 5.0);
        v1 = v0;
        ref.scale(-1.75, v0.data() + off, n);
        k.scale(-1.75, v1.data() + off, n);
        // One multiply per element in both paths: identical rounding.
        for (size_t i = 0; i < n + off; ++i) {
          EXPECT_EQ(v1[i], v0[i])
              << simd::BackendName(backend) << " n=" << n << " off=" << off;
        }
      }
    }
  }
}

TEST(SimdParityTest, SigmoidMatchesScalarWithinPolynomialTolerance) {
  const simd::Kernels& ref = simd::ScalarKernels();
  for (simd::Backend backend : VectorBackends()) {
    const simd::Kernels& k = simd::KernelsFor(backend);
    for (size_t n = 0; n <= kMaxN; ++n) {
      for (size_t off : kOffsets) {
        std::vector<double> v0(n + off), v1;
        for (size_t i = 0; i < n + off; ++i) {
          // Spans deep saturation on both sides plus the near-linear middle.
          v0[i] = -40.0 + 80.0 * static_cast<double>(i % 101) / 100.0;
        }
        v1 = v0;
        ref.sigmoid_inplace(v0.data() + off, n);
        k.sigmoid_inplace(v1.data() + off, n);
        for (size_t i = off; i < n + off; ++i) {
          EXPECT_NEAR(v1[i], v0[i], 1e-12)
              << simd::BackendName(backend) << " n=" << n << " off=" << off;
          EXPECT_GE(v1[i], 0.0);
          EXPECT_LE(v1[i], 1.0);
        }
      }
    }
  }
}

TEST(SimdParityTest, SigmoidHandlesExtremeArguments) {
  for (simd::Backend backend : VectorBackends()) {
    const simd::Kernels& k = simd::KernelsFor(backend);
    std::vector<double> v = {-1e4, -710.0, -0.0, 0.0, 710.0, 1e4, 36.7, -36.7};
    k.sigmoid_inplace(v.data(), v.size());
    EXPECT_NEAR(v[0], 0.0, 1e-300);
    EXPECT_NEAR(v[1], 0.0, 1e-300);
    EXPECT_DOUBLE_EQ(v[2], 0.5);
    EXPECT_DOUBLE_EQ(v[3], 0.5);
    EXPECT_DOUBLE_EQ(v[4], 1.0);
    EXPECT_DOUBLE_EQ(v[5], 1.0);
    for (double p : v) {
      EXPECT_TRUE(std::isfinite(p));
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(SimdParityTest, DotSigmoidMatchesScalar) {
  const simd::Kernels& ref = simd::ScalarKernels();
  for (simd::Backend backend : VectorBackends()) {
    const simd::Kernels& k = simd::KernelsFor(backend);
    for (size_t n : {0u, 1u, 7u, 64u, 257u}) {
      std::vector<double> a(n), b(n);
      for (size_t i = 0; i < n; ++i) {
        a[i] = 0.01 * Element(i, 0.5);
        b[i] = 0.01 * Element(i, 1.5);
      }
      const double expected = ref.dot_sigmoid(a.data(), b.data(), n, -0.3);
      const double got = k.dot_sigmoid(a.data(), b.data(), n, -0.3);
      EXPECT_NEAR(got, expected, 1e-12) << simd::BackendName(backend) << " n=" << n;
    }
  }
}

TEST(SimdParityTest, SoftmaxRowsMatchesScalarAndNormalizes) {
  const simd::Kernels& ref = simd::ScalarKernels();
  for (simd::Backend backend : VectorBackends()) {
    const simd::Kernels& k = simd::KernelsFor(backend);
    for (size_t cols : {1u, 3u, 8u, 37u}) {
      const size_t rows = 5;
      std::vector<double> m0(rows * cols), m1;
      for (size_t i = 0; i < m0.size(); ++i) m0[i] = Element(i, 6.0);
      m1 = m0;
      ref.softmax_rows(m0.data(), rows, cols);
      k.softmax_rows(m1.data(), rows, cols);
      for (size_t i = 0; i < m0.size(); ++i) {
        EXPECT_NEAR(m1[i], m0[i], 1e-12)
            << simd::BackendName(backend) << " cols=" << cols << " i=" << i;
      }
      for (size_t r = 0; r < rows; ++r) {
        double total = 0.0;
        for (size_t c = 0; c < cols; ++c) total += m1[r * cols + c];
        EXPECT_NEAR(total, 1.0, 1e-12);
      }
    }
  }
}

TEST(SimdParityTest, Float32VariantsMatchScalar) {
  const simd::Kernels& ref = simd::ScalarKernels();
  for (simd::Backend backend : VectorBackends()) {
    const simd::Kernels& k = simd::KernelsFor(backend);
    for (size_t n = 0; n <= kMaxN; ++n) {
      for (size_t off : kOffsets) {
        std::vector<float> a(n + off);
        std::vector<double> b(n + off), y0(n + off), y1;
        for (size_t i = 0; i < n + off; ++i) {
          a[i] = static_cast<float>(Element(i, 7.0));
          b[i] = Element(i, 8.0);
          y0[i] = Element(i, 9.0);
        }
        y1 = y0;
        const double dot_ref = ref.dot_f32(a.data() + off, b.data() + off, n);
        const double dot_got = k.dot_f32(a.data() + off, b.data() + off, n);
        const double tol =
            1e-12 * std::max(1.0, std::fabs(dot_ref)) * std::max<size_t>(n, 1);
        EXPECT_NEAR(dot_got, dot_ref, tol)
            << simd::BackendName(backend) << " n=" << n << " off=" << off;
        ref.axpy_f32(-0.61, a.data() + off, y0.data() + off, n);
        k.axpy_f32(-0.61, a.data() + off, y1.data() + off, n);
        for (size_t i = 0; i < n + off; ++i) {
          EXPECT_NEAR(y1[i], y0[i], 1e-12 * std::max(1.0, std::fabs(y0[i])));
        }
        EXPECT_NEAR(k.dot_sigmoid_f32(a.data() + off, b.data() + off, n, 0.2),
                    ref.dot_sigmoid_f32(a.data() + off, b.data() + off, n, 0.2),
                    1e-12);
      }
    }
  }
}

TEST(SimdDispatchTest, ScalarBackendAlwaysAvailable) {
  EXPECT_TRUE(simd::BackendAvailable(simd::Backend::kScalar));
  EXPECT_EQ(std::string(simd::BackendName(simd::Backend::kScalar)), "scalar");
  const simd::Kernels& k = simd::KernelsFor(simd::Backend::kScalar);
  const double v[] = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(k.sum(v, 3), 6.0);
}

TEST(SimdDispatchTest, SetActiveBackendSwitchesTheTable) {
  const simd::Backend original = simd::ActiveBackend();
  simd::SetActiveBackend(simd::Backend::kScalar);
  EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
  EXPECT_EQ(&simd::Active(), &simd::ScalarKernels());
  simd::SetActiveBackend(original);
  EXPECT_EQ(simd::ActiveBackend(), original);
}

/// Public vector_ops entry points route through the active table.
TEST(SimdDispatchTest, VectorOpsRouteThroughDispatch) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> b = {2.0, 0.5, -1.0, 3.0, 0.25};
  EXPECT_DOUBLE_EQ(Dot(a, b), 1.0 * 2.0 + 2.0 * 0.5 + 3.0 * -1.0 + 4.0 * 3.0 +
                                  5.0 * 0.25);
  std::vector<double> v = {0.0, -800.0, 800.0};
  SigmoidInPlace(&v);
  EXPECT_DOUBLE_EQ(v[0], 0.5);
  EXPECT_NEAR(v[1], 0.0, 1e-300);
  EXPECT_DOUBLE_EQ(v[2], 1.0);
}

/// End-to-end determinism contract: the full declarative pipeline selects
/// the same λ and lands within 1e-9 accuracy whether the vector backend or
/// the forced-scalar escape hatch (OMNIFAIR_SIMD=off) is active. Run for
/// every available backend; vacuous on scalar-only machines.
TEST(SimdEndToEndTest, TrainOutcomeMatchesScalarBackend) {
  SyntheticOptions options;
  options.num_rows = 1500;
  options.seed = 11;
  Dataset data = MakeCompasDataset(options);
  TrainValTestSplit split = SplitDefault(data, 5);
  const FairnessSpec spec = MakeSpec(
      GroupByAttributeValues("race", {"African-American", "Caucasian"}), "sp",
      0.05);

  const simd::Backend original = simd::ActiveBackend();
  auto train_once = [&](simd::Backend backend) {
    simd::SetActiveBackend(backend);
    auto trainer = MakeTrainer("lr");
    OmniFair omnifair;
    auto fair = omnifair.Train(split.train, split.val, trainer.get(), {spec});
    EXPECT_TRUE(fair.ok()) << fair.status();
    return std::move(*fair);
  };

  auto scalar_run = train_once(simd::Backend::kScalar);
  for (simd::Backend backend : VectorBackends()) {
    auto simd_run = train_once(backend);
    ASSERT_EQ(simd_run.lambdas.size(), scalar_run.lambdas.size());
    for (size_t j = 0; j < scalar_run.lambdas.size(); ++j) {
      EXPECT_DOUBLE_EQ(simd_run.lambdas[j], scalar_run.lambdas[j])
          << simd::BackendName(backend);
    }
    EXPECT_NEAR(simd_run.val_accuracy, scalar_run.val_accuracy, 1e-9)
        << simd::BackendName(backend);
    ASSERT_EQ(simd_run.val_fairness_parts.size(),
              scalar_run.val_fairness_parts.size());
    for (size_t j = 0; j < scalar_run.val_fairness_parts.size(); ++j) {
      EXPECT_NEAR(simd_run.val_fairness_parts[j],
                  scalar_run.val_fairness_parts[j], 1e-9)
          << simd::BackendName(backend);
    }
    EXPECT_EQ(simd_run.satisfied, scalar_run.satisfied);
  }
  simd::SetActiveBackend(original);
}

/// Float32 feature storage trains end to end and lands near the retired
/// double-feature pipeline: features lose one float rounding at encode time,
/// the rest of the arithmetic is unchanged. The constants are what this
/// same run gave with double feature storage (satisfied, at lambda
/// -0.12890625).
TEST(SimdEndToEndTest, Float32StorageTrainsCloseToDouble) {
  constexpr double kDoubleValAccuracy = 0.81333333333333335;
  constexpr double kDoubleValFairnessPart = 0.033522727272727093;
  SyntheticOptions options;
  options.num_rows = 1500;
  options.seed = 11;
  Dataset data = MakeCompasDataset(options);
  TrainValTestSplit split = SplitDefault(data, 5);
  const FairnessSpec spec = MakeSpec(
      GroupByAttributeValues("race", {"African-American", "Caucasian"}), "sp",
      0.05);

  auto trainer = MakeTrainer("lr");
  auto fair = OmniFair().Train(split.train, split.val, trainer.get(), {spec});
  ASSERT_TRUE(fair.ok()) << fair.status();
  EXPECT_TRUE(fair->satisfied);
  EXPECT_NEAR(fair->val_accuracy, kDoubleValAccuracy, 0.02);
  ASSERT_EQ(fair->val_fairness_parts.size(), 1u);
  EXPECT_NEAR(fair->val_fairness_parts[0], kDoubleValFairnessPart, 0.02);
}

}  // namespace
}  // namespace omnifair
