#include "core/fairness_metric.h"

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "ml/metrics.h"
#include "tests/testing_fairness.h"
#include "util/random.h"

namespace omnifair {
namespace {

using testing_fairness::MakeBiasedDataset;

/// Direct (confusion-count) computation of each named metric on a group.
double DirectMetric(const std::string& name, const Dataset& d,
                    const std::vector<size_t>& group,
                    const std::vector<int>& predictions) {
  const ConfusionCounts counts = CountConfusion(d.labels(), predictions, group);
  if (name == "sp") return counts.PositivePredictionRate();
  if (name == "mr") return counts.Accuracy();
  if (name == "fpr") return counts.FalsePositiveRate();
  if (name == "fnr") return counts.FalseNegativeRate();
  if (name == "for") return counts.FalseOmissionRate();
  if (name == "fdr") return counts.FalseDiscoveryRate();
  ADD_FAILURE() << "unknown metric " << name;
  return 0.0;
}

/// THE core property of Definition 3: the coefficient identity
/// f(h,g) = sum_i c_i 1(h(x_i)=y_i) + c0 must reproduce the probabilistic
/// definition of every metric, for arbitrary data and predictions.
class CoefficientIdentityTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(CoefficientIdentityTest, EvaluateMatchesDirectDefinition) {
  const auto& [name, seed] = GetParam();
  const Dataset d = MakeBiasedDataset(300, 0.6, 0.3, seed);
  Rng rng(seed * 977 + 3);
  std::vector<int> predictions(d.NumRows());
  for (int& p : predictions) p = rng.NextBernoulli(0.45) ? 1 : 0;

  const auto metric = MakeMetricByName(name);
  // Group = all members of "a", and also a scattered subset.
  std::vector<size_t> group_a;
  std::vector<size_t> scattered;
  for (size_t i = 0; i < d.NumRows(); ++i) {
    if (d.ColumnByName("grp").CategoryOf(i) == "a") group_a.push_back(i);
    if (i % 3 == 0) scattered.push_back(i);
  }
  for (const auto& group : {group_a, scattered}) {
    const double via_coefficients = metric->Evaluate(d, group, predictions);
    const double direct = DirectMetric(name, d, group, predictions);
    EXPECT_NEAR(via_coefficients, direct, 1e-10)
        << "metric " << name << " group size " << group.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMetricsBySeeds, CoefficientIdentityTest,
    ::testing::Combine(::testing::Values("sp", "mr", "fpr", "fnr", "for", "fdr"),
                       ::testing::Values(1, 2, 3, 4, 5)));

TEST(FairnessMetricTest, SpCoefficientsMatchTable2) {
  const Dataset d = MakeBiasedDataset(100, 0.5, 0.5, 42);
  std::vector<size_t> group;
  for (size_t i = 0; i < 50; ++i) group.push_back(i);
  const auto metric = MakeMetric(MetricKind::kStatisticalParity);
  const MetricCoefficients coef = metric->Coefficients(d, group, nullptr);
  size_t negatives = 0;
  for (size_t k = 0; k < group.size(); ++k) {
    if (d.Label(group[k]) == 1) {
      EXPECT_NEAR(coef.c[k], 1.0 / 50.0, 1e-12);
    } else {
      EXPECT_NEAR(coef.c[k], -1.0 / 50.0, 1e-12);
      ++negatives;
    }
  }
  EXPECT_NEAR(coef.c0, static_cast<double>(negatives) / 50.0, 1e-12);
}

TEST(FairnessMetricTest, MrCoefficientsUniform) {
  const Dataset d = MakeBiasedDataset(60, 0.5, 0.5, 43);
  std::vector<size_t> group = {0, 5, 10, 20};
  const auto metric = MakeMetric(MetricKind::kMisclassificationRate);
  const MetricCoefficients coef = metric->Coefficients(d, group, nullptr);
  for (double c : coef.c) EXPECT_NEAR(c, 0.25, 1e-12);
  EXPECT_NEAR(coef.c0, 0.0, 1e-12);
}

TEST(FairnessMetricTest, PredictionDependenceFlags) {
  EXPECT_FALSE(MakeMetricByName("sp")->DependsOnPredictions());
  EXPECT_FALSE(MakeMetricByName("mr")->DependsOnPredictions());
  EXPECT_FALSE(MakeMetricByName("fpr")->DependsOnPredictions());
  EXPECT_FALSE(MakeMetricByName("fnr")->DependsOnPredictions());
  EXPECT_TRUE(MakeMetricByName("for")->DependsOnPredictions());
  EXPECT_TRUE(MakeMetricByName("fdr")->DependsOnPredictions());
}

TEST(FairnessMetricTest, Names) {
  EXPECT_EQ(MakeMetricByName("sp")->Name(), "sp");
  EXPECT_EQ(MakeMetricByName("fdr")->Name(), "fdr");
  for (const std::string& name : MetricNames()) {
    EXPECT_EQ(MakeMetricByName(name)->Name(), name);
  }
}

TEST(FairnessMetricTest, AecMatchesCostDefinition) {
  const Dataset d = MakeBiasedDataset(200, 0.5, 0.4, 44);
  Rng rng(99);
  std::vector<int> predictions(d.NumRows());
  for (int& p : predictions) p = rng.NextBernoulli(0.5) ? 1 : 0;
  std::vector<size_t> group;
  for (size_t i = 0; i < d.NumRows(); i += 2) group.push_back(i);

  const double cost_fp = 2.0;
  const double cost_fn = 5.0;
  AverageErrorCostMetric metric(cost_fp, cost_fn);
  const double via_coefficients = metric.Evaluate(d, group, predictions);

  const ConfusionCounts counts = CountConfusion(d.labels(), predictions, group);
  const double direct =
      (cost_fp * static_cast<double>(counts.fp) +
       cost_fn * static_cast<double>(counts.fn)) /
      static_cast<double>(group.size());
  EXPECT_NEAR(via_coefficients, direct, 1e-10);
  EXPECT_FALSE(metric.DependsOnPredictions());
  EXPECT_EQ(metric.Name(), "aec");
}

TEST(FairnessMetricTest, LambdaMetricDelegates) {
  const Dataset d = MakeBiasedDataset(50, 0.5, 0.5, 45);
  // A custom metric: fraction correct, scaled by 2 (just to be custom).
  LambdaMetric metric(
      "double_acc",
      [](const Dataset&, const std::vector<size_t>& group,
         const std::vector<int>*) {
        MetricCoefficients coef;
        coef.c.assign(group.size(), 2.0 / static_cast<double>(group.size()));
        return coef;
      },
      /*depends_on_predictions=*/false);
  std::vector<size_t> group = {0, 1, 2, 3};
  std::vector<int> predictions(d.NumRows(), 1);
  const double value = metric.Evaluate(d, group, predictions);
  double correct = 0.0;
  for (size_t i : group) correct += (d.Label(i) == 1);
  EXPECT_NEAR(value, 2.0 * correct / 4.0, 1e-12);
  EXPECT_EQ(metric.Name(), "double_acc");
}

TEST(FairnessMetricTest, EmptyDenominatorsAreSafe) {
  // Group with only positive labels: FPR has no negatives.
  Dataset d;
  Column g = Column::Categorical("g", {"a"});
  Column x = Column::Numeric("x");
  for (int i = 0; i < 4; ++i) {
    g.AppendCode(0);
    x.AppendNumeric(i);
  }
  d.AddColumn(std::move(g));
  d.AddColumn(std::move(x));
  d.SetLabels({1, 1, 1, 1});
  const std::vector<size_t> group = {0, 1, 2, 3};
  const std::vector<int> predictions = {1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(MakeMetricByName("fpr")->Evaluate(d, group, predictions), 0.0);
  // FOR: predicted-negative set exists but contains no y=0.
  EXPECT_DOUBLE_EQ(MakeMetricByName("for")->Evaluate(d, group, predictions), 1.0);
}

/// One group of n0 negatives followed by n1 positives.
Dataset LabelCountDataset(size_t n0, size_t n1) {
  Dataset d;
  Column g = Column::Categorical("g", {"a"});
  std::vector<int> labels;
  for (size_t i = 0; i < n0 + n1; ++i) {
    g.AppendCode(0);
    labels.push_back(i < n0 ? 0 : 1);
  }
  d.AddColumn(std::move(g));
  d.SetLabels(std::move(labels));
  return d;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(FairnessMetricTest, LabelMetricsMatchLabelCoefficientsBitwise) {
  // The per-row coefficients of SP / MR / FPR / FNR come from
  // LabelCoefficientsOf, and equal the Table 2 / Appendix A formulas bit for
  // bit, including the empty-group and undefined-rate zeros.
  struct Expected {
    std::array<double, 2> c;
    double c0;
  };
  auto expected = [](MetricKind kind, size_t n0, size_t n1) -> Expected {
    const double t = static_cast<double>(n0 + n1);
    switch (kind) {
      case MetricKind::kStatisticalParity:
        if (n0 + n1 == 0) return {{0.0, 0.0}, 0.0};
        return {{-1.0 / t, 1.0 / t}, static_cast<double>(n0) / t};
      case MetricKind::kMisclassificationRate:
        if (n0 + n1 == 0) return {{0.0, 0.0}, 0.0};
        return {{1.0 / t, 1.0 / t}, 0.0};
      case MetricKind::kFalsePositiveRate:
        if (n0 == 0) return {{0.0, 0.0}, 0.0};
        return {{-1.0 / static_cast<double>(n0), 0.0}, 1.0};
      default:  // kFalseNegativeRate
        if (n1 == 0) return {{0.0, 0.0}, 0.0};
        return {{0.0, -1.0 / static_cast<double>(n1)}, 1.0};
    }
  };
  const std::vector<std::pair<size_t, size_t>> counts = {
      {0, 0}, {0, 3}, {2, 0}, {2, 3}};
  for (MetricKind kind :
       {MetricKind::kStatisticalParity, MetricKind::kMisclassificationRate,
        MetricKind::kFalsePositiveRate, MetricKind::kFalseNegativeRate}) {
    const auto metric = MakeMetric(kind);
    for (const auto& [n0, n1] : counts) {
      SCOPED_TRACE(metric->Name() + " n0=" + std::to_string(n0) +
                   " n1=" + std::to_string(n1));
      const LabelCoefficients label_coef = LabelCoefficientsOf(kind, n0, n1);
      const Expected want = expected(kind, n0, n1);
      EXPECT_TRUE(SameBits(label_coef.c[0], want.c[0]));
      EXPECT_TRUE(SameBits(label_coef.c[1], want.c[1]));
      EXPECT_TRUE(SameBits(label_coef.c0, want.c0));

      const Dataset d = LabelCountDataset(n0, n1);
      std::vector<size_t> group(n0 + n1);
      for (size_t i = 0; i < group.size(); ++i) group[i] = i;
      const MetricCoefficients coef = metric->Coefficients(d, group, nullptr);
      ASSERT_EQ(coef.c.size(), group.size());
      for (size_t k = 0; k < group.size(); ++k) {
        EXPECT_TRUE(SameBits(coef.c[k], label_coef.c[d.Label(k)])) << "row " << k;
      }
      EXPECT_TRUE(SameBits(coef.c0, label_coef.c0));
    }
  }
}

}  // namespace
}  // namespace omnifair
