#include "core/lambda_tuner.h"

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ml/logistic_regression.h"
#include "tests/testing_fairness.h"

namespace omnifair {
namespace {

using testing_fairness::MakeBiasedDataset;

std::unique_ptr<FairnessProblem> MakeProblem(const Dataset& train, const Dataset& val,
                                             const std::string& metric,
                                             double epsilon, Trainer* trainer) {
  auto problem = FairnessProblem::Create(
      train, val, {MakeSpec(GroupByAttribute("grp"), metric, epsilon)}, trainer);
  EXPECT_TRUE(problem.ok()) << problem.status();
  return std::move(*problem);
}

/// Algorithm 1's shared search without a trainer, over a fake monotone
/// fairness part fp(lambda) = fp0 + slope * lambda: the search primitives see
/// exactly what a tuner's probe reports, and every probed lambda is recorded.
struct FakeMonotoneSearch {
  double fp0 = 0.3;
  double slope = 0.1;
  double epsilon = 0.01;
  std::vector<double> probed;

  double Fp(double lambda) const { return fp0 + slope * lambda; }
  LambdaProbe Probe() {
    return [this](double magnitude) {
      const double lambda = LemmaDirection(fp0) * magnitude;
      probed.push_back(lambda);
      return ResolvesViolation(Fp(lambda), fp0, epsilon)
                 ? ProbeOutcome::kResolved
                 : ProbeOutcome::kViolated;
    };
  }
};

TEST(SharedSearchTest, SignNormalisationFollowsLemma2) {
  EXPECT_EQ(LemmaDirection(0.2), -1.0);
  EXPECT_EQ(LemmaDirection(-0.2), 1.0);
  // fp0 > 0: only fits at negative lambda can reach the band.
  FakeMonotoneSearch search;
  const LambdaBracket bracket =
      ExponentialBracket(1.0, 24, search.Probe());
  ASSERT_TRUE(bracket.bounded);
  for (double lambda : search.probed) EXPECT_LT(lambda, 0.0);
  // The crossing predicate: in band, crossed over, or still violating.
  EXPECT_TRUE(ResolvesViolation(0.005, 0.3, 0.01));
  EXPECT_TRUE(ResolvesViolation(-0.5, 0.3, 0.01));
  EXPECT_FALSE(ResolvesViolation(0.02, 0.3, 0.01));
  EXPECT_TRUE(ResolvesViolation(0.5, -0.3, 0.01));
  EXPECT_FALSE(ResolvesViolation(-0.02, -0.3, 0.01));
}

TEST(SharedSearchTest, BracketThenBisectStopsBelowTau) {
  FakeMonotoneSearch search;
  const LambdaProbe probe = search.Probe();
  LambdaBracket bracket = ExponentialBracket(1.0, 24, probe);
  // fp(-1) = 0.2 and fp(-2) = 0.1 violate; fp(-4) = -0.1 crossed the band.
  ASSERT_TRUE(bracket.bounded);
  EXPECT_EQ(bracket.lo, 2.0);
  EXPECT_EQ(bracket.hi, 4.0);
  EXPECT_EQ(search.probed, (std::vector<double>{-1.0, -2.0, -4.0}));

  const double tau = 1e-3;
  Bisect(tau, &bracket, probe);
  EXPECT_LT(bracket.hi - bracket.lo, tau);
  // Each halving narrows [2, 4]: 11 midpoints take the width below 1e-3.
  EXPECT_EQ(search.probed.size(), 3u + 11u);
  // The ends still straddle the crossing at |lambda| = 2.9.
  EXPECT_FALSE(ResolvesViolation(search.Fp(-bracket.lo), search.fp0,
                                 search.epsilon));
  EXPECT_TRUE(ResolvesViolation(search.Fp(-bracket.hi), search.fp0,
                                search.epsilon));
}

TEST(SharedSearchTest, StopEndsTheSearchAtOnce) {
  int calls = 0;
  const LambdaProbe stop_second = [&](double) {
    return ++calls == 2 ? ProbeOutcome::kStop : ProbeOutcome::kViolated;
  };
  LambdaBracket bracket = ExponentialBracket(1.0, 24, stop_second);
  EXPECT_EQ(calls, 2);
  EXPECT_FALSE(bracket.bounded);
  EXPECT_EQ(bracket.lo, 1.0);

  calls = 0;
  const LambdaProbe stop_first = [&](double) {
    ++calls;
    return ProbeOutcome::kStop;
  };
  bracket = {2.0, 4.0, true};
  Bisect(1e-3, &bracket, stop_first);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(bracket.lo, 2.0);
  EXPECT_EQ(bracket.hi, 4.0);
}

TEST(SharedSearchTest, MaxDoublingsCapsTheFits) {
  // The band is never reached, so only the cap ends the exponential stage.
  for (int max_doublings : {0, 1, 3}) {
    FakeMonotoneSearch search;
    search.slope = 0.0;
    const LambdaBracket bracket =
        ExponentialBracket(1.0, max_doublings, search.Probe());
    EXPECT_FALSE(bracket.bounded);
    EXPECT_EQ(search.probed.size(), static_cast<size_t>(max_doublings));
  }
}

TEST(SharedSearchTest, InBandBestKeepsFirstOfEquallyAccurate) {
  InBandBest<int> best;
  EXPECT_FALSE(best.has);
  best.Consider(1, 0.8);
  best.Consider(2, 0.8);  // tie: the first stays
  EXPECT_EQ(best.candidate, 1);
  best.Consider(3, 0.7);
  EXPECT_EQ(best.candidate, 1);
  best.Consider(4, 0.81);  // strictly greater replaces
  EXPECT_EQ(best.candidate, 4);
  EXPECT_EQ(best.accuracy, 0.81);
}

/// Lemma 2 empirically, over seeds x constant-coefficient metrics: the
/// training-set fairness part FP(theta_lambda) of LR on the (float32)
/// encoded features is (approximately) non-decreasing in lambda. We allow a
/// small numeric slack since the LR fit is iterative. On the same draw,
/// Algorithm 1's `satisfied` must mean |FP| <= epsilon on validation.
class Lemma2PropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, const char*>> {};

TEST_P(Lemma2PropertyTest, MonotoneOnTrainingSetAndSatisfiedMeansWithinEpsilon) {
  const auto [seed, metric] = GetParam();
  const double epsilon = 0.03;
  const Dataset train = MakeBiasedDataset(1500, 0.7, 0.25, seed);
  LogisticRegressionTrainer trainer;
  // Use the train split as "validation" so FP is measured on train, which
  // is the setting of Lemma 2.
  auto problem = MakeProblem(train, train, metric, epsilon, &trainer);
  const Matrix& X = problem->train_features();
  ASSERT_EQ(X.RawBytes(), X.rows() * X.cols() * sizeof(float));

  const double lambdas[] = {-0.4, -0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2, 0.4};
  double previous_fp = -2.0;
  for (double lambda : lambdas) {
    auto model = problem->FitWithLambdas({lambda}, nullptr);
    const double fp =
        problem->val_evaluator().FairnessPart(0, problem->PredictVal(*model));
    EXPECT_GE(fp, previous_fp - 0.02) << "lambda " << lambda;
    previous_fp = std::max(previous_fp, fp);
  }

  const TuneResult result = LambdaTuner().TuneSingle(*problem);
  if (result.satisfied) {
    ASSERT_EQ(result.val_fairness_parts.size(), 1u);
    EXPECT_LE(std::fabs(result.val_fairness_parts[0]), epsilon + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByMetric, Lemma2PropertyTest,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3},
                                         uint64_t{4}, uint64_t{5}),
                       ::testing::Values("sp", "fpr", "fnr", "mr")),
    [](const ::testing::TestParamInfo<Lemma2PropertyTest::ParamType>& info) {
      return std::string(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<0>(info.param));
    });

TEST(LambdaTunerTest, TuneSingleSatisfiesSp) {
  const Dataset data = MakeBiasedDataset(3000, 0.7, 0.25, 2);
  const Dataset train = data.SelectRows([&] {
    std::vector<size_t> idx;
    for (size_t i = 0; i < 2000; ++i) idx.push_back(i);
    return idx;
  }());
  const Dataset val = data.SelectRows([&] {
    std::vector<size_t> idx;
    for (size_t i = 2000; i < 3000; ++i) idx.push_back(i);
    return idx;
  }());
  LogisticRegressionTrainer trainer;
  auto problem = MakeProblem(train, val, "sp", 0.03, &trainer);

  const LambdaTuner tuner;
  TuneResult result = tuner.TuneSingle(*problem);
  EXPECT_TRUE(result.satisfied);
  ASSERT_NE(result.model, nullptr);
  EXPECT_LE(std::fabs(result.val_fairness_parts[0]), 0.03 + 1e-9);
  EXPECT_GT(result.models_trained, 1);
  // The tuned model keeps most of the accuracy.
  EXPECT_GT(result.val_accuracy, 0.6);
}

TEST(LambdaTunerTest, AlreadySatisfiedReturnsImmediately) {
  const Dataset train = MakeBiasedDataset(800, 0.5, 0.5, 3);  // no bias
  LogisticRegressionTrainer trainer;
  auto problem = MakeProblem(train, train, "sp", 0.2, &trainer);
  const LambdaTuner tuner;
  TuneResult result = tuner.TuneSingle(*problem);
  EXPECT_TRUE(result.satisfied);
  EXPECT_DOUBLE_EQ(result.lambda, 0.0);
  EXPECT_EQ(result.models_trained, 1);  // just the theta_0 fit
}

TEST(LambdaTunerTest, SmallerEpsilonCostsAccuracy) {
  const Dataset train = MakeBiasedDataset(2500, 0.75, 0.2, 4);
  LogisticRegressionTrainer trainer;
  auto loose_problem = MakeProblem(train, train, "sp", 0.10, &trainer);
  auto tight_problem = MakeProblem(train, train, "sp", 0.01, &trainer);
  const LambdaTuner tuner;
  TuneResult loose = tuner.TuneSingle(*loose_problem);
  TuneResult tight = tuner.TuneSingle(*tight_problem);
  ASSERT_TRUE(loose.satisfied);
  ASSERT_TRUE(tight.satisfied);
  // Tighter constraints cannot be more accurate (allow tiny noise).
  EXPECT_LE(tight.val_accuracy, loose.val_accuracy + 0.01);
  // And the tuned lambda magnitude is larger for the tighter budget.
  EXPECT_GE(std::fabs(tight.lambda), std::fabs(loose.lambda));
}

TEST(LambdaTunerTest, FdrLinearSearchSatisfies) {
  const Dataset data = MakeBiasedDataset(2400, 0.7, 0.3, 5);
  std::vector<size_t> train_idx;
  std::vector<size_t> val_idx;
  for (size_t i = 0; i < 1600; ++i) train_idx.push_back(i);
  for (size_t i = 1600; i < 2400; ++i) val_idx.push_back(i);
  LogisticRegressionTrainer trainer;
  auto problem = FairnessProblem::Create(
      data.SelectRows(train_idx), data.SelectRows(val_idx),
      {MakeSpec(GroupByAttribute("grp"), "fdr", 0.04)}, &trainer);
  ASSERT_TRUE(problem.ok());

  const LambdaTuner tuner;
  TuneResult result = tuner.TuneSingle(**problem);
  ASSERT_NE(result.model, nullptr);
  if (result.satisfied) {
    EXPECT_LE(std::fabs(result.val_fairness_parts[0]), 0.04 + 1e-9);
  }
}

TEST(LambdaTunerTest, InfeasibleReportsUnsatisfied) {
  // A constraint on a metric the model cannot move: epsilon = 0 exactly is
  // essentially unreachable for noisy LR on biased data within the step
  // budget, so the tuner must come back unsatisfied rather than loop.
  const Dataset train = MakeBiasedDataset(400, 0.9, 0.1, 6);
  LogisticRegressionTrainer trainer;
  auto problem = MakeProblem(train, train, "sp", 0.0, &trainer);
  TuneOptions options;
  options.max_doublings = 3;  // keep the test fast
  options.tau = 0.01;
  const LambdaTuner tuner(options);
  TuneResult result = tuner.TuneSingle(*problem);
  ASSERT_NE(result.model, nullptr);  // best-effort model always returned
  // Either it got lucky and satisfied exactly 0, or reported infeasible.
  if (!result.satisfied) {
    EXPECT_GT(std::fabs(result.val_fairness_parts[0]), 0.0);
  }
}

TEST(LambdaTunerTest, SubsampledBoundingStillSatisfies) {
  // Future-work extension: bounding-stage fits on a 30% subsample must not
  // change the contract — the returned (full-data) model satisfies epsilon.
  const Dataset data = MakeBiasedDataset(3000, 0.7, 0.25, 8);
  std::vector<size_t> train_idx;
  std::vector<size_t> val_idx;
  for (size_t i = 0; i < 2000; ++i) train_idx.push_back(i);
  for (size_t i = 2000; i < 3000; ++i) val_idx.push_back(i);
  LogisticRegressionTrainer trainer;
  auto problem = FairnessProblem::Create(
      data.SelectRows(train_idx), data.SelectRows(val_idx),
      {MakeSpec(GroupByAttribute("grp"), "sp", 0.05)}, &trainer);
  ASSERT_TRUE(problem.ok());
  TuneOptions options;
  options.bounding_subsample = 0.3;
  const LambdaTuner tuner(options);
  TuneResult result = tuner.TuneSingle(**problem);
  EXPECT_TRUE(result.satisfied);
  EXPECT_LE(std::fabs(result.val_fairness_parts[0]), 0.05 + 1e-9);
}

TEST(LambdaTunerTest, CoordinateTuningKeepsOtherLambdasFixed) {
  const Dataset train = MakeBiasedDataset(1200, 0.7, 0.25, 7);
  LogisticRegressionTrainer trainer;
  auto problem = FairnessProblem::Create(
      train, train,
      {MakeSpec(GroupByAttribute("grp"), "sp", 0.05),
       MakeSpec(GroupByAttribute("grp"), "fnr", 0.05)},
      &trainer);
  ASSERT_TRUE(problem.ok());
  std::vector<double> lambdas = {0.0, 0.123};
  const LambdaTuner tuner;
  TuneResult result = tuner.TuneCoordinate(**problem, 0, &lambdas, nullptr);
  EXPECT_DOUBLE_EQ(lambdas[1], 0.123);
  EXPECT_DOUBLE_EQ(lambdas[0], result.lambda);
}

}  // namespace
}  // namespace omnifair
