#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "ml/metrics.h"
#include "tests/testing_data.h"
#include "util/random.h"

namespace omnifair {
namespace {

using testing_data::Blobs;
using testing_data::MakeBlobs;
using testing_data::TrainAccuracy;

TEST(LogisticRegressionTest, LearnsSeparableData) {
  const Blobs blobs = MakeBlobs(500, 2.0, 1);
  LogisticRegressionTrainer trainer;
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  EXPECT_GE(TrainAccuracy(*model, blobs), 0.97);
}

TEST(LogisticRegressionTest, ProbabilitiesInRange) {
  const Blobs blobs = MakeBlobs(200, 1.0, 2);
  LogisticRegressionTrainer trainer;
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  for (double p : model->PredictProba(blobs.X)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(LogisticRegressionTest, Deterministic) {
  const Blobs blobs = MakeBlobs(300, 1.5, 3);
  LogisticRegressionTrainer a;
  LogisticRegressionTrainer b;
  const auto ma = a.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto mb = b.Fit(blobs.X, blobs.y, blobs.unit_weights);
  EXPECT_EQ(ma->Predict(blobs.X), mb->Predict(blobs.X));
}

TEST(LogisticRegressionTest, ZeroWeightExamplesIgnored) {
  // Mislabel half the data but give those examples zero weight; the model
  // must behave as if they were absent.
  Blobs blobs = MakeBlobs(400, 2.5, 4);
  std::vector<double> weights(blobs.y.size(), 1.0);
  Blobs corrupted = blobs;
  for (size_t i = 0; i < blobs.y.size(); i += 2) {
    corrupted.y[i] = 1 - corrupted.y[i];
    weights[i] = 0.0;
  }
  LogisticRegressionTrainer trainer;
  const auto model = trainer.Fit(corrupted.X, corrupted.y, weights);
  EXPECT_GE(TrainAccuracy(*model, blobs), 0.95);
}

TEST(LogisticRegressionTest, UpweightingShiftsDecisions) {
  // Upweighting positive examples should increase the positive rate.
  const Blobs blobs = MakeBlobs(500, 0.7, 5);
  LogisticRegressionTrainer trainer;
  const auto base = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  std::vector<double> boosted(blobs.y.size());
  for (size_t i = 0; i < blobs.y.size(); ++i) {
    boosted[i] = blobs.y[i] == 1 ? 5.0 : 1.0;
  }
  const auto heavy = trainer.Fit(blobs.X, blobs.y, boosted);
  const auto rate = [&](const Classifier& m) {
    const std::vector<int> preds = m.Predict(blobs.X);
    double positives = 0.0;
    for (int p : preds) positives += p;
    return positives / static_cast<double>(preds.size());
  };
  EXPECT_GT(rate(*heavy), rate(*base));
}

TEST(LogisticRegressionTest, WarmStartReducesIterations) {
  const Blobs blobs = MakeBlobs(800, 1.0, 6);
  LogisticRegressionTrainer cold;
  (void)cold.Fit(blobs.X, blobs.y, blobs.unit_weights);
  (void)cold.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const long long cold_iterations = cold.total_iterations();

  LogisticRegressionTrainer warm;
  warm.SetWarmStart(true);
  (void)warm.Fit(blobs.X, blobs.y, blobs.unit_weights);
  (void)warm.Fit(blobs.X, blobs.y, blobs.unit_weights);
  EXPECT_LT(warm.total_iterations(), cold_iterations);
}

TEST(LogisticRegressionTest, ResetWarmStartForgets) {
  const Blobs blobs = MakeBlobs(200, 1.0, 7);
  LogisticRegressionTrainer trainer;
  trainer.SetWarmStart(true);
  const auto first = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  trainer.ResetWarmStart();
  const auto second = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  // After reset the fit starts from zero again -> same result as first.
  EXPECT_EQ(first->Predict(blobs.X), second->Predict(blobs.X));
}

TEST(LogisticRegressionTest, SupportsWarmStartFlag) {
  LogisticRegressionTrainer trainer;
  EXPECT_TRUE(trainer.SupportsWarmStart());
  EXPECT_EQ(trainer.Name(), "logistic_regression");
}

TEST(LogisticRegressionTest, WeightingEquivalentToReplication) {
  // The paper's §1 argument for model-agnosticism: integer example weights
  // can be simulated by replicating examples. With L2 = 0 the weighted and
  // replicated objectives have identical optima.
  const Blobs blobs = MakeBlobs(150, 1.0, 8);
  std::vector<double> weights(blobs.y.size());
  Matrix replicated_X;
  std::vector<int> replicated_y;
  Rng rng(17);
  for (size_t i = 0; i < blobs.y.size(); ++i) {
    const int copies = 1 + static_cast<int>(rng.NextBounded(3));  // 1..3
    weights[i] = copies;
    for (int c = 0; c < copies; ++c) {
      replicated_X.AppendRow(blobs.X.RowVector(i));
      replicated_y.push_back(blobs.y[i]);
    }
  }
  LogisticRegressionOptions options;
  options.l2 = 0.0;
  options.max_iterations = 600;
  LogisticRegressionTrainer weighted_trainer(options);
  LogisticRegressionTrainer replicated_trainer(options);
  const auto weighted = weighted_trainer.Fit(blobs.X, blobs.y, weights);
  const auto replicated = replicated_trainer.Fit(
      replicated_X, replicated_y, std::vector<double>(replicated_y.size(), 1.0));
  // Same decisions on the original data.
  EXPECT_EQ(weighted->Predict(blobs.X), replicated->Predict(blobs.X));
}

/// Infinity norm of the objective's gradient at the model's theta, recomputed
/// here in plain double arithmetic over the stored (float) features.
double GradientInfNorm(const LogisticRegressionModel& model, const Matrix& X,
                       const std::vector<int>& y,
                       const std::vector<double>& weights, double l2) {
  const size_t n = X.rows();
  const size_t d = X.cols();
  std::vector<double> grad(d + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double z = model.intercept();
    for (size_t c = 0; c < d; ++c) z += model.coefficients()[c] * X(i, c);
    const double residual =
        weights[i] * (1.0 / (1.0 + std::exp(-z)) - (y[i] == 1 ? 1.0 : 0.0));
    for (size_t c = 0; c < d; ++c) grad[c] += residual * X(i, c);
    grad[d] += residual;
  }
  double norm = 0.0;
  for (size_t c = 0; c <= d; ++c) {
    grad[c] /= static_cast<double>(n);
    if (c < d) grad[c] += l2 * model.coefficients()[c];
    norm = std::max(norm, std::fabs(grad[c]));
  }
  return norm;
}

/// Overlapping classes in `d` dimensions with a logistic label, so the
/// optimum is interior and every coefficient carries curvature.
Blobs MakeWideData(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Blobs data;
  data.X = Matrix(n, d);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double z = 0.3;
    for (size_t c = 0; c < d; ++c) {
      const double x = rng.NextGaussian(0.0, 1.0 + 0.2 * static_cast<double>(c));
      data.X.Set(i, c, x);
      z += (c % 2 == 0 ? 0.5 : -0.3) * x;
    }
    data.y[i] = rng.NextBernoulli(1.0 / (1.0 + std::exp(-z))) ? 1 : 0;
  }
  data.unit_weights.assign(n, 1.0);
  return data;
}

/// Eq. 12-style weights max(0, 1 + lambda * s_i): two groups, label-signed
/// coefficients, and a lambda large enough that a share of rows clips to 0.
std::vector<double> LambdaStyleWeights(const std::vector<int>& y) {
  std::vector<double> weights(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    const double s = (i % 3 == 0 ? 1.5 : -0.5) * (y[i] == 1 ? 1.0 : -1.0);
    weights[i] = std::max(0.0, 1.0 + 2.5 * s);
  }
  return weights;
}

TEST(LogisticRegressionTest, NewtonStopsAtAStationaryPoint) {
  // The fit ends only when the gradient's infinity norm is below tolerance,
  // so the returned theta must be a stationary point of the weighted
  // objective, including when some rows carry zero weight.
  const LogisticRegressionOptions options;
  for (const Blobs& data : {MakeBlobs(400, 1.0, 12), MakeWideData(2000, 12, 13)}) {
    const std::vector<double> lambda_weights = LambdaStyleWeights(data.y);
    ASSERT_GT(std::count(lambda_weights.begin(), lambda_weights.end(), 0.0), 0);
    for (const std::vector<double>* weights : {&data.unit_weights, &lambda_weights}) {
      LogisticRegressionTrainer trainer(options);
      const auto model = trainer.Fit(data.X, data.y, *weights);
      const auto& lr = static_cast<const LogisticRegressionModel&>(*model);
      EXPECT_LE(GradientInfNorm(lr, data.X, data.y, *weights, options.l2),
                options.tolerance)
          << "d=" << data.X.cols() << " unit=" << (weights == &data.unit_weights);
      // Newton converges in a handful of steps, far below the cap.
      EXPECT_LE(trainer.total_iterations(), 20) << "d=" << data.X.cols();
    }
  }
}

TEST(LogisticRegressionTest, SingularOrIndefiniteHessianStaysFinite) {
  // With l2 = 0 the Hessian pins no curvature on separable data (the optimum
  // is at infinity), on an all-zero column, on a duplicated column, or when
  // every weight is zero. The diagonal jitter keeps each Cholesky solve
  // defined. Negative weights, outside the Trainer contract, make it
  // indefinite; the fit then stops at its checkpoint. Either way it must
  // return finite coefficients, not abort.
  const Blobs blobs = MakeBlobs(200, 6.0, 14);
  Matrix X(blobs.X.rows(), 4);
  for (size_t i = 0; i < X.rows(); ++i) {
    X.Set(i, 0, blobs.X(i, 0));
    X.Set(i, 1, blobs.X(i, 1));
    X.Set(i, 2, 0.0);              // all-zero column
    X.Set(i, 3, blobs.X(i, 0));    // duplicate of column 0
  }
  LogisticRegressionOptions options;
  options.l2 = 0.0;
  const std::vector<double> zeros(blobs.y.size(), 0.0);
  const std::vector<double> negative(blobs.y.size(), -1.0);
  for (const std::vector<double>* weights :
       {&blobs.unit_weights, &zeros, &negative}) {
    LogisticRegressionTrainer trainer(options);
    const auto model = trainer.Fit(X, blobs.y, *weights);
    const auto& lr = static_cast<const LogisticRegressionModel&>(*model);
    for (double c : lr.coefficients()) EXPECT_TRUE(std::isfinite(c)) << c;
    EXPECT_TRUE(std::isfinite(lr.intercept()));
    if (weights == &blobs.unit_weights) {
      EXPECT_EQ(Accuracy(blobs.y, model->Predict(X)), 1.0);
    }
  }
}

TEST(LogisticRegressionModelTest, CoefficientsExposed) {
  LogisticRegressionModel model({1.0, -1.0}, 0.5);
  EXPECT_EQ(model.coefficients().size(), 2u);
  EXPECT_DOUBLE_EQ(model.intercept(), 0.5);
  Matrix X = {{0.0, 0.0}};
  // sigmoid(0.5) > 0.5 -> predicts 1.
  EXPECT_EQ(model.Predict(X)[0], 1);
}

}  // namespace
}  // namespace omnifair
