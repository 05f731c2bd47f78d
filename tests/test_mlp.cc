#include "ml/mlp.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tests/testing_data.h"

namespace omnifair {
namespace {

using testing_data::Blobs;
using testing_data::MakeBlobs;
using testing_data::MakeXor;
using testing_data::TrainAccuracy;

TEST(MlpTest, LearnsXor) {
  const Blobs xor_data = MakeXor(600, 1);
  MlpOptions options;
  options.max_epochs = 400;
  MlpTrainer trainer(options);
  const auto model = trainer.Fit(xor_data.X, xor_data.y, xor_data.unit_weights);
  EXPECT_GE(TrainAccuracy(*model, xor_data), 0.90);
}

TEST(MlpTest, LearnsSeparableData) {
  const Blobs blobs = MakeBlobs(500, 2.0, 2);
  MlpTrainer trainer;
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  EXPECT_GE(TrainAccuracy(*model, blobs), 0.96);
}

TEST(MlpTest, DeterministicGivenSeed) {
  const Blobs blobs = MakeBlobs(300, 1.0, 3);
  MlpTrainer a;
  MlpTrainer b;
  EXPECT_EQ(a.Fit(blobs.X, blobs.y, blobs.unit_weights)->Predict(blobs.X),
            b.Fit(blobs.X, blobs.y, blobs.unit_weights)->Predict(blobs.X));
}

TEST(MlpTest, ProbabilitiesInRange) {
  const Blobs blobs = MakeBlobs(200, 0.5, 4);
  MlpTrainer trainer;
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  for (double p : model->PredictProba(blobs.X)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(MlpTest, SupportsWarmStart) {
  MlpTrainer trainer;
  EXPECT_TRUE(trainer.SupportsWarmStart());
  EXPECT_EQ(trainer.Name(), "mlp");
}

TEST(MlpTest, WarmStartContinuesFromPreviousFit) {
  const Blobs xor_data = MakeXor(400, 5);
  MlpOptions options;
  options.max_epochs = 60;  // too few to converge from scratch
  MlpTrainer trainer(options);
  trainer.SetWarmStart(true);
  double previous = 0.0;
  double current = 0.0;
  for (int round = 0; round < 5; ++round) {
    previous = current;
    const auto model = trainer.Fit(xor_data.X, xor_data.y, xor_data.unit_weights);
    current = TrainAccuracy(*model, xor_data);
  }
  // Accumulated epochs across warm-started fits keep improving the fit
  // beyond what a single 60-epoch run reaches.
  MlpTrainer cold(options);
  const auto cold_model = cold.Fit(xor_data.X, xor_data.y, xor_data.unit_weights);
  EXPECT_GE(current, TrainAccuracy(*cold_model, xor_data));
}

TEST(MlpTest, UpweightingShiftsPositiveRate) {
  const Blobs blobs = MakeBlobs(400, 0.5, 6);
  MlpTrainer trainer;
  const auto base = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  std::vector<double> boosted(blobs.y.size());
  for (size_t i = 0; i < blobs.y.size(); ++i) {
    boosted[i] = blobs.y[i] == 1 ? 6.0 : 1.0;
  }
  const auto heavy = trainer.Fit(blobs.X, blobs.y, boosted);
  double base_rate = 0.0;
  double heavy_rate = 0.0;
  for (int p : base->Predict(blobs.X)) base_rate += p;
  for (int p : heavy->Predict(blobs.X)) heavy_rate += p;
  EXPECT_GT(heavy_rate, base_rate);
}

}  // namespace
}  // namespace omnifair
