#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include "tests/testing_data.h"

namespace omnifair {
namespace {

using testing_data::Blobs;
using testing_data::MakeBlobs;
using testing_data::MakeXor;
using testing_data::TrainAccuracy;

TEST(RandomForestTest, LearnsXor) {
  const Blobs xor_data = MakeXor(600, 1);
  RandomForestTrainer trainer;
  const auto model = trainer.Fit(xor_data.X, xor_data.y, xor_data.unit_weights);
  EXPECT_GE(TrainAccuracy(*model, xor_data), 0.93);
}

TEST(RandomForestTest, NumTreesHonored) {
  const Blobs blobs = MakeBlobs(200, 1.0, 2);
  RandomForestOptions options;
  options.num_trees = 7;
  RandomForestTrainer trainer(options);
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto* forest = dynamic_cast<const RandomForestModel*>(model.get());
  ASSERT_NE(forest, nullptr);
  EXPECT_EQ(forest->NumTrees(), 7u);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  const Blobs blobs = MakeBlobs(300, 1.0, 3);
  RandomForestOptions options;
  options.seed = 99;
  RandomForestTrainer a(options);
  RandomForestTrainer b(options);
  const auto ma = a.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto mb = b.Fit(blobs.X, blobs.y, blobs.unit_weights);
  EXPECT_EQ(ma->Predict(blobs.X), mb->Predict(blobs.X));
}

TEST(RandomForestTest, SeedChangesForest) {
  const Blobs blobs = MakeBlobs(300, 0.5, 4);
  RandomForestOptions options_a;
  options_a.seed = 1;
  RandomForestOptions options_b;
  options_b.seed = 2;
  RandomForestTrainer a(options_a);
  RandomForestTrainer b(options_b);
  const auto pa = a.Fit(blobs.X, blobs.y, blobs.unit_weights)->PredictProba(blobs.X);
  const auto pb = b.Fit(blobs.X, blobs.y, blobs.unit_weights)->PredictProba(blobs.X);
  EXPECT_NE(pa, pb);
}

TEST(RandomForestTest, ProbabilitiesAreAverages) {
  const Blobs blobs = MakeBlobs(200, 2.0, 5);
  RandomForestTrainer trainer;
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  for (double p : model->PredictProba(blobs.X)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RandomForestTest, ThreadCountDoesNotChangeForest) {
  // Determinism contract (DESIGN.md §11): every tree shares one BinnedMatrix
  // and is seeded up-front, so the fitted forest is identical at any thread
  // count — both for tree building and the shared binning build.
  const Blobs blobs = MakeBlobs(2000, 0.8, 13);
  RandomForestOptions serial;
  serial.num_trees = 12;
  serial.seed = 5;
  serial.num_threads = 1;
  RandomForestOptions parallel = serial;
  parallel.num_threads = 4;
  RandomForestTrainer a(serial);
  RandomForestTrainer b(parallel);
  const auto pa = a.Fit(blobs.X, blobs.y, blobs.unit_weights)->PredictProba(blobs.X);
  const auto pb = b.Fit(blobs.X, blobs.y, blobs.unit_weights)->PredictProba(blobs.X);
  EXPECT_EQ(pa, pb);
}

TEST(RandomForestTest, AccuracyFloorOnBlobs) {
  // The floor is the accuracy the former exact (per-node sort) splitter
  // reached on this data, 0.9733, minus the 0.02 tolerance this check
  // allowed histogram search against it.
  constexpr double kFloor = 0.9733 - 0.02;
  const Blobs blobs = MakeBlobs(1500, 1.0, 14);
  RandomForestOptions options;
  options.seed = 3;
  RandomForestTrainer trainer(options);
  EXPECT_GE(TrainAccuracy(*trainer.Fit(blobs.X, blobs.y, blobs.unit_weights), blobs),
            kFloor);
}

TEST(RandomForestTest, WeightsShiftPredictions) {
  const Blobs blobs = MakeBlobs(400, 0.5, 6);
  RandomForestTrainer trainer;
  const auto base = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  std::vector<double> boosted(blobs.y.size());
  for (size_t i = 0; i < blobs.y.size(); ++i) {
    boosted[i] = blobs.y[i] == 1 ? 8.0 : 1.0;
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
