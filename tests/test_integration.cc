// End-to-end integration tests: the full pipeline (synthetic data -> split
// -> declarative spec -> train -> audit -> bundle -> reload) across all
// four paper datasets and the main metric families. These are the "does
// the whole system hold together" checks, complementing the per-module
// unit suites.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "core/omnifair.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "data/split.h"
#include "ml/bundle.h"
#include "ml/trainer_registry.h"

namespace omnifair {
namespace {

GroupingFunction MainGroups(const std::string& dataset) {
  if (dataset == "adult") return GroupByAttributeValues("sex", {"Male", "Female"});
  if (dataset == "compas") {
    return GroupByAttributeValues("race", {"African-American", "Caucasian"});
  }
  if (dataset == "lsac") return GroupByAttributeValues("race", {"White", "Black"});
  return GroupByAttributeValues("age_group", {"working_age", "young_or_senior"});
}

/// Every paper dataset x {SP, FNR}: train, satisfy on validation, audit.
class DatasetMetricIntegrationTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(DatasetMetricIntegrationTest, EndToEndSatisfiesOnValidation) {
  const auto& [dataset_name, metric] = GetParam();
  SyntheticOptions options;
  options.num_rows = 3000;
  options.seed = 77;
  const Dataset dataset = MakeDatasetByName(dataset_name, options);
  const TrainValTestSplit split = SplitDefault(dataset, 101);
  // A budget every dataset/metric pair can meet.
  const double epsilon = 0.06;
  const FairnessSpec spec = MakeSpec(MainGroups(dataset_name), metric, epsilon);

  auto trainer = MakeTrainer("lr");
  OmniFair omnifair;
  auto fair = omnifair.Train(split.train, split.val, trainer.get(), {spec});
  ASSERT_TRUE(fair.ok()) << fair.status();
  EXPECT_TRUE(fair->satisfied) << dataset_name << "/" << metric;
  EXPECT_LE(std::fabs(fair->val_fairness_parts[0]), epsilon + 1e-9);

  auto audit = Audit(*fair->model, fair->encoder, split.test, {spec});
  ASSERT_TRUE(audit.ok());
  EXPECT_GT(audit->accuracy, 0.6);
  // Test disparity near the budget (generalization, not a guarantee).
  EXPECT_LT(audit->max_disparity, 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, DatasetMetricIntegrationTest,
    ::testing::Combine(::testing::Values("adult", "compas", "lsac", "bank"),
                       ::testing::Values("sp", "fnr")));

TEST(IntegrationTest, TrainSaveReloadPredictMatches) {
  SyntheticOptions options;
  options.num_rows = 2500;
  const Dataset dataset = MakeAdultDataset(options);
  const TrainValTestSplit split = SplitDefault(dataset, 55);
  const FairnessSpec spec = MakeSpec(MainGroups("adult"), "sp", 0.05);

  auto trainer = MakeTrainer("xgb");
  OmniFair omnifair;
  auto fair = omnifair.Train(split.train, split.val, trainer.get(), {spec});
  ASSERT_TRUE(fair.ok());

  const std::string path = ::testing::TempDir() + "/integration_bundle.ofb";
  ASSERT_TRUE(WriteBundle(*fair->model, fair->encoder, BundleMeta{}, path).ok());
  auto bundle = ModelBundle::Open(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  const Matrix X = (*bundle)->encoder().Transform(split.test);
  EXPECT_EQ((*bundle)->MakeModel()->Predict(X), fair->Predict(split.test));
}

TEST(IntegrationTest, PipelineIsDeterministic) {
  SyntheticOptions options;
  options.num_rows = 2000;
  options.seed = 9;
  const Dataset dataset = MakeCompasDataset(options);
  const TrainValTestSplit split = SplitDefault(dataset, 71);
  const FairnessSpec spec = MakeSpec(MainGroups("compas"), "sp", 0.04);

  std::vector<double> lambdas[2];
  std::vector<int> predictions[2];
  for (int round = 0; round < 2; ++round) {
    auto trainer = MakeTrainer("lr");
    OmniFair omnifair;
    auto fair = omnifair.Train(split.train, split.val, trainer.get(), {spec});
    ASSERT_TRUE(fair.ok());
    lambdas[round] = fair->lambdas;
    predictions[round] = fair->Predict(split.test);
  }
  EXPECT_EQ(lambdas[0], lambdas[1]);
  EXPECT_EQ(predictions[0], predictions[1]);
}

TEST(IntegrationTest, EqualizedOddsHelperEndToEnd) {
  SyntheticOptions options;
  options.num_rows = 3000;
  const Dataset dataset = MakeCompasDataset(options);
  const TrainValTestSplit split = SplitDefault(dataset, 13);
  const std::vector<FairnessSpec> specs =
      EqualizedOddsSpecs(MainGroups("compas"), 0.06);

  auto trainer = MakeTrainer("lr");
  OmniFair omnifair;
  auto fair = omnifair.Train(split.train, split.val, trainer.get(), specs);
  ASSERT_TRUE(fair.ok());
  ASSERT_EQ(fair->lambdas.size(), 2u);
  EXPECT_TRUE(fair->satisfied);
}

TEST(IntegrationTest, CsvRoundTripThroughPipeline) {
  // Dataset -> CSV -> Dataset -> train: the CLI's path, in-process.
  SyntheticOptions options;
  options.num_rows = 1500;
  const Dataset original = MakeBankDataset(options);
  const std::string path = ::testing::TempDir() + "/integration_bank.csv";
  ASSERT_TRUE(WriteCsv(original, path).ok());

  CsvReadOptions csv_options;
  csv_options.label_column = "subscribed";
  csv_options.force_categorical = {"age_group"};
  auto reloaded = ReadCsv(path, csv_options);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  ASSERT_EQ(reloaded->NumRows(), original.NumRows());

  const TrainValTestSplit split = SplitDefault(*reloaded, 3);
  const FairnessSpec spec = MakeSpec(MainGroups("bank"), "sp", 0.06);
  auto trainer = MakeTrainer("lr");
  OmniFair omnifair;
  auto fair = omnifair.Train(split.train, split.val, trainer.get(), {spec});
  ASSERT_TRUE(fair.ok()) << fair.status();
  EXPECT_TRUE(fair->satisfied);
}

}  // namespace
}  // namespace omnifair
