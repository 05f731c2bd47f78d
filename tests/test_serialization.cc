#include "ml/serialization.h"

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/omnifair.h"
#include "data/datasets.h"
#include "data/split.h"
#include "ml/trainer_registry.h"
#include "tests/testing_data.h"

namespace omnifair {
namespace {

using testing_data::Blobs;
using testing_data::MakeBlobs;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Round-trip property for every serializable model family: a deserialized
/// model reproduces the original's probabilities exactly.
class ModelRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelRoundTripTest, PredictionsSurviveRoundTrip) {
  const Blobs blobs = MakeBlobs(300, 1.0, 7);
  auto trainer = MakeTrainer(GetParam());
  const auto model = trainer->Fit(blobs.X, blobs.y, blobs.unit_weights);

  std::stringstream buffer;
  ASSERT_TRUE(SerializeModel(*model, buffer).ok());
  auto loaded = DeserializeModel(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->Name(), model->Name());

  const std::vector<double> original = model->PredictProba(blobs.X);
  const std::vector<double> restored = (*loaded)->PredictProba(blobs.X);
  ASSERT_EQ(original.size(), restored.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(original[i], restored[i], 1e-12) << GetParam() << " row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ModelRoundTripTest,
                         ::testing::Values("lr", "dt", "rf", "xgb", "nn", "nb"));

TEST(TrainerRegistryTest, EveryListedNameConstructs) {
  for (const std::string& name : TrainerNames()) {
    EXPECT_NE(MakeTrainer(name), nullptr) << name;
  }
}

TEST(TrainerRegistryTest, HistNamesAreAliasesOfTheirFamilies) {
  // "dt_hist" / "rf_hist" / "xgb_hist" predate histogram search being the
  // only split search; they must train exactly what the plain names train.
  const Blobs blobs = MakeBlobs(300, 1.0, 12);
  for (const std::string family : {"dt", "rf", "xgb"}) {
    const auto plain =
        MakeTrainer(family)->Fit(blobs.X, blobs.y, blobs.unit_weights);
    const auto alias =
        MakeTrainer(family + "_hist")->Fit(blobs.X, blobs.y, blobs.unit_weights);
    EXPECT_EQ(plain->PredictProba(blobs.X), alias->PredictProba(blobs.X))
        << family;
  }
}

TEST(SerializationTest, FileRoundTrip) {
  const Blobs blobs = MakeBlobs(100, 1.5, 8);
  auto trainer = MakeTrainer("lr");
  const auto model = trainer->Fit(blobs.X, blobs.y, blobs.unit_weights);
  const std::string path = TempPath("model.txt");
  ASSERT_TRUE(SaveModel(*model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->Predict(blobs.X), model->Predict(blobs.X));
}

TEST(SerializationTest, RejectsGarbage) {
  std::stringstream buffer("definitely not a model");
  EXPECT_FALSE(DeserializeModel(buffer).ok());
}

TEST(SerializationTest, RejectsTruncatedPayload) {
  const Blobs blobs = MakeBlobs(50, 1.0, 9);
  auto trainer = MakeTrainer("xgb");
  const auto model = trainer->Fit(blobs.X, blobs.y, blobs.unit_weights);
  std::stringstream buffer;
  ASSERT_TRUE(SerializeModel(*model, buffer).ok());
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_FALSE(DeserializeModel(truncated).ok());
}

TEST(SerializationTest, MissingFileFails) {
  EXPECT_FALSE(LoadModel("/nonexistent/model.txt").ok());
}

TEST(SerializationTest, FairModelRoundTripWithEncoder) {
  SyntheticOptions options;
  options.num_rows = 2000;
  const Dataset dataset = MakeCompasDataset(options);
  const TrainValTestSplit split = SplitDefault(dataset, 5);
  const FairnessSpec spec = MakeSpec(
      GroupByAttributeValues("race", {"African-American", "Caucasian"}), "sp", 0.05);
  auto trainer = MakeTrainer("lr");
  OmniFair omnifair;
  auto fair = omnifair.Train(split.train, split.val, trainer.get(), {spec});
  ASSERT_TRUE(fair.ok());

  const std::string path = TempPath("fair_model.txt");
  ASSERT_TRUE(SaveFairModel(*fair, path).ok());
  auto loaded = LoadFairModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->lambdas, fair->lambdas);
  EXPECT_EQ(loaded->satisfied, fair->satisfied);
  EXPECT_NEAR(loaded->val_accuracy, fair->val_accuracy, 1e-12);
  // The loaded bundle can predict on raw (un-encoded) data directly.
  EXPECT_EQ(loaded->Predict(split.test), fair->Predict(split.test));
  // And audits identically.
  auto original_audit = Audit(*fair->model, fair->encoder, split.test, {spec});
  auto loaded_audit = Audit(*loaded->model, loaded->encoder, split.test, {spec});
  ASSERT_TRUE(original_audit.ok());
  ASSERT_TRUE(loaded_audit.ok());
  EXPECT_NEAR(original_audit->max_disparity, loaded_audit->max_disparity, 1e-12);
}

TEST(SerializationTest, FairModelWithoutModelRejected) {
  FairModel empty;
  EXPECT_FALSE(SaveFairModel(empty, TempPath("never.txt")).ok());
}

// --- Corrupted-fixture regressions ------------------------------------------
//
// Damaged files must fail with a typed status (kDataLoss for truncation,
// kInvalidArgument for malformed content) carrying byte context — and must
// never crash, loop, or allocate absurd amounts first.

TEST(SerializationTest, TreeWithBackwardChildrenRejected) {
  // Node 0's left child points at itself: Predict would loop forever.
  std::stringstream buffer(
      "omnifair_model decision_tree 1\n"
      "2\n"
      "split 0 0.5 0 1\n"
      "leaf 0.25\n");
  auto loaded = DeserializeModel(buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("invalid children"),
            std::string::npos)
      << loaded.status();
}

TEST(SerializationTest, TreeWithOutOfRangeChildrenRejected) {
  // Children past the node array: Predict would index out of bounds.
  std::stringstream buffer(
      "omnifair_model decision_tree 1\n"
      "2\n"
      "split 0 0.5 1 7\n"
      "leaf 0.25\n");
  auto loaded = DeserializeModel(buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, AbsurdElementCountRejectedBeforeAllocating) {
  // A 10^15-coefficient claim is corruption, not a model; it must fail on
  // the count check, not inside a 8PB resize().
  std::stringstream buffer(
      "omnifair_model logistic_regression 1\n"
      "1000000000000000 0.5\n");
  auto loaded = DeserializeModel(buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("claims"), std::string::npos)
      << loaded.status();
}

TEST(SerializationTest, TruncationIsTypedDataLossWithByteContext) {
  std::stringstream buffer(
      "omnifair_model logistic_regression 1\n"
      "3 0.25 -1.5");  // promises 3 coefficients, delivers 2 and no intercept
  auto loaded = DeserializeModel(buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("near byte"), std::string::npos)
      << loaded.status();
}

TEST(SerializationTest, FairModelMalformedLambdasLineRejected) {
  const Blobs blobs = MakeBlobs(80, 1.5, 10);
  auto trainer = MakeTrainer("lr");
  FairModel fair;
  fair.model = trainer->Fit(blobs.X, blobs.y, blobs.unit_weights);
  fair.lambdas = {0.125};
  const std::string path = TempPath("fair_model_damaged.txt");
  ASSERT_TRUE(SaveFairModel(fair, path).ok());

  // Splice junk into the lambdas line; the old parser silently dropped it.
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const size_t pos = contents.find("lambdas 0.125");
  ASSERT_NE(pos, std::string::npos);
  contents.insert(pos + std::string("lambdas 0.125").size(), " garbage");
  {
    std::ofstream out(path, std::ios::trunc);
    out << contents;
  }
  auto loaded = LoadFairModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("lambdas"), std::string::npos)
      << loaded.status();
}

// --- Binary codec (the checkpoint layer's model format) ----------------------

class BinaryRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BinaryRoundTripTest, BytesAndPredictionsSurviveRoundTrip) {
  const Blobs blobs = MakeBlobs(300, 1.0, 7);
  auto trainer = MakeTrainer(GetParam());
  const auto model = trainer->Fit(blobs.X, blobs.y, blobs.unit_weights);

  Result<std::vector<uint8_t>> bytes = SerializeModelBinary(*model);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto loaded = DeserializeModelBinary(*bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->Name(), model->Name());

  // Raw IEEE-754 round-trip: probabilities are bit-identical, and the
  // re-serialized bytes equal the original (the checkpoint layer's
  // bit-identity guarantee rests on this).
  EXPECT_EQ((*loaded)->PredictProba(blobs.X), model->PredictProba(blobs.X));
  Result<std::vector<uint8_t>> again = SerializeModelBinary(**loaded);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *bytes);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, BinaryRoundTripTest,
                         ::testing::Values("lr", "dt", "rf", "xgb", "nn", "nb"));

TEST(SerializationTest, BinaryTruncationAtEveryPrefixIsTyped) {
  const Blobs blobs = MakeBlobs(60, 1.0, 11);
  auto trainer = MakeTrainer("xgb");
  const auto model = trainer->Fit(blobs.X, blobs.y, blobs.unit_weights);
  Result<std::vector<uint8_t>> bytes = SerializeModelBinary(*model);
  ASSERT_TRUE(bytes.ok());
  for (size_t cut = 0; cut < bytes->size(); cut += 7) {
    const std::vector<uint8_t> prefix(bytes->begin(),
                                      bytes->begin() + static_cast<long>(cut));
    auto loaded = DeserializeModelBinary(prefix);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "cut at " << cut << ": " << loaded.status();
  }
}

TEST(SerializationTest, BinaryUnknownFamilyTagIsDataLoss) {
  const std::vector<uint8_t> bytes = {42};
  auto loaded = DeserializeModelBinary(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("tag"), std::string::npos);
}

TEST(SerializationTest, BinaryTreeWithBackwardChildrenRejected) {
  // Build valid bytes for a 2-node tree, then corrupt the child index so the
  // structural validation (not the codec) has to catch it.
  BinaryWriter writer;
  writer.U8(3);  // decision_tree tag
  writer.U64(2);
  writer.U8(0);      // split node
  writer.I32(0);     // feature
  writer.F64(0.5);   // threshold
  writer.I32(0);     // left = self: would loop forever
  writer.I32(1);     // right
  writer.U8(1);      // leaf node
  writer.F64(0.25);  // probability
  auto loaded = DeserializeModelBinary(writer.buffer());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace omnifair
