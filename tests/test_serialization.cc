#include "ml/serialization.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ml/trainer_registry.h"
#include "tests/testing_data.h"

namespace omnifair {
namespace {

using testing_data::Blobs;
using testing_data::MakeBlobs;

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

TEST(SerializationTest, BinaryTreeWithBadChildrenRejected) {
  // Valid bytes for a 2-node tree whose split points at bad children, so the
  // structural validation (not the codec) has to catch it: a left child of
  // itself would loop forever, one past the node array would read out of
  // bounds.
  for (const auto& [left, right] : {std::pair{0, 1}, std::pair{1, 7}}) {
    BinaryWriter writer;
    writer.U8(3);  // decision_tree tag
    writer.U64(2);
    writer.U8(0);      // split node
    writer.I32(0);     // feature
    writer.F64(0.5);   // threshold
    writer.I32(left);
    writer.I32(right);
    writer.U8(1);      // leaf node
    writer.F64(0.25);  // probability
    auto loaded = DeserializeModelBinary(writer.buffer());
    ASSERT_FALSE(loaded.ok()) << left << "," << right;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("invalid children"),
              std::string::npos)
        << loaded.status();
  }
}

TEST(SerializationTest, BinaryMlpWithMismatchedLayerWidthsIsDataLoss) {
  // A 2x1 hidden layer whose bias/output vectors claim other widths: a
  // consistent-looking payload the model could not be built from.
  for (const auto& [b1_width, w2_width] : {std::pair{1, 2}, std::pair{2, 3}}) {
    BinaryWriter writer;
    writer.U8(6);  // mlp tag
    writer.U64(2);  // hidden units
    writer.U64(1);  // inputs
    writer.F64(0.5);
    writer.F64(-0.5);
    writer.F64Vector(std::vector<double>(b1_width, 0.0));
    writer.F64Vector(std::vector<double>(w2_width, 1.0));
    writer.F64(0.0);  // b2
    auto loaded = DeserializeModelBinary(writer.buffer());
    ASSERT_FALSE(loaded.ok()) << b1_width << "," << w2_width;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  }
}

}  // namespace
}  // namespace omnifair
