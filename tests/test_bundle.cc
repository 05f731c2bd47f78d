// Chaos + parity suite for versioned binary model bundles (DESIGN.md §15):
// bit-identical flat predict across every model family and thread count,
// served scores bit-identical to the trained model, wire-format inspection,
// and fault-injected corruption (truncation, bit flips, the io.corrupt_read
// site) always failing with typed statuses.

#include "ml/bundle.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/omnifair.h"
#include "data/datasets.h"
#include "data/encoder.h"
#include "data/split.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "ml/trainer_registry.h"
#include "serve/server.h"
#include "tests/testing_fairness.h"
#include "util/fault_injector.h"
#include "util/snapshot_io.h"

namespace omnifair {
namespace {

using testing_fairness::MakeBiasedDataset;

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good());
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(file),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(file.good());
}

/// Shared fixture: a small encoded dataset plus a fitted encoder.
class BundleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Reset();
    dataset_ = MakeBiasedDataset(400, 0.7, 0.3, /*seed=*/11);
    encoder_.Fit(dataset_);
    X_ = encoder_.Transform(dataset_);
    y_ = dataset_.labels();
    weights_.assign(y_.size(), 1.0);
  }
  void TearDown() override { FaultInjector::Reset(); }

  /// Pack `model`, reopen it, and return the loaded bundle.
  std::shared_ptr<const ModelBundle> RoundTrip(const Classifier& model,
                                               const std::string& name) {
    const std::string path = TempPath(name);
    BundleMeta meta;
    meta.lambdas = {0.25, -0.5};
    meta.satisfied = true;
    meta.val_accuracy = 0.75;
    meta.metric = "sp";
    meta.sensitive_attribute = "grp";
    meta.epsilon = 0.05;
    Status written = WriteBundle(model, encoder_, meta, path);
    EXPECT_TRUE(written.ok()) << written.ToString();
    auto bundle = ModelBundle::Open(path);
    EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
    return bundle.ok() ? *bundle : nullptr;
  }

  /// PredictProba of `model` and the bundle's flat model must agree bit for
  /// bit at 1 and 4 predict threads.
  void ExpectBitIdentical(const Classifier& model, const ModelBundle& bundle) {
    const std::vector<double> want = model.PredictProba(X_);
    for (int threads : {1, 4}) {
      std::unique_ptr<Classifier> flat = bundle.MakeModel(threads);
      ASSERT_NE(flat, nullptr);
      EXPECT_EQ(flat->Name(), model.Name());
      const std::vector<double> got = flat->PredictProba(X_);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i])
            << model.Name() << " row " << i << " threads " << threads;
      }
    }
  }

  Dataset dataset_;
  FeatureEncoder encoder_;
  Matrix X_;
  std::vector<int> y_;
  std::vector<double> weights_;
};

// ---------------------------------------------------------------------------
// Flat predict parity, per family
// ---------------------------------------------------------------------------

TEST_F(BundleTest, LogisticRegressionRoundTripIsBitIdentical) {
  auto model = MakeTrainer("lr", 3)->Fit(X_, y_, weights_);
  ASSERT_NE(model, nullptr);
  auto bundle = RoundTrip(*model, "lr.ofb");
  ASSERT_NE(bundle, nullptr);
  ExpectBitIdentical(*model, *bundle);
}

TEST_F(BundleTest, NaiveBayesRoundTripIsBitIdentical) {
  auto model = MakeTrainer("nb", 3)->Fit(X_, y_, weights_);
  ASSERT_NE(model, nullptr);
  auto bundle = RoundTrip(*model, "nb.ofb");
  ASSERT_NE(bundle, nullptr);
  ExpectBitIdentical(*model, *bundle);
}

TEST_F(BundleTest, MlpRoundTripIsBitIdentical) {
  MlpOptions options;
  options.hidden_units = 9;
  options.max_epochs = 30;
  auto model = MlpTrainer(options).Fit(X_, y_, weights_);
  ASSERT_NE(model, nullptr);
  auto bundle = RoundTrip(*model, "mlp.ofb");
  ASSERT_NE(bundle, nullptr);
  ExpectBitIdentical(*model, *bundle);
}

TEST_F(BundleTest, DecisionTreeParityAcrossDepths) {
  for (int depth : {1, 3, 8}) {
    DecisionTreeOptions options;
    options.max_depth = depth;
    auto model = DecisionTreeTrainer(options).Fit(X_, y_, weights_);
    ASSERT_NE(model, nullptr);
    auto bundle = RoundTrip(*model, "dt.ofb");
    ASSERT_NE(bundle, nullptr) << "depth " << depth;
    ExpectBitIdentical(*model, *bundle);
  }
}

TEST_F(BundleTest, SingleNodeTreeRoundTrips) {
  // Constant labels: the root never splits, giving a one-node tree.
  std::vector<int> ones(y_.size(), 1);
  auto model = DecisionTreeTrainer().Fit(X_, ones, weights_);
  ASSERT_NE(model, nullptr);
  ASSERT_EQ(dynamic_cast<DecisionTreeModel*>(model.get())->NumNodes(), 1u);
  auto bundle = RoundTrip(*model, "dt_leaf.ofb");
  ASSERT_NE(bundle, nullptr);
  ExpectBitIdentical(*model, *bundle);
}

TEST_F(BundleTest, RandomForestParity) {
  RandomForestOptions options;
  options.num_trees = 12;
  options.max_depth = 5;
  auto model = RandomForestTrainer(options).Fit(X_, y_, weights_);
  ASSERT_NE(model, nullptr);
  auto bundle = RoundTrip(*model, "rf.ofb");
  ASSERT_NE(bundle, nullptr);
  ExpectBitIdentical(*model, *bundle);
}

TEST_F(BundleTest, GbdtParity) {
  GbdtOptions options;
  options.num_rounds = 10;
  options.max_depth = 3;
  auto model = GbdtTrainer(options).Fit(X_, y_, weights_);
  ASSERT_NE(model, nullptr);
  auto bundle = RoundTrip(*model, "gbdt.ofb");
  ASSERT_NE(bundle, nullptr);
  ExpectBitIdentical(*model, *bundle);
}

TEST_F(BundleTest, AccumulateProbaMatchesPointerModels) {
  // Serving shards via AccumulateProba too (RF members); flat DT/GBDT must
  // match the pointer models' accumulate path bit for bit, including the
  // GBDT per-block sigmoid boundaries (offset slice starts mid-block).
  GbdtOptions options;
  options.num_rounds = 8;
  auto gbdt = GbdtTrainer(options).Fit(X_, y_, weights_);
  ASSERT_NE(gbdt, nullptr);
  auto bundle = RoundTrip(*gbdt, "gbdt_acc.ofb");
  ASSERT_NE(bundle, nullptr);
  auto flat = bundle->MakeModel();
  std::vector<double> want(X_.rows(), 0.125);
  std::vector<double> got(X_.rows(), 0.125);
  gbdt->AccumulateProba(X_, 3, X_.rows() - 5, want);
  flat->AccumulateProba(X_, 3, X_.rows() - 5, got);
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]) << i;
}

// ---------------------------------------------------------------------------
// Wire format, metadata, and mmap behavior
// ---------------------------------------------------------------------------

TEST_F(BundleTest, MetaAndEncoderRoundTrip) {
  auto model = MakeTrainer("lr", 3)->Fit(X_, y_, weights_);
  auto bundle = RoundTrip(*model, "meta.ofb");
  ASSERT_NE(bundle, nullptr);
  EXPECT_EQ(bundle->meta().family, "logistic_regression");
  EXPECT_EQ(bundle->meta().lambdas, (std::vector<double>{0.25, -0.5}));
  EXPECT_TRUE(bundle->meta().satisfied);
  EXPECT_DOUBLE_EQ(bundle->meta().val_accuracy, 0.75);
  EXPECT_EQ(bundle->meta().metric, "sp");
  EXPECT_EQ(bundle->meta().sensitive_attribute, "grp");
  EXPECT_DOUBLE_EQ(bundle->meta().epsilon, 0.05);
  EXPECT_EQ(bundle->meta().num_features, encoder_.NumFeatures());
  // The packed encoder produces the same matrix as the original.
  const Matrix X2 = bundle->encoder().Transform(dataset_);
  ASSERT_EQ(X2.rows(), X_.rows());
  ASSERT_EQ(X2.cols(), X_.cols());
  for (size_t i = 0; i < X_.rows(); ++i) {
    for (size_t c = 0; c < X_.cols(); ++c) EXPECT_EQ(X2(i, c), X_(i, c));
  }
}

TEST(FairModelBundleTest, TrainedFairModelRoundTrip) {
  // A bundle is the one model file a trained FairModel is saved to: its meta
  // carries the tuned λ exactly, and its encoder + flat model reproduce the
  // FairModel's predictions and audit on raw rows.
  SyntheticOptions options;
  options.num_rows = 2000;
  const Dataset dataset = MakeCompasDataset(options);
  const TrainValTestSplit split = SplitDefault(dataset, 5);
  const FairnessSpec spec = MakeSpec(
      GroupByAttributeValues("race", {"African-American", "Caucasian"}), "sp",
      0.05);
  auto trainer = MakeTrainer("lr");
  auto fair = OmniFair().Train(split.train, split.val, trainer.get(), {spec});
  ASSERT_TRUE(fair.ok()) << fair.status();

  BundleMeta meta;
  meta.lambdas = fair->lambdas;
  meta.satisfied = fair->satisfied;
  meta.val_accuracy = fair->val_accuracy;
  const std::string path = TempPath("fair_model.ofb");
  ASSERT_TRUE(WriteBundle(*fair->model, fair->encoder, meta, path).ok());
  auto bundle = ModelBundle::Open(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status();

  EXPECT_EQ((*bundle)->meta().lambdas, fair->lambdas);
  EXPECT_EQ((*bundle)->meta().satisfied, fair->satisfied);
  EXPECT_EQ((*bundle)->meta().val_accuracy, fair->val_accuracy);
  const Matrix want = fair->encoder.Transform(split.test);
  const Matrix got = (*bundle)->encoder().Transform(split.test);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t c = 0; c < want.cols(); ++c) EXPECT_EQ(got(i, c), want(i, c));
  }
  const std::unique_ptr<Classifier> model = (*bundle)->MakeModel();
  EXPECT_EQ(model->Predict(got), fair->Predict(split.test));
  auto original_audit = Audit(*fair->model, fair->encoder, split.test, {spec});
  auto bundle_audit = Audit(*model, (*bundle)->encoder(), split.test, {spec});
  ASSERT_TRUE(original_audit.ok());
  ASSERT_TRUE(bundle_audit.ok());
  EXPECT_EQ(bundle_audit->max_disparity, original_audit->max_disparity);
}

TEST(FairModelBundleTest, ServedScoresBitIdenticalPerFamily) {
  // Train/serve skew guard: a served score is the score the trained model
  // gave in-process. The bundle's encoder must rebuild exactly the features
  // the model trained on, and the flat model must replay its arithmetic, so
  // every score matches FairModel::PredictProba byte for byte.
  SyntheticOptions options;
  options.num_rows = 3000;
  options.seed = 7;
  const Dataset dataset = MakeAdultDataset(options);
  const TrainValTestSplit split = SplitDefault(dataset, 3);
  const FairnessSpec spec = MakeSpec(GroupByAttribute("sex"), "sp", 0.05);
  for (const char* family : {"lr", "xgb", "nn"}) {
    SCOPED_TRACE(family);
    auto trainer = MakeTrainer(family);
    auto fair = OmniFair().Train(split.train, split.val, trainer.get(), {spec});
    ASSERT_TRUE(fair.ok()) << fair.status();
    const std::vector<double> want = fair->PredictProba(split.test);

    const std::string path = TempPath(std::string("served_") + family + ".ofb");
    ASSERT_TRUE(WriteBundle(*fair->model, fair->encoder, BundleMeta(), path).ok());
    auto bundle = ModelBundle::Open(path);
    ASSERT_TRUE(bundle.ok()) << bundle.status();
    auto request = MakeRequest(**bundle, split.test, "sex");
    ASSERT_TRUE(request.ok()) << request.status();
    auto response = BundleServer(*bundle).Handle(*request);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->scores.size(), want.size());
    size_t differing = 0;
    for (size_t i = 0; i < want.size(); ++i) {
      if (std::memcmp(&response->scores[i], &want[i], sizeof(double)) != 0) {
        ++differing;
      }
    }
    EXPECT_EQ(differing, 0u) << "of " << want.size() << " served scores";
    std::remove(path.c_str());
  }
}

TEST_F(BundleTest, InspectReportsSectionsAndCrc) {
  auto model = MakeTrainer("rf", 3)->Fit(X_, y_, weights_);
  const std::string path = TempPath("inspect.ofb");
  ASSERT_TRUE(WriteBundle(*model, encoder_, BundleMeta{}, path).ok());
  auto inspection = InspectBundle(path);
  ASSERT_TRUE(inspection.ok()) << inspection.status().ToString();
  EXPECT_EQ(inspection->version, kBundleVersion);
  EXPECT_TRUE(inspection->crc_ok);
  EXPECT_EQ(inspection->crc_stored, inspection->crc_computed);
  std::vector<std::string> names;
  for (const BundleSectionInfo& s : inspection->sections) {
    names.push_back(s.name);
    EXPECT_EQ(s.offset % kBundleAlign, 0u) << s.name;
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"meta", "encoder", "trees.meta",
                                      "trees.offsets", "trees.feature",
                                      "trees.threshold", "trees.left_child",
                                      "trees.leaf_value"}));
  const std::string text = inspection->ToString();
  EXPECT_NE(text.find("trees.leaf_value"), std::string::npos);
  EXPECT_NE(text.find("(ok)"), std::string::npos);
}

TEST_F(BundleTest, MmapAndOwnedBufferAgree) {
  auto model = MakeTrainer("xgb", 3)->Fit(X_, y_, weights_);
  const std::string path = TempPath("mmap.ofb");
  ASSERT_TRUE(WriteBundle(*model, encoder_, BundleMeta{}, path).ok());
  auto mapped = ModelBundle::Open(path);
  ASSERT_TRUE(mapped.ok());
  ModelBundle::OpenOptions no_mmap;
  no_mmap.allow_mmap = false;
  auto owned = ModelBundle::Open(path, no_mmap);
  ASSERT_TRUE(owned.ok());
  EXPECT_TRUE((*mapped)->mapped());
  EXPECT_FALSE((*owned)->mapped());
  const std::vector<double> a = (*mapped)->MakeModel()->PredictProba(X_);
  const std::vector<double> b = (*owned)->MakeModel()->PredictProba(X_);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST_F(BundleTest, ModelsKeepTheBundleAlive) {
  auto model = MakeTrainer("lr", 3)->Fit(X_, y_, weights_);
  auto bundle = RoundTrip(*model, "alive.ofb");
  ASSERT_NE(bundle, nullptr);
  std::unique_ptr<Classifier> flat = bundle->MakeModel();
  const std::vector<double> before = flat->PredictProba(X_);
  bundle.reset();  // flat model holds the last reference to the mapping
  const std::vector<double> after = flat->PredictProba(X_);
  for (size_t i = 0; i < before.size(); ++i) EXPECT_EQ(after[i], before[i]);
}

TEST_F(BundleTest, WriteGoesThroughTheDurablePublishPath) {
  // WriteBundle shares the snapshot layer's temp+fsync+rename publish, so
  // its fault sites apply: a failed write leaves nothing at the final path.
  auto model = MakeTrainer("lr", 3)->Fit(X_, y_, weights_);
  const std::string path = TempPath("durable.ofb");
  FaultInjector::Arm(fault_sites::kIoEnospc, /*fire_at=*/1, /*repeat=*/true);
  const Status failed = WriteBundle(*model, encoder_, BundleMeta{}, path);
  FaultInjector::Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE(ModelBundle::Open(path).ok());
  ASSERT_TRUE(WriteBundle(*model, encoder_, BundleMeta{}, path).ok());
  EXPECT_TRUE(ModelBundle::Open(path).ok());
}

TEST_F(BundleTest, PackRejectsUnsupportedModels) {
  class OpaqueModel : public Classifier {
   public:
    std::vector<double> PredictProba(const Matrix& X) const override {
      return std::vector<double>(X.rows(), 0.5);
    }
    std::string Name() const override { return "opaque"; }
  };
  OpaqueModel opaque;
  const Status status =
      WriteBundle(opaque, encoder_, BundleMeta{}, TempPath("opaque.ofb"));
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// Corruption: every malformed bundle fails with a typed status, never UB
// ---------------------------------------------------------------------------

class BundleCorruptionTest : public BundleTest {
 protected:
  void SetUp() override {
    BundleTest::SetUp();
    auto model = MakeTrainer("xgb", 3)->Fit(X_, y_, weights_);
    path_ = TempPath("corrupt.ofb");
    ASSERT_TRUE(WriteBundle(*model, encoder_, BundleMeta{}, path_).ok());
    image_ = ReadFile(path_);
    ASSERT_GT(image_.size(), 64u);
  }

  void ExpectTypedFailure(const std::string& variant_path,
                          const std::string& context) {
    auto bundle = ModelBundle::Open(variant_path);
    ASSERT_FALSE(bundle.ok()) << context;
    const StatusCode code = bundle.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kInvalidArgument)
        << context << ": " << bundle.status().ToString();
  }

  std::string path_;
  std::vector<uint8_t> image_;
};

TEST_F(BundleCorruptionTest, TruncationAtEveryStrideFailsTyped) {
  const std::string variant = TempPath("truncated.ofb");
  for (size_t cut = 0; cut < image_.size(); cut += 211) {
    WriteFile(variant,
              std::vector<uint8_t>(image_.begin(), image_.begin() + cut));
    ExpectTypedFailure(variant, "cut at " + std::to_string(cut));
  }
}

TEST_F(BundleCorruptionTest, BitFlipAtEveryStrideFailsTyped) {
  const std::string variant = TempPath("flipped.ofb");
  for (size_t at = 0; at < image_.size(); at += 97) {
    std::vector<uint8_t> flipped = image_;
    flipped[at] ^= 0x10;
    WriteFile(variant, flipped);
    // A flip in zero padding between payloads still trips the whole-image
    // CRC, so every offset must fail.
    ExpectTypedFailure(variant, "flip at " + std::to_string(at));
  }
}

TEST_F(BundleCorruptionTest, CorruptReadFaultSiteTripsCrcGuard) {
  FaultInjector::Arm(fault_sites::kIoCorruptRead);
  auto bundle = ModelBundle::Open(path_);
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(bundle.status().message().find("near byte"), std::string::npos);
  FaultInjector::Reset();
  // Same file loads cleanly once the site is disarmed.
  EXPECT_TRUE(ModelBundle::Open(path_).ok());
}

TEST_F(BundleCorruptionTest, ForeignAndEmptyFilesFailTyped) {
  const std::string garbage = TempPath("garbage.ofb");
  WriteFile(garbage, std::vector<uint8_t>(4096, 0x5a));
  auto foreign = ModelBundle::Open(garbage);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kInvalidArgument);

  const std::string empty = TempPath("empty.ofb");
  WriteFile(empty, {});
  auto nothing = ModelBundle::Open(empty);
  ASSERT_FALSE(nothing.ok());
  EXPECT_EQ(nothing.status().code(), StatusCode::kDataLoss);

  auto missing = ModelBundle::Open(TempPath("missing.ofb"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);  // ENOENT
}

TEST_F(BundleCorruptionTest, HugeTreeOffsetTableFailsTypedNotOob) {
  // Adversarial (CRC-valid) image: rewrite the last trees.offsets entry to
  // 2^62. The section sizes stay unchanged, so the only defenses are the
  // overflow-proof element-count check and the int32 total-node bound — a
  // regression here is a 2^62-iteration OOB walk, not a clean failure.
  auto inspection = InspectBundle(path_);
  ASSERT_TRUE(inspection.ok()) << inspection.status().ToString();
  const BundleSectionInfo* offsets = nullptr;
  for (const BundleSectionInfo& section : inspection->sections) {
    if (section.name == "trees.offsets") offsets = &section;
  }
  ASSERT_NE(offsets, nullptr);
  ASSERT_GE(offsets->size, 16u);  // at least [0, end]
  std::vector<uint8_t> evil = image_;
  const uint64_t huge = uint64_t{1} << 62;
  std::memcpy(evil.data() + offsets->offset + offsets->size - 8, &huge, 8);
  const uint32_t crc = Crc32(evil.data(), evil.size() - 4);
  std::memcpy(evil.data() + evil.size() - 4, &crc, 4);
  const std::string variant = TempPath("huge_offsets.ofb");
  WriteFile(variant, evil);
  ExpectTypedFailure(variant, "2^62 tree offset");
}

TEST_F(BundleCorruptionTest, VersionFromTheFutureIsRejected) {
  std::vector<uint8_t> future = image_;
  future[4] = 99;  // version field (little-endian u32 at offset 4)
  // Keep the CRC valid so the version check itself is what fires.
  const uint32_t crc = Crc32(future.data(), future.size() - 4);
  std::memcpy(future.data() + future.size() - 4, &crc, 4);
  const std::string variant = TempPath("future.ofb");
  WriteFile(variant, future);
  auto bundle = ModelBundle::Open(variant);
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bundle.status().message().find("version"), std::string::npos);
}

}  // namespace
}  // namespace omnifair
