#include "core/stream_tune.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/spec.h"
#include "core/weights.h"
#include "data/chunked_dataset.h"
#include "data/datasets.h"
#include "data/synthetic_stream.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"

namespace omnifair {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

struct HandBlock {
  std::vector<std::vector<double>> features;
  std::vector<int> labels;
  std::vector<int> groups;
};

/// Writes a chunked dataset from hand-built blocks (group names "a", "b").
void WriteHandChunked(const std::string& path,
                      const std::vector<HandBlock>& blocks) {
  const size_t nf = blocks[0].features[0].size();
  Result<ChunkedDatasetWriter> writer =
      ChunkedDatasetWriter::Create(path, static_cast<uint32_t>(nf));
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const HandBlock& hand : blocks) {
    DatasetBlock block;
    block.features = Matrix(hand.features.size(), nf);
    for (size_t r = 0; r < hand.features.size(); ++r) {
      for (size_t c = 0; c < nf; ++c) {
        block.features.Set(r, c, hand.features[r][c]);
      }
    }
    block.labels = hand.labels;
    block.groups = hand.groups;
    ASSERT_TRUE(writer->AppendBlock(block).ok());
  }
  ASSERT_TRUE(writer->Finalize("label", "grp", {"a", "b"}, "").ok());
}

/// The same rows as an in-memory Dataset (for WeightComputer parity).
Dataset HandDataset(const std::vector<HandBlock>& blocks) {
  Dataset dataset("hand");
  Column grp = Column::Categorical("grp", {"a", "b"});
  std::vector<int> labels;
  for (const HandBlock& hand : blocks) {
    for (size_t r = 0; r < hand.labels.size(); ++r) {
      grp.AppendCode(hand.groups[r]);
      labels.push_back(hand.labels[r]);
    }
  }
  dataset.AddColumn(std::move(grp));
  dataset.SetLabels(std::move(labels));
  return dataset;
}

/// Two all-train blocks (default val_block_period = 5 marks none of them
/// validation) with both groups and both labels represented.
std::vector<HandBlock> ParityBlocks() {
  return {
      {{{1.0}, {2.0}, {3.0}, {4.0}},
       {1, 0, 1, 0},
       {0, 0, 1, 1}},
      {{{5.0}, {6.0}, {7.0}},
       {1, 1, 0},
       {0, 1, 1}},
  };
}

TEST(StreamCoefficientTableTest, WeightsMatchInMemoryWeightComputer) {
  const std::vector<HandBlock> blocks = ParityBlocks();
  const std::string path = TempPath("parity.ofcd");
  WriteHandChunked(path, blocks);
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok()) << chunked.status();

  const Dataset train = HandDataset(blocks);
  const std::vector<MetricKind> metrics = {
      MetricKind::kStatisticalParity, MetricKind::kMisclassificationRate,
      MetricKind::kFalsePositiveRate, MetricKind::kFalseNegativeRate};
  for (MetricKind metric : metrics) {
    StreamTuneOptions options;
    options.metric = metric;
    Result<StreamCoefficientTable> table =
        BuildStreamCoefficientTable(*chunked, options);
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ(table->n_train, train.NumRows());

    // GroupByAttribute("grp") induces the single pairwise constraint
    // ("a", "b") — the same pair as stream group1=0, group2=1.
    Result<std::vector<ConstraintSpec>> constraints = InduceConstraints(
        MakeSpec(GroupByAttribute("grp"), metric, options.epsilon), train);
    ASSERT_TRUE(constraints.ok()) << constraints.status();
    ASSERT_EQ(constraints->size(), 1u);
    ASSERT_EQ((*constraints)[0].group1, "a");
    ASSERT_EQ((*constraints)[0].group2, "b");
    WeightComputer computer(*constraints, train);

    for (double lambda : {0.0, 0.3, -0.7, 2.5, -40.0}) {
      const std::vector<double> expected = computer.Compute(lambda, nullptr);
      ASSERT_EQ(expected.size(), train.NumRows());
      for (size_t i = 0; i < expected.size(); ++i) {
        const int g = train.ColumnByName("grp").Code(i);
        const double s = table->s[static_cast<size_t>(g)]
                                 [static_cast<size_t>(train.Label(i))];
        const double streamed = std::max(
            0.0, 1.0 + static_cast<double>(table->n_train) * lambda * s);
        EXPECT_DOUBLE_EQ(streamed, expected[i])
            << "metric " << static_cast<int>(metric) << " lambda " << lambda
            << " row " << i;
      }
    }
  }
}

TEST(StreamCoefficientTableTest, RejectsPredictionDependentMetrics) {
  const std::string path = TempPath("reject_for.ofcd");
  WriteHandChunked(path, ParityBlocks());
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok());
  for (MetricKind metric :
       {MetricKind::kFalseOmissionRate, MetricKind::kFalseDiscoveryRate}) {
    StreamTuneOptions options;
    options.metric = metric;
    Result<StreamCoefficientTable> table =
        BuildStreamCoefficientTable(*chunked, options);
    ASSERT_FALSE(table.ok());
    EXPECT_EQ(table.status().code(), StatusCode::kUnsupported);
  }
}

TEST(StreamCoefficientTableTest, RejectsBadGroupIndices) {
  const std::string path = TempPath("reject_groups.ofcd");
  WriteHandChunked(path, ParityBlocks());
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok());
  StreamTuneOptions options;
  options.group1 = 0;
  options.group2 = 7;  // out of range
  EXPECT_FALSE(BuildStreamCoefficientTable(*chunked, options).ok());
  options.group2 = 0;  // same as group1
  EXPECT_FALSE(BuildStreamCoefficientTable(*chunked, options).ok());
}

/// Streams a synthetic COMPAS sample to disk for end-to-end tuning tests.
std::string StreamedCompas(const std::string& name, size_t rows,
                           size_t block_rows) {
  const std::string path = TempPath(name);
  synthetic::StreamGenerateOptions options;
  options.num_rows = rows;
  options.block_rows = block_rows;
  options.seed = 42;
  Result<synthetic::StreamGenerateStats> stats =
      synthetic::GenerateSyntheticStream(MakeCompasSchema(), path, options);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return path;
}

TEST(StreamTuneTest, SatisfiesStatisticalParityOnStreamedCompas) {
  const std::string path = StreamedCompas("tune_sp.ofcd", 6000, 512);
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok()) << chunked.status();

  StreamTuneOptions options;
  options.metric = MetricKind::kStatisticalParity;
  options.epsilon = 0.05;
  options.batch_size = 256;
  options.epochs = 3;
  Result<StreamTuneResult> tuned = StreamTuneLambda(*chunked, options);
  ASSERT_TRUE(tuned.ok()) << tuned.status();
  EXPECT_TRUE(tuned->satisfied);
  EXPECT_LE(std::fabs(tuned->val_fairness_gap), options.epsilon);
  EXPECT_GT(tuned->val_accuracy, 0.55);
  EXPECT_GE(tuned->models_trained, 1);
  EXPECT_EQ(tuned->theta.size(), chunked->meta().num_features + 1);
  for (double t : tuned->theta) EXPECT_TRUE(std::isfinite(t));
}

TEST(StreamTuneTest, BitwiseDeterministicAcrossRuns) {
  const std::string path = StreamedCompas("tune_det.ofcd", 4000, 512);
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok()) << chunked.status();

  StreamTuneOptions options;
  options.batch_size = 128;
  options.epochs = 2;
  Result<StreamTuneResult> first = StreamTuneLambda(*chunked, options);
  Result<StreamTuneResult> second = StreamTuneLambda(*chunked, options);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->lambda, second->lambda);
  EXPECT_EQ(first->models_trained, second->models_trained);
  ASSERT_EQ(first->theta.size(), second->theta.size());
  for (size_t i = 0; i < first->theta.size(); ++i) {
    EXPECT_EQ(first->theta[i], second->theta[i]) << "theta[" << i << "]";
  }
}

TEST(StreamTuneTest, LambdaZeroWhenUnconstrained) {
  // epsilon = 1 is satisfied by any model, so the tuner returns the base fit.
  const std::string path = StreamedCompas("tune_loose.ofcd", 3000, 512);
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok());
  StreamTuneOptions options;
  options.epsilon = 1.0;
  options.batch_size = 256;
  options.epochs = 2;
  Result<StreamTuneResult> tuned = StreamTuneLambda(*chunked, options);
  ASSERT_TRUE(tuned.ok()) << tuned.status();
  EXPECT_TRUE(tuned->satisfied);
  EXPECT_EQ(tuned->lambda, 0.0);
  EXPECT_EQ(tuned->models_trained, 1);
}

TEST(StreamTuneTest, ValidationGapMatchesInMemoryEvaluator) {
  // epsilon = 1 returns the one base fit; its streamed validation gap must
  // be the in-memory ConstraintEvaluator's FairnessPart on the same rows
  // with the returned theta's predictions.
  const std::string path = StreamedCompas("tune_val_parity.ofcd", 3000, 256);
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok()) << chunked.status();
  const std::vector<std::string>& names = chunked->meta().group_names;
  const size_t d = chunked->meta().num_features;
  for (MetricKind metric :
       {MetricKind::kStatisticalParity, MetricKind::kMisclassificationRate,
        MetricKind::kFalsePositiveRate, MetricKind::kFalseNegativeRate}) {
    StreamTuneOptions options;
    options.metric = metric;
    options.epsilon = 1.0;
    options.batch_size = 256;
    options.epochs = 1;
    Result<StreamTuneResult> tuned = StreamTuneLambda(*chunked, options);
    ASSERT_TRUE(tuned.ok()) << tuned.status();
    ASSERT_EQ(tuned->models_trained, 1);
    ASSERT_EQ(tuned->theta.size(), d + 1);

    // The validation blocks (every val_block_period-th) as a Dataset, and
    // the returned model's predictions on them.
    Dataset val("val");
    Column grp = Column::Categorical("grp", names);
    std::vector<int> labels;
    std::vector<int> predictions;
    for (size_t b = options.val_block_period - 1; b < chunked->num_blocks();
         b += options.val_block_period) {
      Result<DatasetBlock> block = chunked->MaterializeBlock(b);
      ASSERT_TRUE(block.ok()) << block.status();
      for (size_t i = 0; i < block->labels.size(); ++i) {
        grp.AppendCode(block->groups[i]);
        labels.push_back(block->labels[i]);
        const double z = tuned->theta[d] +
                         simd::Active().dot_f32(block->features.RowF(i),
                                                tuned->theta.data(), d);
        predictions.push_back(z >= 0.0 ? 1 : 0);
      }
    }
    ASSERT_FALSE(labels.empty());
    val.AddColumn(std::move(grp));
    val.SetLabels(std::move(labels));

    ConstraintSpec constraint;
    constraint.grouping = GroupByAttribute("grp");
    constraint.metric = MakeMetric(metric);
    constraint.group1 = names[options.group1];
    constraint.group2 = names[options.group2];
    constraint.epsilon = options.epsilon;
    const ConstraintEvaluator evaluator({constraint}, val);
    EXPECT_NEAR(tuned->val_fairness_gap, evaluator.FairnessPart(0, predictions),
                1e-12)
        << "metric " << constraint.metric->Name();
  }
}

TEST(StreamTuneTest, NoDoublingsReturnsBaseModelUnsatisfied) {
  // max_doublings caps the exponential fits as in TuneOptions: with 0 and an
  // unreachable epsilon no bracket exists, so the lambda = 0 model comes
  // back unsatisfied after the one base fit.
  const std::string path = StreamedCompas("tune_no_doublings.ofcd", 3000, 512);
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok()) << chunked.status();
  StreamTuneOptions options;
  options.epsilon = 1e-9;
  options.max_doublings = 0;
  options.batch_size = 256;
  options.epochs = 1;
  Result<StreamTuneResult> tuned = StreamTuneLambda(*chunked, options);
  ASSERT_TRUE(tuned.ok()) << tuned.status();
  EXPECT_EQ(tuned->lambda, 0.0);
  EXPECT_FALSE(tuned->satisfied);
  EXPECT_EQ(tuned->models_trained, 1);
}

}  // namespace
}  // namespace omnifair
