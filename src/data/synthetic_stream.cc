#include "data/synthetic_stream.h"

#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "data/chunked_dataset.h"
#include "data/dataset.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/telemetry.h"

namespace omnifair {
namespace synthetic {

Result<StreamGenerateStats> GenerateSyntheticStream(
    const Schema& schema, const std::string& out_path,
    const StreamGenerateOptions& options) {
  OF_CHECK_GE(schema.groups.size(), 2u) << schema.dataset_name;
  const size_t total = options.num_rows > 0 ? options.num_rows : schema.default_num_rows;
  const size_t block_rows = options.block_rows > 0 ? options.block_rows : 65536;
  if (total == 0) {
    return Status::InvalidArgument("GenerateSyntheticStream: zero rows for " +
                                   schema.dataset_name);
  }

  std::vector<std::string> group_names;
  for (const GroupSpec& g : schema.groups) group_names.push_back(g.name);

  // Per-block seeds come from one base stream, so the file depends only on
  // (seed, block_rows), never on how the caller interleaves other RNG use.
  Rng seed_stream(options.seed);

  FeatureEncoder encoder;
  std::string encoder_text;
  std::unique_ptr<ChunkedDatasetWriter> writer;

  StreamGenerateStats stats;
  for (size_t start = 0; start < total; start += block_rows) {
    const size_t rows = std::min(block_rows, total - start);
    SyntheticOptions block_options;
    block_options.num_rows = rows;
    block_options.seed = seed_stream.NextUint64();
    Dataset block = Generate(schema, block_options);
    if (!writer) {
      encoder.Fit(block, options.encoder);
      std::ostringstream os;
      encoder.SerializeTo(os);
      encoder_text = os.str();
      // Packed layout: categorical columns spill as u16 codes, so a 10M-row
      // file stays ~4x smaller than the dense float32 equivalent.
      Result<ChunkedLayout> layout = ChunkedLayout::FromPlans(
          encoder.plans(), options.encoder.one_hot_categorical);
      if (!layout.ok()) return layout.status();
      Result<ChunkedDatasetWriter> created =
          ChunkedDatasetWriter::Create(out_path, std::move(*layout));
      if (!created.ok()) return created.status();
      writer = std::make_unique<ChunkedDatasetWriter>(std::move(*created));
    }
    DatasetBlock out;
    out.features = encoder.Transform(block);
    out.labels = block.labels();
    out.groups = block.ColumnByName(schema.sensitive_attribute).codes();
    Status status = writer->AppendBlock(out);
    if (!status.ok()) return status;
    stats.rows += rows;
    stats.blocks += 1;
    OF_COUNTER_ADD("ingest.rows", static_cast<int64_t>(rows));
  }

  Status status = writer->Finalize(schema.label_name, schema.sensitive_attribute,
                                   group_names, encoder_text);
  if (!status.ok()) return status;
  stats.num_features = encoder.NumFeatures();
  return stats;
}

}  // namespace synthetic
}  // namespace omnifair
