#ifndef OMNIFAIR_DATA_SYNTHETIC_STREAM_H_
#define OMNIFAIR_DATA_SYNTHETIC_STREAM_H_

#include <cstdint>
#include <string>

#include "data/encoder.h"
#include "data/synthetic_common.h"
#include "util/status.h"

namespace omnifair {
namespace synthetic {

/// Options for out-of-core synthetic generation.
struct StreamGenerateOptions {
  /// Number of rows; 0 means the schema's default size.
  size_t num_rows = 0;
  uint64_t seed = 42;
  /// Rows per encoded block. Determinism contract: output depends on
  /// (seed, block_rows) — the same pair always produces the same file.
  size_t block_rows = 65536;
  /// Encoder settings.
  EncoderOptions encoder;
};

/// What the generation produced.
struct StreamGenerateStats {
  uint64_t rows = 0;
  uint64_t blocks = 0;
  uint64_t num_features = 0;
};

/// Samples `num_rows` rows from `schema` directly into a chunked dataset at
/// `out_path` (data/chunked_dataset.h), one block at a time — 10M+ rows never
/// exist in RAM at once. The feature encoder is fitted on the first block and
/// applied to all blocks; block b is sampled with an Rng seeded from a
/// per-block stream of the base seed.
Result<StreamGenerateStats> GenerateSyntheticStream(
    const Schema& schema, const std::string& out_path,
    const StreamGenerateOptions& options);

}  // namespace synthetic
}  // namespace omnifair

#endif  // OMNIFAIR_DATA_SYNTHETIC_STREAM_H_
