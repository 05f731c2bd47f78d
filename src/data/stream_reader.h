#ifndef OMNIFAIR_DATA_STREAM_READER_H_
#define OMNIFAIR_DATA_STREAM_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/csv.h"
#include "data/encoder.h"
#include "util/status.h"

namespace omnifair {

// ---------------------------------------------------------------------------
// Out-of-core CSV ingest (DESIGN.md §16).
//
// StreamCsvToChunked maps the CSV (or, for a pipe, reads it in fixed-size
// byte chunks), parses complete records block-by-block on the shared thread
// pool, encodes each block straight into the float32 feature layout, and
// spills the encoded blocks to an on-disk chunked dataset
// (data/chunked_dataset.h). Mapped file pages count towards resident memory,
// so the pages behind each flushed block are released (madvise
// MADV_DONTNEED). Peak resident memory is then about one block of raw text
// plus one encoded block, independent of file size, so a 10M-row file never
// holds raw text and encoded features in RAM at once.
//
// Each block is parsed on the pool in kCsvRangeRows-row ranges
// (data/csv_parser.h) whose cuts depend only on the block's row count, and
// every row lands in a preassigned slot, so the output file is byte-identical
// at any num_threads.
//
// Streaming-encode compromise: the feature encoder (standardization
// statistics, one-hot dictionaries) is fitted on the FIRST block only, which
// goes through ReadCsv's parser (group column forced categorical, same range
// parallelism) before it is packed like every other block. Categories first seen in later blocks
// encode as all-zero one-hot rows —
// the same treatment FeatureEncoder::Transform gives unseen validation
// categories. Make the first block representative (the default 65536 rows
// is far above what the statistics need).
// ---------------------------------------------------------------------------

/// Options for the streaming ingest.
struct StreamIngestOptions {
  char delimiter = ',';
  /// Name of the label column (parsed as 0/1, or equality with
  /// positive_label_value when set).
  std::string label_column = "label";
  std::string positive_label_value;
  /// Sensitive-attribute column whose codes are stored per row in the
  /// chunked file (required; always treated as categorical).
  std::string group_column;
  /// Columns forced categorical even if the first block looks numeric.
  std::vector<std::string> force_categorical;
  /// Rows per encoded block (and per parse task batch).
  size_t block_rows = 65536;
  /// Map the whole input file and parse record views straight out of the
  /// mapping (zero-copy). When off — or when mmap fails, e.g. the input is
  /// a pipe — the ingest falls back to chunked read(2) with records carried
  /// across chunk boundaries. Mainly a test/diagnostic knob.
  bool use_mmap = true;
  /// Bytes per read(2) chunk on the fallback path.
  size_t read_chunk_bytes = 1 << 20;
  /// Parse parallelism within a block (block 0's fit included); 0 = the
  /// global pool's width. Output is bit-identical at any setting (row ranges
  /// land in preassigned slots).
  int num_threads = 0;
  /// Encoder settings.
  EncoderOptions encoder;
};

/// What the ingest did (also mirrored on the ingest.* telemetry counters).
struct IngestStats {
  uint64_t rows = 0;
  uint64_t blocks = 0;
  uint64_t chunks = 0;        ///< read(2) chunks consumed
  uint64_t bytes_read = 0;
  uint64_t num_features = 0;
  double parse_seconds = 0.0; ///< wall time in parse+encode (excludes IO)
  double spill_seconds = 0.0; ///< wall time serializing + writing blocks
};

/// Streams `csv_path` into a chunked dataset at `out_path`. Parse errors
/// carry the path, 1-based record number and absolute byte offset of the
/// offending row.
Result<IngestStats> StreamCsvToChunked(const std::string& csv_path,
                                       const std::string& out_path,
                                       const StreamIngestOptions& options);

}  // namespace omnifair

#endif  // OMNIFAIR_DATA_STREAM_READER_H_
