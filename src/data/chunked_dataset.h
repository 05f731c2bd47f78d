#ifndef OMNIFAIR_DATA_CHUNKED_DATASET_H_
#define OMNIFAIR_DATA_CHUNKED_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/encoder.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace omnifair {

// ---------------------------------------------------------------------------
// On-disk chunked dataset ("OFCD", DESIGN.md §16).
//
// The out-of-core currency of the streaming pipeline: encoded float32
// feature blocks spilled to disk so a 10M-row ingest never holds raw CSV
// text and encoded features in RAM at the same time. Layout (little-endian):
//
//   [header: magic 'OFCD' u32 | version u32 | flags u32 | reserved u32]
//   [block 0 payload][block 1 payload]...
//   [footer][trailer: footer_offset u64 | footer_crc32 u32 | magic u32]
//
// Blocks are stored PACKED, not dense: a one-hot group of k feature columns
// holds at most a single 1.0, so spilling all k floats writes 4k bytes per
// row where 2 (the u16 category code) carry the information. The footer's
// ChunkedLayout records how the dense float32 matrix maps onto the packed
// streams, and each block payload is
//
//   rows u64 | labels u8[rows] | groups i32[rows]
//   | floats f32[rows * floats_per_row] | codes u16[rows * codes_per_row]
//
// with the float/code streams row-major in layout-segment order. On the
// paper's adult schema this is 43 bytes/row instead of 167 — ingest spills
// (and every λ-tune epoch re-reads) a quarter of the bytes, and
// MaterializeBlock re-densifies into the float32 matrix bit-identically.
//
// Each payload carries its own CRC32 in the footer's block index, so a block
// is verified exactly when it is materialized — opening a file only
// validates the footer. The footer stores the schema (label/group names,
// the layout, the serialized FeatureEncoder) plus the block index
// {offset, rows, payload_bytes, crc32}.
//
// Writes go through the shared WriteFd loop (io.enospc / io.short_write
// fault sites apply) into a temp file that is fsynced and atomically renamed
// on Finalize — a crash mid-ingest never leaves a half-written file at the
// final path. Reads mmap one block at a time (page-aligned window, unmapped
// after copy), bounding resident memory to one decoded block regardless of
// file size.
// ---------------------------------------------------------------------------

/// How one run of adjacent dense feature columns is stored on disk.
enum class SegmentKind : uint8_t {
  /// `width` float32 values per row, stored verbatim.
  kNumericF32 = 0,
  /// One u16 category code per row, expanding to `width` one-hot columns.
  /// Code == width is the "unseen category" sentinel: all columns zero.
  kOneHotU16 = 1,
  /// One u16 category code per row, expanding to a single raw-code column.
  kCodeU16 = 2,
};

/// One run of the on-disk column layout.
struct ChunkedSegment {
  SegmentKind kind = SegmentKind::kNumericF32;
  uint32_t width = 0;  ///< dense feature columns the segment expands to
};

/// Ordered description of how a block's dense float32 feature matrix is
/// packed into the on-disk float/code streams.
struct ChunkedLayout {
  std::vector<ChunkedSegment> segments;

  /// Identity layout: every feature column stored as raw float32.
  static ChunkedLayout DenseF32(uint32_t num_features);

  /// Layout mirroring a fitted encoder's column plans: numeric columns pack
  /// into float32 runs, categorical columns into u16 codes (one-hot or raw
  /// per `one_hot_categorical`). Fails when a categorical column has too
  /// many categories for a u16 code (>= 65535).
  static Result<ChunkedLayout> FromPlans(
      const std::vector<FeatureEncoder::ColumnPlan>& plans,
      bool one_hot_categorical);

  /// Dense feature columns the layout expands to (sum of segment widths).
  size_t DenseWidth() const;
  /// float32 values stored per row.
  size_t FloatsPerRow() const;
  /// u16 codes stored per row.
  size_t CodesPerRow() const;
};

/// One materialized block: float32 features + labels + sensitive-group codes.
struct DatasetBlock {
  Matrix features;          ///< rows x num_features
  std::vector<int> labels;  ///< binary 0/1, length rows
  std::vector<int> groups;  ///< codes into ChunkedDatasetMeta::group_names
};

/// One block already in the packed on-disk representation. Producers that
/// know the layout (the streaming ingest) fill this directly and skip the
/// dense matrix entirely — no multi-MB zero-init, no one-hot scatter, and
/// a quarter of the serialized bytes.
struct CompactBlock {
  uint64_t rows = 0;
  std::vector<uint8_t> labels;   ///< binary 0/1, length rows
  std::vector<int32_t> groups;   ///< codes into group_names, length rows
  std::vector<float> floats;     ///< rows * FloatsPerRow(), row-major
  std::vector<uint16_t> codes;   ///< rows * CodesPerRow(), row-major
};

/// Location + integrity record of one block inside the file.
struct BlockIndexEntry {
  uint64_t offset = 0;
  uint64_t rows = 0;
  uint64_t payload_bytes = 0;
  uint32_t crc32 = 0;
};

/// Schema + index parsed from the footer.
struct ChunkedDatasetMeta {
  uint64_t total_rows = 0;
  uint32_t num_features = 0;  ///< dense width (== layout.DenseWidth())
  ChunkedLayout layout;       ///< how blocks are packed on disk
  std::string label_name;
  std::string group_column;
  std::vector<std::string> group_names;  ///< dictionary for DatasetBlock::groups
  std::string encoder_text;              ///< FeatureEncoder::SerializeTo payload
  std::vector<BlockIndexEntry> blocks;
};

/// Streaming writer. Create -> AppendBlock xN -> Finalize. The file is
/// written to `<path>.tmp` and only renamed to `path` by a successful
/// Finalize; destroying an unfinalized writer unlinks the temp file.
/// Move-only (owns the fd).
class ChunkedDatasetWriter {
 public:
  /// Writer for blocks packed per `layout`.
  static Result<ChunkedDatasetWriter> Create(const std::string& path,
                                             ChunkedLayout layout);
  /// Convenience: every feature column stored as raw float32.
  static Result<ChunkedDatasetWriter> Create(const std::string& path,
                                             uint32_t num_features);
  ChunkedDatasetWriter(ChunkedDatasetWriter&& other) noexcept;
  ChunkedDatasetWriter& operator=(ChunkedDatasetWriter&& other) noexcept;
  ChunkedDatasetWriter(const ChunkedDatasetWriter&) = delete;
  ChunkedDatasetWriter& operator=(const ChunkedDatasetWriter&) = delete;
  ~ChunkedDatasetWriter();

  /// Appends one dense block (features must have num_features columns,
  /// labels/groups the same length as features.rows()), packing it per the
  /// layout first. One-hot segments must actually be one-hot (a
  /// single 1.0 or all zeros per row) and code segments must hold exact
  /// u16-range integers; anything else is kInvalidArgument. Counts the
  /// spilled bytes on the `ingest.spill_bytes` counter.
  Status AppendBlock(const DatasetBlock& block);

  /// Appends one block already in the packed representation (sizes must
  /// match rows and the layout's per-row stream widths).
  Status AppendBlock(const CompactBlock& block);

  /// Writes footer + trailer, fsyncs, and atomically renames the temp file
  /// to the final path. The writer is closed afterwards.
  Status Finalize(const std::string& label_name, const std::string& group_column,
                  const std::vector<std::string>& group_names,
                  const std::string& encoder_text);

  uint64_t total_rows() const { return total_rows_; }
  size_t num_blocks() const { return blocks_.size(); }

 private:
  ChunkedDatasetWriter(std::string path, std::string temp_path, int fd,
                       ChunkedLayout layout);
  Status AppendPayload(const std::vector<uint8_t>& payload, uint64_t rows);
  void Abandon();

  std::string path_;
  std::string temp_path_;
  int fd_ = -1;
  ChunkedLayout layout_;
  uint32_t num_features_ = 0;
  uint64_t offset_ = 0;
  uint64_t total_rows_ = 0;
  std::vector<BlockIndexEntry> blocks_;
};

/// Random-access reader. Open validates the trailer + footer CRC only;
/// MaterializeBlock maps, CRC-checks and decodes one block. Move-only.
class ChunkedDataset {
 public:
  static Result<ChunkedDataset> Open(const std::string& path);
  ChunkedDataset(ChunkedDataset&& other) noexcept;
  ChunkedDataset& operator=(ChunkedDataset&& other) noexcept;
  ChunkedDataset(const ChunkedDataset&) = delete;
  ChunkedDataset& operator=(const ChunkedDataset&) = delete;
  ~ChunkedDataset();

  const ChunkedDatasetMeta& meta() const { return meta_; }
  size_t num_blocks() const { return meta_.blocks.size(); }
  uint64_t total_rows() const { return meta_.total_rows; }

  /// Maps block `index`, verifies its CRC32 and re-densifies the packed
  /// streams into the float32 feature matrix. The mapping is released before
  /// returning, so peak extra memory is one block's payload.
  Result<DatasetBlock> MaterializeBlock(size_t index) const;

  /// Deserializes the FeatureEncoder stored in the footer.
  Result<FeatureEncoder> LoadEncoder() const;

 private:
  ChunkedDataset(std::string path, int fd, ChunkedDatasetMeta meta);

  std::string path_;
  int fd_ = -1;
  ChunkedDatasetMeta meta_;
};

}  // namespace omnifair

#endif  // OMNIFAIR_DATA_CHUNKED_DATASET_H_
