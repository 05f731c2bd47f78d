#include "data/stream_reader.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "data/chunked_dataset.h"
#include "data/csv_parser.h"
#include "data/dataset.h"
#include "util/status.h"
#include "util/string_utils.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace omnifair {
namespace {

/// "path: record N (byte B):" — streaming errors are seekable, matching the
/// byte-offset contract of ReadCsv (data/csv.h).
std::string StreamErrorAt(const std::string& path, uint64_t record_number,
                          uint64_t byte_offset) {
  std::ostringstream prefix;
  prefix << path << ": record " << record_number << " (byte " << byte_offset
         << "):";
  return prefix.str();
}

/// Raw text of one pending block: records are copied out of the transient
/// read chunk into an arena so parsing can run after (and concurrently with
/// the read loop's reuse of) the chunk buffer.
struct RawBlock {
  std::string arena;
  std::vector<std::pair<size_t, size_t>> spans;  // (offset, length) in arena
  std::vector<uint64_t> offsets;                 // absolute byte offsets
  std::vector<uint64_t> numbers;                 // 1-based record numbers

  size_t rows() const { return spans.size(); }
  void Clear() {
    arena.clear();
    spans.clear();
    offsets.clear();
    numbers.clear();
  }
};

/// Fitted per-column model driving block parsing.
struct ColumnModel {
  bool categorical = false;
  std::vector<std::string> categories;  // without the unseen sentinel
  CategoryCodes code_of;

  /// Code for `cell`, or the unseen sentinel (== categories.size()). Tiny
  /// dictionaries — the common case for sensitive attributes — beat the
  /// hash with a direct scan.
  int CodeOf(std::string_view cell) const {
    if (categories.size() <= 4) {
      for (size_t i = 0; i < categories.size(); ++i) {
        if (categories[i] == cell) return static_cast<int>(i);
      }
      return static_cast<int>(categories.size());
    }
    const auto it = code_of.find(cell);
    return it != code_of.end() ? it->second
                               : static_cast<int>(categories.size());
  }
};

/// Precomputed per-CSV-column encode step mirroring the fitted encoder's
/// plans: where the column's values land in the packed block streams
/// (numeric floats, categorical u16 codes) and how they get there. Lets
/// blocks encode straight from raw cells — bit-identical after densify to
/// FeatureEncoder::Transform — with no intermediate Dataset or dense matrix.
struct ColumnEncode {
  bool in_features = false;  // false: dropped column (values still validated)
  size_t compact = 0;        // slot in the packed per-row float/code stream
  bool standardize = false;
  double mean = 0.0;
  double stddev = 1.0;
};

struct FirstError {
  std::mutex mu;
  bool set = false;
  uint64_t record_number = 0;
  Status status;

  /// Keeps the earliest record's error so the reported failure is
  /// deterministic regardless of worker interleaving.
  void Consider(uint64_t number, Status status_in) {
    std::lock_guard<std::mutex> lock(mu);
    if (!set || number < record_number) {
      set = true;
      record_number = number;
      status = std::move(status_in);
    }
  }
};

class StreamIngestor {
 public:
  StreamIngestor(const std::string& csv_path, const std::string& out_path,
                 const StreamIngestOptions& options)
      : csv_path_(csv_path), out_path_(out_path), options_(options) {
    if (options_.block_rows == 0) options_.block_rows = 65536;
    if (options_.read_chunk_bytes == 0) options_.read_chunk_bytes = 1 << 20;
  }

  Result<IngestStats> Run() {
    Status status = input_.Open(csv_path_, options_.use_mmap);
    if (!status.ok()) return status;
    auto on_record = [&](std::string_view record, uint64_t offset) {
      if (!status.ok()) return;
      status = OnRecord(record, offset);
    };
    bool unterminated = false;
    uint64_t dangling_offset = 0;  // offset of the record an EOF-open quote is in
    CsvRecordScanner scanner;
    if (input_.is_mapped()) {
      // Zero-copy fast path: record views straight out of the mapping — no
      // read(2) copies, no per-record arena append.
      map_base_ = input_.mapped().data();
      stats_.chunks = 1;
      stats_.bytes_read = input_.mapped().size();
      OF_COUNTER_INC("ingest.chunks");
      size_t dangling = 0;
      unterminated = !ScanMapped(input_.mapped(), on_record, &dangling);
      dangling_offset = dangling;
      if (!status.ok()) return status;
    } else {
      // Not mappable (empty file, pipe, use_mmap off): chunked read(2) with
      // records carried across chunk boundaries.
      std::vector<char> chunk(options_.read_chunk_bytes);
      for (;;) {
        Result<size_t> n = input_.Read(chunk.data(), chunk.size());
        if (!n.ok()) return n.status();
        if (*n == 0) break;
        stats_.chunks += 1;
        stats_.bytes_read += *n;
        OF_COUNTER_INC("ingest.chunks");
        scanner.Feed(std::string_view(chunk.data(), *n), on_record);
        if (!status.ok()) return status;
      }
      unterminated = scanner.in_quotes();
      dangling_offset = scanner.pending_offset();
    }
    if (unterminated) {
      // Blame the record the quote opened in (never emitted), not the last
      // complete record before it.
      const uint64_t dangling_number = saw_header_ ? record_number_ + 1 : 1;
      return Status::InvalidArgument(
          StreamErrorAt(csv_path_, dangling_number, dangling_offset) +
          " unterminated quoted field at end of file");
    }
    if (map_base_ == nullptr) scanner.Finish(on_record);
    if (!status.ok()) return status;
    if (!saw_header_) {
      return Status::InvalidArgument("empty CSV file " + csv_path_);
    }
    if (pending_.rows() > 0) {
      status = FlushBlock();
      if (!status.ok()) return status;
    }
    if (writer_ == nullptr) {
      // Header-only file: fitting an encoder on zero rows is meaningless.
      return Status::InvalidArgument("CSV file " + csv_path_ +
                                     " has a header but no data rows");
    }
    status = writer_->Finalize(options_.label_column, options_.group_column,
                               group_names_, encoder_text_);
    if (!status.ok()) return status;
    stats_.num_features = encoder_.NumFeatures();
    stats_.parse_seconds = parse_seconds_;
    stats_.spill_seconds = spill_seconds_;
    return stats_;
  }

  Status OnRecord(std::string_view record, uint64_t offset) {
    if (!saw_header_) {
      saw_header_ = true;
      return ParseHeader(record);
    }
    ++record_number_;
    if (StripWhitespace(record).empty()) return Status::Ok();  // blank line
    if (map_base_ != nullptr) {
      // Zero-copy: the record view points into the file mapping, which
      // outlives the pending block — store the span, skip the copy.
      pending_.spans.emplace_back(
          static_cast<size_t>(record.data() - map_base_), record.size());
    } else {
      pending_.spans.emplace_back(pending_.arena.size(), record.size());
      pending_.arena.append(record.data(), record.size());
    }
    pending_.offsets.push_back(offset);
    pending_.numbers.push_back(record_number_);
    if (pending_.rows() < options_.block_rows) return Status::Ok();
    Status status = FlushBlock();
    // Nothing points into the flushed block's pages any more (block 0's
    // dictionaries and the header are copies) and the scan only moves
    // forward, so they leave the resident set.
    if (status.ok() && map_base_ != nullptr) {
      input_.ReleaseBefore(
          static_cast<size_t>(record.data() - map_base_) + record.size());
    }
    return status;
  }

  /// Raw text of pending record `r` — in the file mapping (zero-copy path)
  /// or the block arena (read fallback).
  std::string_view RecordAt(size_t r) const {
    const char* base = map_base_ != nullptr ? map_base_ : pending_.arena.data();
    return std::string_view(base + pending_.spans[r].first,
                            pending_.spans[r].second);
  }

  Status ParseHeader(std::string_view record) {
    if (!SplitCsvHeader(record, options_.delimiter, &header_)) {
      return Status::InvalidArgument(csv_path_ +
                                     ":1: (byte 0) unterminated quoted field");
    }
    label_index_ = -1;
    group_index_ = -1;
    for (size_t i = 0; i < header_.size(); ++i) {
      if (header_[i] == options_.label_column) label_index_ = static_cast<int>(i);
      if (header_[i] == options_.group_column) group_index_ = static_cast<int>(i);
    }
    if (label_index_ < 0) {
      return Status::InvalidArgument("label column '" + options_.label_column +
                                     "' not found in " + csv_path_);
    }
    if (options_.group_column.empty() || group_index_ < 0) {
      return Status::InvalidArgument("group column '" + options_.group_column +
                                     "' not found in " + csv_path_);
    }
    return Status::Ok();
  }

  /// Block 0: the shared CSV parser infers column types and dictionaries
  /// (group column forced categorical), the encoder is fitted on its
  /// Dataset, and the column models take its dictionaries, so block 0 then
  /// packs through FastParseBlock like every other block.
  Status FitFromBlock0() {
    CsvReadOptions read_options;
    read_options.delimiter = options_.delimiter;
    read_options.label_column = options_.label_column;
    read_options.positive_label_value = options_.positive_label_value;
    read_options.force_categorical = options_.force_categorical;
    read_options.force_categorical.push_back(options_.group_column);
    std::vector<CsvRecordRef> records(pending_.rows());
    for (size_t r = 0; r < records.size(); ++r) {
      records[r] = {RecordAt(r), pending_.offsets[r]};
    }
    CsvRowError row_error;
    Result<Dataset> block =
        ParseCsvRecords(csv_path_, header_, records, read_options, &row_error,
                        options_.num_threads);
    if (!block.ok()) {
      if (row_error.detail.empty()) return block.status();
      return Status::InvalidArgument(
          StreamErrorAt(csv_path_, pending_.numbers[row_error.index],
                        row_error.offset) +
          " " + row_error.detail);
    }
    columns_.assign(header_.size(), ColumnModel{});
    size_t next = 0;  // the Dataset's columns are the header's minus the label
    for (size_t c = 0; c < header_.size(); ++c) {
      if (static_cast<int>(c) == label_index_) continue;
      const Column& column = block->ColumnAt(next++);
      ColumnModel& model = columns_[c];
      model.categorical = column.type() == ColumnType::kCategorical;
      model.categories = column.categories();
      for (size_t i = 0; i < model.categories.size(); ++i) {
        model.code_of.emplace(model.categories[i], static_cast<int>(i));
      }
    }
    group_names_ = columns_[static_cast<size_t>(group_index_)].categories;

    encoder_.Fit(*block, options_.encoder);
    std::ostringstream encoder_os;
    encoder_.SerializeTo(encoder_os);
    encoder_text_ = encoder_os.str();
    Result<ChunkedLayout> layout = ChunkedLayout::FromPlans(
        encoder_.plans(), options_.encoder.one_hot_categorical);
    if (!layout.ok()) return layout.status();
    layout_ = std::move(*layout);
    BuildEncodeTable();
    Result<ChunkedDatasetWriter> writer =
        ChunkedDatasetWriter::Create(out_path_, layout_);
    if (!writer.ok()) return writer.status();
    writer_ = std::make_unique<ChunkedDatasetWriter>(std::move(*writer));
    return Status::Ok();
  }

  /// Maps each CSV column to its slot in the packed block streams by walking
  /// the encoder's plans in order (plan order is column order minus the label
  /// and dropped columns, matching the layout's segment order).
  void BuildEncodeTable() {
    encode_.assign(header_.size(), ColumnEncode{});
    std::unordered_map<std::string, ColumnEncode> by_name;
    size_t float_slot = 0;
    size_t code_slot = 0;
    for (const FeatureEncoder::ColumnPlan& plan : encoder_.plans()) {
      ColumnEncode encode;
      encode.in_features = true;
      encode.standardize = options_.encoder.standardize_numeric;
      encode.mean = plan.mean;
      encode.stddev = plan.stddev;
      encode.compact =
          plan.type == ColumnType::kNumeric ? float_slot++ : code_slot++;
      by_name.emplace(plan.name, encode);
    }
    for (size_t c = 0; c < header_.size(); ++c) {
      const auto it = by_name.find(header_[c]);
      if (it != by_name.end()) encode_[c] = it->second;
    }
  }

  /// Steady-state block parse: splits each record in place (no per-cell
  /// allocation on the quote-free fast path) and encodes cells straight into
  /// the packed block streams — numeric floats and categorical u16 codes,
  /// never a dense matrix. Pool threads claim kCsvRangeRows-row ranges, so
  /// adjacent rows' slots are written by one thread; rows land in
  /// preassigned slots, so output stays bit-identical at any thread count.
  Status FastParseBlock(CompactBlock* out) {
    const size_t rows = pending_.rows();
    const size_t ncols = header_.size();
    const size_t floats_per_row = layout_.FloatsPerRow();
    const size_t codes_per_row = layout_.CodesPerRow();
    out->rows = static_cast<uint64_t>(rows);
    out->labels.assign(rows, 0);
    out->groups.assign(rows, 0);
    out->floats.assign(rows * floats_per_row, 0.0f);
    out->codes.assign(rows * codes_per_row, 0);
    FirstError first_error;
    auto fail = [&](size_t r, const std::string& detail) {
      first_error.Consider(
          pending_.numbers[r],
          Status::InvalidArgument(StreamErrorAt(csv_path_, pending_.numbers[r],
                                                pending_.offsets[r]) +
                                  " " + detail));
    };
    // False after reporting a bad row.
    auto parse_row = [&](size_t r, std::vector<std::string_view>& cells,
                         std::vector<std::string>& fields, std::string& detail) {
      if (!SplitCells(RecordAt(r), options_.delimiter, ncols, cells.data(),
                      &fields, &detail)) {
        fail(r, detail);
        return false;
      }
      float* float_row = out->floats.data() + r * floats_per_row;
      uint16_t* code_row = out->codes.data() + r * codes_per_row;
      for (size_t c = 0; c < ncols; ++c) {
        const std::string_view cell = StripWhitespace(cells[c]);
        const ColumnEncode& encode = encode_[c];
        if (static_cast<int>(c) == label_index_) {
          int label = 0;
          if (!ParseLabelCell(cell, options_.positive_label_value, &label)) {
            fail(r, BadLabelDetail(cell));
            return false;
          }
          out->labels[r] = static_cast<uint8_t>(label);
        } else if (columns_[c].categorical) {
          if (!encode.in_features && static_cast<int>(c) != group_index_) {
            continue;  // dropped and not the group column: value is ignored
          }
          const int code = columns_[c].CodeOf(cell);
          if (static_cast<int>(c) == group_index_) out->groups[r] = code;
          // One-hot and raw-code columns both spill the bare code; the
          // unseen sentinel (== dictionary size) densifies to all zeros.
          if (encode.in_features) {
            code_row[encode.compact] = static_cast<uint16_t>(code);
          }
        } else {
          double value = 0.0;
          if (!ParseFiniteCell(cell, &value)) {
            fail(r, BadNumericDetail(cell, header_[c]));
            return false;
          }
          if (!encode.in_features) continue;
          if (encode.standardize) value = (value - encode.mean) / encode.stddev;
          float_row[encode.compact] = static_cast<float>(value);
        }
      }
      return true;
    };
    // A range stops at its first bad row; FirstError keeps the earliest
    // over all ranges.
    ThreadPool::Global().ParallelForRanges(
        0, rows, kCsvRangeRows,
        [&](size_t begin, size_t end) {
          std::vector<std::string_view> cells(ncols);
          std::vector<std::string> fields;
          std::string detail;
          for (size_t r = begin; r < end; ++r) {
            if (!parse_row(r, cells, fields, detail)) return;
          }
        },
        options_.num_threads);
    if (first_error.set) return first_error.status;
    return Status::Ok();
  }

  Status FlushBlock() {
    const auto parse_start = std::chrono::steady_clock::now();
    CompactBlock out;
    if (writer_ == nullptr) {
      Status fit_status = FitFromBlock0();
      if (!fit_status.ok()) return fit_status;
    }
    Status parse_status = FastParseBlock(&out);
    if (!parse_status.ok()) return parse_status;
    const auto parse_end = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(parse_end - parse_start).count();
    parse_seconds_ += seconds;
    OF_COUNTER_ADD("ingest.parse_us", static_cast<int64_t>(seconds * 1e6));
    OF_COUNTER_ADD("ingest.rows", static_cast<int64_t>(out.rows));
    stats_.rows += out.rows;
    stats_.blocks += 1;
    Status status = writer_->AppendBlock(out);
    const double spill_seconds = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - parse_end)
                                     .count();
    spill_seconds_ += spill_seconds;
    OF_COUNTER_ADD("ingest.spill_us", static_cast<int64_t>(spill_seconds * 1e6));
    pending_.Clear();
    return status;
  }

  std::string csv_path_;
  std::string out_path_;
  StreamIngestOptions options_;

  CsvInput input_;
  const char* map_base_ = nullptr;  ///< input_'s mapping (zero-copy path)

  bool saw_header_ = false;
  std::vector<std::string> header_;
  int label_index_ = -1;
  int group_index_ = -1;
  uint64_t record_number_ = 1;  // header is record 1

  RawBlock pending_;
  std::vector<ColumnModel> columns_;
  std::vector<ColumnEncode> encode_;
  ChunkedLayout layout_;
  std::vector<std::string> group_names_;
  FeatureEncoder encoder_;
  std::string encoder_text_;
  std::unique_ptr<ChunkedDatasetWriter> writer_;  ///< created by block 0

  IngestStats stats_;
  double parse_seconds_ = 0.0;
  double spill_seconds_ = 0.0;
};

}  // namespace

Result<IngestStats> StreamCsvToChunked(const std::string& csv_path,
                                       const std::string& out_path,
                                       const StreamIngestOptions& options) {
  StreamIngestor ingestor(csv_path, out_path, options);
  return ingestor.Run();
}

}  // namespace omnifair
