#ifndef OMNIFAIR_DATA_CSV_PARSER_H_
#define OMNIFAIR_DATA_CSV_PARSER_H_

// The one CSV parser behind ReadCsv (data/csv.h) and the streaming ingest
// (data/stream_reader.h). Internal to the data layer.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "data/csv.h"
#include "data/dataset.h"
#include "util/status.h"

namespace omnifair {

/// Transparent hasher so categorical dictionary lookups can take the raw
/// cell string_view without materializing a std::string per cell.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

/// Category text -> code, looked up by string_view.
using CategoryCodes =
    std::unordered_map<std::string, int, TransparentStringHash, std::equal_to<>>;

/// A CSV input file held open read-only. A non-empty regular file is mapped
/// whole when `map` is set (MADV_SEQUENTIAL); anything else — a pipe, an
/// empty file, a failed mmap — is read with Read().
class CsvInput {
 public:
  CsvInput() = default;
  CsvInput(const CsvInput&) = delete;
  CsvInput& operator=(const CsvInput&) = delete;
  ~CsvInput();

  Status Open(const std::string& path, bool map);
  bool is_mapped() const { return map_ != nullptr; }
  /// The whole file when it is mapped.
  std::string_view mapped() const { return std::string_view(map_, map_len_); }
  /// read(2) of up to `size` bytes; 0 at end of input.
  Result<size_t> Read(char* buffer, size_t size);
  /// Drops the mapping's whole pages before byte `end` from the resident set
  /// (file-backed pages count towards RSS while mapped).
  void ReleaseBefore(size_t end);

 private:
  std::string path_;
  int fd_ = -1;
  char* map_ = nullptr;
  size_t map_len_ = 0;
  size_t released_ = 0;
};

/// Zero-copy record scan over a whole in-memory file, with CsvRecordScanner's
/// boundary rules; the emitted views point into `file`. Returns false when
/// the file ends inside an open quote: the dangling tail is not emitted and
/// *dangling_offset is set to its byte offset.
bool ScanMapped(std::string_view file, const CsvRecordScanner::RecordFn& on_record,
                size_t* dangling_offset);

/// Outcome of the fused single-pass record split.
enum class SplitOutcome {
  kOk,        ///< exactly ncols quote-free cells filled
  kQuote,     ///< a '"' was seen: caller must use the full CSV splitter
  kBadCount,  ///< field count mismatch and no quote in the record
};

/// Fused split of a record into exactly `ncols` quote-free cell views. The
/// scalar and AVX2 backends return the same outcome and cells.
using SplitRecordFn = SplitOutcome (*)(std::string_view record, char delimiter,
                                       size_t ncols, std::string_view* cells);
SplitOutcome SplitRecordScalar(std::string_view record, char delimiter,
                               size_t ncols, std::string_view* cells);
/// The AVX2 backend, or nullptr when the build or the CPU lacks AVX2.
SplitRecordFn SplitRecordAvx2Backend();

/// Splits `record` into exactly `ncols` unstripped cells: the fused splitter
/// on the quote-free fast path, else SplitCsvRecord, whose unescaped text
/// lands in `*fields` (the views point there). On failure returns false and
/// sets `*detail`, e.g. "expected 3 fields, got 2".
bool SplitCells(std::string_view record, char delimiter, size_t ncols,
                std::string_view* cells, std::vector<std::string>* fields,
                std::string* detail);

/// Splits a header record into whitespace-stripped column names. Returns
/// false on an unterminated quote.
bool SplitCsvHeader(std::string_view record, char delimiter,
                    std::vector<std::string>* names);

/// A stripped label cell: equality with `positive` when that is set, else a
/// number equal to 0 or 1.
bool ParseLabelCell(std::string_view cell, const std::string& positive,
                    int* label);
/// A stripped numeric cell: true iff it is a finite double.
bool ParseFiniteCell(std::string_view cell, double* out);

/// Row error details shared by every CSV entry point.
std::string BadLabelDetail(std::string_view cell);
std::string BadNumericDetail(std::string_view cell, const std::string& column);

/// One data record: its text and the byte offset of its first character.
struct CsvRecordRef {
  std::string_view text;
  uint64_t offset = 0;
};

/// The first bad row ParseCsvRecords met, in record order.
struct CsvRowError {
  size_t index = 0;     ///< position in the record sequence
  uint64_t offset = 0;  ///< the record's byte offset
  std::string detail;   ///< what is wrong, without a location prefix
};

/// Rows per parse range: the unit of parallel work in ParseCsvRecords and in
/// the streaming ingest's block parse. The cuts depend only on the row
/// count, never on the thread count.
inline constexpr size_t kCsvRangeRows = 4096;

/// Parses data records (header excluded, blank records dropped) into a
/// Dataset named `name`, one column per `header` name except the label's,
/// by ReadCsv's rules (data/csv.h). Column-level problems (no label column,
/// conflicting force lists) return kInvalidArgument. A bad row stops the
/// parse with kInvalidArgument and fills `*row_error` with the earliest bad
/// row; the caller prefixes its own location.
///
/// Rows are parsed in kCsvRangeRows ranges. The first range runs serially
/// and fixes each column's kind (an inferred column demoted there is
/// categorical from then on). The other ranges run on the thread pool with
/// up to `max_parallelism` threads (0 = the whole pool), each writing
/// straight into the columns' final arrays; a category missing from the
/// first range's dictionary gets a range-local code, and the local
/// dictionaries are merged in range order, so codes keep first-appearance
/// order. An inferred column that meets a non-numeric cell only after the
/// first range is demoted by one serial re-pass that interns every row's
/// original text. The Dataset is bit-identical at any `max_parallelism`.
Result<Dataset> ParseCsvRecords(const std::string& name,
                                const std::vector<std::string>& header,
                                const std::vector<CsvRecordRef>& records,
                                const CsvReadOptions& options,
                                CsvRowError* row_error, int max_parallelism);

}  // namespace omnifair

#endif  // OMNIFAIR_DATA_CSV_PARSER_H_
