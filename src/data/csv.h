#ifndef OMNIFAIR_DATA_CSV_H_
#define OMNIFAIR_DATA_CSV_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace omnifair {

/// Options controlling CSV parsing into a Dataset.
struct CsvReadOptions {
  char delimiter = ',';
  /// Name of the label column (required; parsed as 0/1 or a positive-class
  /// string given below).
  std::string label_column = "label";
  /// If non-empty, label cells equal to this string map to 1, all else to 0.
  std::string positive_label_value;
  /// Columns to parse as categorical even if all cells look numeric.
  std::vector<std::string> force_categorical;
  /// Columns that MUST be numeric: a cell that does not parse as a finite
  /// double fails the read with kInvalidArgument naming the offending row,
  /// instead of silently demoting the column to categorical.
  std::vector<std::string> force_numeric;
};

/// Splits one CSV record into fields, honoring double-quoted fields with ""
/// as the escaped-quote sequence. Returns false on an unterminated quote.
/// The slow path of the CSV parser behind ReadCsv and the streaming ingest
/// (data/stream_reader.h).
bool SplitCsvRecord(std::string_view record, char delimiter,
                    std::vector<std::string>* fields);

/// Incremental CSV record-boundary scanner. Feed() accepts byte chunks in
/// arrival order and emits complete records; a '\n' inside a double-quoted
/// field does NOT terminate the record even when the quote opened in an
/// earlier chunk, CRLF line endings are handled even when the '\r' and '\n'
/// land in different chunks, and Finish() flushes a final record that lacks
/// a trailing newline. Emitted records exclude the terminator and come with
/// the absolute byte offset of their first character.
class CsvRecordScanner {
 public:
  using RecordFn = std::function<void(std::string_view record, uint64_t offset)>;

  /// Scans `chunk` (the next bytes of the file). `on_record` runs once per
  /// completed record; the string_view is only valid during the call.
  void Feed(std::string_view chunk, const RecordFn& on_record);

  /// Emits the trailing unterminated record, if any, and resets the scanner.
  void Finish(const RecordFn& on_record);

  /// True when the scanner is mid-quote (diagnostic: an unterminated quote
  /// at EOF means the file is malformed).
  bool in_quotes() const { return in_quotes_; }

  /// Absolute byte offset of the pending (not yet emitted) record — the
  /// record to blame when in_quotes() is still true at EOF.
  uint64_t pending_offset() const { return record_offset_; }

 private:
  std::string carry_;        // partial record spanning chunk boundaries
  bool in_quotes_ = false;
  uint64_t record_offset_ = 0;  // absolute offset of the pending record
  uint64_t consumed_ = 0;       // absolute offset of the next incoming byte
};

/// Reads a CSV file with a header row into a Dataset.
///
/// Pipeline: the file is mapped read-only (a pipe or an empty file, which
/// cannot be mapped, is read whole with read(2) instead), CsvRecordScanner
/// finds the records as views into it (blank records are skipped), and
/// each record is split once by the fused splitter shared with
/// data/stream_reader.h, falling back to SplitCsvRecord when it holds
/// quotes or the wrong field count. Cells are
/// whitespace-stripped one by one, so a trailing empty field survives a
/// whitespace delimiter such as '\t'. Rows are parsed in contiguous ranges
/// on the shared thread pool (data/csv_parser.h); the Dataset is
/// bit-identical at any thread count.
///
/// Column types are inferred: a column is numeric iff every cell parses as
/// a finite double (and it is not listed in force_categorical); otherwise
/// its dictionary holds the cells' text in first-appearance order. Fields
/// may be quoted with double quotes ("" escapes a literal quote inside).
///
/// Malformed rows — ragged field counts, unterminated quotes, bad labels,
/// non-numeric cells in force_numeric columns — fail with kInvalidArgument
/// carrying "path:line: (byte N)" of the offending row, N being its
/// starting byte offset, so failures inside multi-GB files are seekable.
/// When several rows are bad — in the same parse range or not — the error
/// names the first of them in file order; within a row, a split failure
/// comes first, then cells left to right.
Result<Dataset> ReadCsv(const std::string& path, const CsvReadOptions& options);

/// Writes a Dataset (attributes + label column) as CSV with a header row.
Status WriteCsv(const Dataset& dataset, const std::string& path);

}  // namespace omnifair

#endif  // OMNIFAIR_DATA_CSV_H_
