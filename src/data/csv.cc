#include "data/csv.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>

#include "data/csv_parser.h"
#include "util/status.h"
#include "util/string_utils.h"

namespace omnifair {

bool SplitCsvRecord(std::string_view record, char delimiter,
                    std::vector<std::string>* fields) {
  fields->clear();
  std::string field;
  bool in_quotes = false;
  for (size_t i = 0; i < record.size(); ++i) {
    const char c = record[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < record.size() && record[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delimiter) {
      fields->push_back(std::move(field));
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  if (in_quotes) return false;
  fields->push_back(std::move(field));
  return true;
}

namespace {

/// "path:line: (byte N)" error prefix; N is the record's starting offset, so
/// a reported failure deep inside a multi-GB file is directly seekable. The
/// line number is only needed on failure, so it is counted here.
std::string CsvErrorAt(const std::string& path, std::string_view file,
                       uint64_t byte_offset) {
  const size_t line = 1 + static_cast<size_t>(std::count(
                              file.begin(), file.begin() + byte_offset, '\n'));
  std::ostringstream prefix;
  prefix << path << ":" << line << ": (byte " << byte_offset << ")";
  return prefix.str();
}

}  // namespace

Result<Dataset> ReadCsv(const std::string& path, const CsvReadOptions& options) {
  CsvInput input;
  Status status = input.Open(path, /*map=*/true);
  if (!status.ok()) return status;
  std::string buffer;  // the whole input when it cannot be mapped
  if (!input.is_mapped()) {
    char chunk[1 << 16];
    for (;;) {
      Result<size_t> n = input.Read(chunk, sizeof(chunk));
      if (!n.ok()) return n.status();
      if (*n == 0) break;
      buffer.append(chunk, *n);
    }
  }
  const std::string_view file = input.is_mapped() ? input.mapped() : buffer;

  std::optional<std::string_view> header_record;
  std::vector<CsvRecordRef> records;
  size_t dangling_offset = 0;
  const bool terminated = ScanMapped(
      file,
      [&](std::string_view record, uint64_t offset) {
        if (!header_record) {
          header_record = record;
        } else if (!StripWhitespace(record).empty()) {  // blank lines skip
          records.push_back({record, offset});
        }
      },
      &dangling_offset);
  if (!header_record && terminated) {
    return Status::InvalidArgument("empty CSV file " + path);
  }
  std::vector<std::string> header;
  if (!header_record ||
      !SplitCsvHeader(*header_record, options.delimiter, &header)) {
    return Status::InvalidArgument(CsvErrorAt(path, file, 0) +
                                   " unterminated quoted field");
  }
  CsvRowError row_error;
  Result<Dataset> dataset =
      ParseCsvRecords(path, header, records, options, &row_error);
  if (!dataset.ok()) {
    if (row_error.detail.empty()) return dataset.status();
    return Status::InvalidArgument(CsvErrorAt(path, file, row_error.offset) +
                                   " " + row_error.detail);
  }
  // A quote left open at EOF swallowed the rest of the file into one record,
  // which comes after every record parsed above.
  if (!terminated) {
    return Status::InvalidArgument(CsvErrorAt(path, file, dangling_offset) +
                                   " unterminated quoted field");
  }
  return dataset;
}

Status WriteCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return IoError(path, "open");

  for (size_t c = 0; c < dataset.NumColumns(); ++c) {
    out << dataset.ColumnAt(c).name() << ",";
  }
  out << dataset.label_name() << "\n";

  for (size_t r = 0; r < dataset.NumRows(); ++r) {
    for (size_t c = 0; c < dataset.NumColumns(); ++c) {
      const Column& col = dataset.ColumnAt(c);
      if (col.type() == ColumnType::kNumeric) {
        out << col.NumericValue(r);
      } else {
        out << col.CategoryOf(r);
      }
      out << ",";
    }
    out << dataset.Label(r) << "\n";
  }
  if (!out) return IoError(path, "write");
  return Status::Ok();
}

}  // namespace omnifair
