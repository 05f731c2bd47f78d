#include "data/csv_parser.h"

// The fused record splitter has an AVX2 backend behind the same arch define
// + function-multiversioning scheme as the linalg kernels (linalg/simd.cc):
// no global -mavx2, baseline code everywhere else, CPU checked at runtime.
#if defined(OMNIFAIR_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
#define OMNIFAIR_HAVE_SPLIT_AVX2 1
#include <immintrin.h>
#endif

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace omnifair {

// --- CsvRecordScanner -------------------------------------------------------

void CsvRecordScanner::Feed(std::string_view chunk, const RecordFn& on_record) {
  auto emit = [&](std::string_view record) {
    // CRLF: the '\r' may have arrived in a previous chunk (it sits at the
    // end of carry_), so trim it from the assembled record, not the chunk.
    if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
    on_record(record, record_offset_);
  };
  // memchr-driven scan: hop between the only two bytes that matter for
  // boundary detection ('\n' and '"') instead of branching on every
  // character. Toggling on every quote also handles the "" escape (two
  // toggles net to no change), which is all boundary detection needs.
  size_t start = 0;
  size_t i = 0;
  while (i < chunk.size()) {
    if (in_quotes_) {
      const void* quote = std::memchr(chunk.data() + i, '"', chunk.size() - i);
      if (quote == nullptr) {
        i = chunk.size();
        break;
      }
      i = static_cast<size_t>(static_cast<const char*>(quote) - chunk.data()) + 1;
      in_quotes_ = false;
      continue;
    }
    const char* base = chunk.data() + i;
    const size_t remaining = chunk.size() - i;
    const char* newline =
        static_cast<const char*>(std::memchr(base, '\n', remaining));
    const size_t before_newline =
        newline != nullptr ? static_cast<size_t>(newline - base) : remaining;
    const char* quote =
        static_cast<const char*>(std::memchr(base, '"', before_newline));
    if (quote != nullptr) {
      in_quotes_ = true;
      i = static_cast<size_t>(quote - chunk.data()) + 1;
      continue;
    }
    if (newline == nullptr) {
      i = chunk.size();
      break;
    }
    const size_t nl = static_cast<size_t>(newline - chunk.data());
    const std::string_view rest = chunk.substr(start, nl - start);
    if (carry_.empty()) {
      emit(rest);
    } else {
      carry_.append(rest.data(), rest.size());
      emit(carry_);
      carry_.clear();
    }
    record_offset_ = consumed_ + nl + 1;
    start = nl + 1;
    i = nl + 1;
  }
  if (start < chunk.size()) {
    carry_.append(chunk.data() + start, chunk.size() - start);
  }
  consumed_ += chunk.size();
}

void CsvRecordScanner::Finish(const RecordFn& on_record) {
  if (!carry_.empty()) {
    std::string_view record = carry_;
    if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
    on_record(record, record_offset_);
    carry_.clear();
  }
  record_offset_ = consumed_;
  in_quotes_ = false;
}

// --- CsvInput ---------------------------------------------------------------

CsvInput::~CsvInput() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
  if (fd_ >= 0) ::close(fd_);
}

Status CsvInput::Open(const std::string& path, bool map) {
  path_ = path;
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) return IoError(path, "open");
  struct stat st {};
  if (!map || ::fstat(fd_, &st) != 0 || !S_ISREG(st.st_mode) || st.st_size <= 0) {
    return Status::Ok();
  }
  void* mapped = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                        MAP_PRIVATE, fd_, 0);
  if (mapped == MAP_FAILED) return Status::Ok();
  map_ = static_cast<char*>(mapped);
  map_len_ = static_cast<size_t>(st.st_size);
  ::madvise(map_, map_len_, MADV_SEQUENTIAL);
  return Status::Ok();
}

Result<size_t> CsvInput::Read(char* buffer, size_t size) {
  for (;;) {
    const ssize_t n = ::read(fd_, buffer, size);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno != EINTR) return IoError(path_, "read", errno);
  }
}

void CsvInput::ReleaseBefore(size_t end) {
  static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t upto = std::min(end, map_len_) / page * page;
  if (upto <= released_) return;
  ::madvise(map_ + released_, upto - released_, MADV_DONTNEED);
  released_ = upto;
}

bool ScanMapped(std::string_view file, const CsvRecordScanner::RecordFn& on_record,
                size_t* dangling_offset) {
  // Feed() emits every complete record as a view into `file`; only the
  // unterminated tail is copied into the scanner's carry buffer, so the tail
  // is emitted from `file` here rather than by Finish().
  CsvRecordScanner scanner;
  scanner.Feed(file, on_record);
  const size_t tail = static_cast<size_t>(scanner.pending_offset());
  if (scanner.in_quotes()) {
    *dangling_offset = tail;
    return false;
  }
  if (tail < file.size()) {
    std::string_view record = file.substr(tail);
    if (record.back() == '\r') record.remove_suffix(1);
    on_record(record, tail);
  }
  return true;
}

// --- Record splitting and typed columns --------------------------------------

namespace {

/// Decimal-integer fast path for numeric cells. Exact for up to 15 digits
/// (well inside double's 2^53 integer range), so the result is bit-identical
/// to from_chars. Returns false for anything else; callers fall back to
/// ParseDouble.
bool ParseSmallInt(std::string_view cell, double* out) {
  size_t i = 0;
  bool negative = false;
  if (!cell.empty() && cell[0] == '-') {
    negative = true;
    i = 1;
  }
  if (i == cell.size() || cell.size() - i > 15) return false;
  uint64_t magnitude = 0;
  for (; i < cell.size(); ++i) {
    const unsigned digit = static_cast<unsigned>(cell[i]) - '0';
    if (digit > 9) return false;
    magnitude = magnitude * 10 + digit;
  }
  *out = negative ? -static_cast<double>(magnitude)
                  : static_cast<double>(magnitude);
  return true;
}

}  // namespace

bool ParseFiniteCell(std::string_view cell, double* out) {
  // Non-finite parses ("nan", "inf") are rejected: they would otherwise
  // poison every downstream loss (DESIGN.md §8).
  return ParseSmallInt(cell, out) || (ParseDouble(cell, out) && std::isfinite(*out));
}

SplitOutcome SplitRecordScalar(std::string_view record, char delimiter,
                               size_t ncols, std::string_view* cells) {
  if (record.find('"') != std::string_view::npos) return SplitOutcome::kQuote;
  size_t pos = 0;
  for (size_t c = 0; c + 1 < ncols; ++c) {
    const size_t next = record.find(delimiter, pos);
    if (next == std::string_view::npos) return SplitOutcome::kBadCount;
    cells[c] = record.substr(pos, next - pos);
    pos = next + 1;
  }
  if (record.find(delimiter, pos) != std::string_view::npos) {
    return SplitOutcome::kBadCount;
  }
  cells[ncols - 1] = record.substr(pos);
  return SplitOutcome::kOk;
}

#if defined(OMNIFAIR_HAVE_SPLIT_AVX2)
namespace {

/// AVX2 fused split: compares 32 record bytes at a time against both the
/// delimiter and '"', then peels delimiter positions off the movemask. One
/// pass replaces the per-field memchr calls of the scalar path — on short
/// CSV fields the call overhead dominates the scan, which is what makes
/// this worth vectorizing.
__attribute__((target("avx2"))) SplitOutcome SplitRecordAvx2(
    std::string_view record, char delimiter, size_t ncols,
    std::string_view* cells) {
  const char* data = record.data();
  const size_t size = record.size();
  // Too many fields: a quote later in the record still wins, as it does in
  // the scalar backend, which looks for quotes before splitting.
  auto overflow = [&](size_t from) {
    return std::memchr(data + from, '"', size - from) != nullptr
               ? SplitOutcome::kQuote
               : SplitOutcome::kBadCount;
  };
  const __m256i vdelim = _mm256_set1_epi8(delimiter);
  const __m256i vquote = _mm256_set1_epi8('"');
  size_t cell = 0;
  size_t start = 0;
  size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    const __m256i bytes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi8(bytes, vquote)) != 0) {
      return SplitOutcome::kQuote;
    }
    uint32_t mask = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(bytes, vdelim)));
    while (mask != 0) {
      const size_t pos = i + static_cast<size_t>(__builtin_ctz(mask));
      mask &= mask - 1;
      if (cell + 1 >= ncols) return overflow(i + 32);
      cells[cell++] = std::string_view(data + start, pos - start);
      start = pos + 1;
    }
  }
  for (; i < size; ++i) {
    const char ch = data[i];
    if (ch == '"') return SplitOutcome::kQuote;
    if (ch == delimiter) {
      if (cell + 1 >= ncols) return overflow(i + 1);
      cells[cell++] = std::string_view(data + start, i - start);
      start = i + 1;
    }
  }
  if (cell + 1 != ncols) return SplitOutcome::kBadCount;
  cells[cell] = std::string_view(data + start, size - start);
  return SplitOutcome::kOk;
}

}  // namespace
#endif  // OMNIFAIR_HAVE_SPLIT_AVX2

SplitRecordFn SplitRecordAvx2Backend() {
#if defined(OMNIFAIR_HAVE_SPLIT_AVX2)
  if (__builtin_cpu_supports("avx2")) return SplitRecordAvx2;
#endif
  return nullptr;
}

bool SplitCells(std::string_view record, char delimiter, size_t ncols,
                std::string_view* cells, std::vector<std::string>* fields,
                std::string* detail) {
  // Backend resolved once per process.
  static const SplitRecordFn split_fn = [] {
    const SplitRecordFn avx2 = SplitRecordAvx2Backend();
    return avx2 != nullptr ? avx2 : SplitRecordScalar;
  }();
  if (split_fn(record, delimiter, ncols, cells) == SplitOutcome::kOk) return true;
  // Slow path: quotes are present (the full CSV splitter unescapes them), or
  // the field count is off (it counts the fields for the error).
  if (!SplitCsvRecord(record, delimiter, fields)) {
    *detail = "unterminated quoted field";
    return false;
  }
  if (fields->size() != ncols) {
    *detail = "expected " + std::to_string(ncols) + " fields, got " +
              std::to_string(fields->size());
    return false;
  }
  for (size_t c = 0; c < ncols; ++c) cells[c] = (*fields)[c];
  return true;
}

bool SplitCsvHeader(std::string_view record, char delimiter,
                    std::vector<std::string>* names) {
  if (!SplitCsvRecord(record, delimiter, names)) return false;
  for (std::string& name : *names) name = std::string(StripWhitespace(name));
  return true;
}

bool ParseLabelCell(std::string_view cell, const std::string& positive,
                    int* label) {
  if (!positive.empty()) {
    *label = cell == positive ? 1 : 0;
    return true;
  }
  if (cell == "1" || cell == "0") {
    *label = cell[0] - '0';
    return true;
  }
  double value = 0.0;
  if (!ParseDouble(cell, &value) || (value != 0.0 && value != 1.0)) return false;
  *label = static_cast<int>(value);
  return true;
}

std::string BadLabelDetail(std::string_view cell) {
  return "label cell '" + std::string(cell) + "' is not 0/1";
}

std::string BadNumericDetail(std::string_view cell, const std::string& column) {
  return "cell '" + std::string(cell) + "' in numeric column '" + column +
         "' is not a finite number";
}

namespace {

enum class ColumnKind {
  kLabel,
  kInferred,  ///< numeric so far; a non-numeric cell demotes it
  kNumeric,   ///< force_numeric: a non-numeric cell is a row error
  kCategorical,
};

/// Category text in first-appearance order, looked up by string_view.
struct Dictionary {
  std::vector<std::string> categories;
  CategoryCodes code_of;

  int Intern(std::string_view cell) {
    auto it = code_of.find(cell);
    if (it == code_of.end()) {
      it = code_of.emplace(std::string(cell), static_cast<int>(categories.size()))
               .first;
      categories.emplace_back(cell);
    }
    return it->second;
  }
  int Find(std::string_view cell) const {
    const auto it = code_of.find(cell);
    return it != code_of.end() ? it->second : -1;
  }
};

/// Per-row split buffers.
struct RowScratch {
  explicit RowScratch(size_t ncols) : cells(ncols) {}
  std::vector<std::string_view> cells;
  std::vector<std::string> fields;
  std::string detail;
};

/// What one parallel range met besides the values it wrote in place.
struct RangeState {
  /// Categories missing from the first range's dictionaries, in this range's
  /// first-appearance order; a cell with local code i is stored as -1 - i.
  std::vector<Dictionary> unseen;
  /// Inferred columns that met a non-numeric cell.
  std::vector<char> non_numeric;
  size_t error_row = 0;
  std::string error_detail;  ///< empty: no bad row in this range
};

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

Result<Dataset> ParseCsvRecords(const std::string& name,
                                const std::vector<std::string>& header,
                                const std::vector<CsvRecordRef>& records,
                                const CsvReadOptions& options,
                                CsvRowError* row_error, int max_parallelism) {
  const size_t ncols = header.size();
  const size_t rows = records.size();
  int label_index = -1;
  for (size_t c = 0; c < ncols; ++c) {
    if (header[c] == options.label_column) label_index = static_cast<int>(c);
  }
  if (label_index < 0) {
    return Status::InvalidArgument("label column '" + options.label_column +
                                   "' not found in " + name);
  }
  std::vector<ColumnKind> kinds(ncols, ColumnKind::kInferred);
  for (size_t c = 0; c < ncols; ++c) {
    if (static_cast<int>(c) == label_index) {
      kinds[c] = ColumnKind::kLabel;
      continue;
    }
    const bool forced_categorical = Contains(options.force_categorical, header[c]);
    const bool forced_numeric = Contains(options.force_numeric, header[c]);
    if (forced_categorical && forced_numeric) {
      return Status::InvalidArgument("column '" + header[c] +
                                     "' listed in both force_categorical and "
                                     "force_numeric");
    }
    if (forced_categorical) kinds[c] = ColumnKind::kCategorical;
    if (forced_numeric) kinds[c] = ColumnKind::kNumeric;
  }

  // Each column's one array (values for numeric kinds, codes for categorical
  // ones), written in place by row index, and its dictionary. An array is
  // allocated once for every row but sized — and so touched — only as far
  // as it has been written: the numeric array of a column demoted in the
  // first range is freed with its pages past that range never touched.
  std::vector<int> labels;
  std::vector<std::vector<double>> values(ncols);
  std::vector<std::vector<int>> codes(ncols);
  std::vector<Dictionary> dictionaries(ncols);
  auto size_array = [rows](auto& array, size_t size) {
    array.reserve(rows);
    array.resize(size);
  };
  auto size_columns = [&](size_t size) {
    size_array(labels, size);
    for (size_t c = 0; c < ncols; ++c) {
      if (kinds[c] == ColumnKind::kCategorical) size_array(codes[c], size);
      if (kinds[c] == ColumnKind::kInferred || kinds[c] == ColumnKind::kNumeric) {
        size_array(values[c], size);
      }
    }
  };
  const size_t head = std::min(rows, kCsvRangeRows);
  size_columns(head);

  // Splits record `r` and writes its cells at row r. Categorical cells take
  // code_of(c, cell); an inferred column's non-numeric cell goes to
  // on_non_numeric(c, cell) instead. False on a bad row, with the detail in
  // scratch->detail.
  auto parse_row = [&](size_t r, RowScratch* scratch, auto&& code_of,
                       auto&& on_non_numeric) {
    if (!SplitCells(records[r].text, options.delimiter, ncols,
                    scratch->cells.data(), &scratch->fields, &scratch->detail)) {
      return false;
    }
    for (size_t c = 0; c < ncols; ++c) {
      const std::string_view cell = StripWhitespace(scratch->cells[c]);
      switch (kinds[c]) {
        case ColumnKind::kLabel:
          if (!ParseLabelCell(cell, options.positive_label_value, &labels[r])) {
            scratch->detail = BadLabelDetail(cell);
            return false;
          }
          break;
        case ColumnKind::kNumeric:
        case ColumnKind::kInferred:
          if (ParseFiniteCell(cell, &values[c][r])) break;
          if (kinds[c] == ColumnKind::kNumeric) {
            scratch->detail = BadNumericDetail(cell, header[c]);
            return false;
          }
          on_non_numeric(c, cell);
          break;
        case ColumnKind::kCategorical:
          codes[c][r] = code_of(c, cell);
          break;
      }
    }
    return true;
  };
  auto fail = [&](size_t r, std::string detail) {
    row_error->index = r;
    row_error->offset = records[r].offset;
    row_error->detail = std::move(detail);
    return Status::InvalidArgument(row_error->detail);
  };
  // Demotes `demoted` columns, re-splitting rows [0, upto) (they all split
  // cleanly the first time) so each dictionary holds the original text in
  // first-appearance order — "07" stays "07", not the number 7.
  auto demote = [&](const std::vector<size_t>& demoted, size_t upto) {
    for (const size_t c : demoted) {
      kinds[c] = ColumnKind::kCategorical;
      const size_t size = values[c].size();
      std::vector<double>().swap(values[c]);
      size_array(codes[c], size);
    }
    RowScratch scratch(ncols);
    for (size_t p = 0; p < upto; ++p) {
      SplitCells(records[p].text, options.delimiter, ncols, scratch.cells.data(),
                 &scratch.fields, &scratch.detail);
      for (const size_t c : demoted) {
        codes[c][p] = dictionaries[c].Intern(StripWhitespace(scratch.cells[c]));
      }
    }
  };

  // The first range, serially: a column demoted here is categorical for
  // every later range.
  {
    RowScratch scratch(ncols);
    for (size_t r = 0; r < head; ++r) {
      const bool ok = parse_row(
          r, &scratch,
          [&](size_t c, std::string_view cell) {
            return dictionaries[c].Intern(cell);
          },
          [&](size_t c, std::string_view cell) {
            demote({c}, r);
            codes[c][r] = dictionaries[c].Intern(cell);
          });
      if (!ok) return fail(r, std::move(scratch.detail));
    }
  }

  // The other ranges, in parallel, into the arrays now sized for every row.
  // The first range's dictionaries are read-only here; a category they lack
  // gets a range-local code until the merge below.
  if (rows > head) {
    size_columns(rows);
    std::vector<RangeState> ranges((rows - head + kCsvRangeRows - 1) /
                                   kCsvRangeRows);
    for (RangeState& range : ranges) {
      range.unseen.resize(ncols);
      range.non_numeric.assign(ncols, 0);
    }
    ThreadPool::Global().ParallelForRanges(
        head, rows, kCsvRangeRows,
        [&](size_t begin, size_t end) {
          RangeState& range = ranges[(begin - head) / kCsvRangeRows];
          RowScratch scratch(ncols);
          for (size_t r = begin; r < end; ++r) {
            const bool ok = parse_row(
                r, &scratch,
                [&](size_t c, std::string_view cell) {
                  const int code = dictionaries[c].Find(cell);
                  return code >= 0 ? code : -1 - range.unseen[c].Intern(cell);
                },
                [&](size_t c, std::string_view) { range.non_numeric[c] = 1; });
            if (!ok) {
              range.error_row = r;
              range.error_detail = std::move(scratch.detail);
              return;
            }
          }
        },
        max_parallelism);

    // Ranges cover rows in order, so the first one with a bad row holds the
    // earliest.
    for (RangeState& range : ranges) {
      if (!range.error_detail.empty()) {
        return fail(range.error_row, std::move(range.error_detail));
      }
    }
    // Merge the unseen categories in range order (first appearance over the
    // whole file) and rewrite their local codes.
    std::vector<int> remap;
    for (size_t k = 0; k < ranges.size(); ++k) {
      const size_t begin = head + k * kCsvRangeRows;
      const size_t end = std::min(rows, begin + kCsvRangeRows);
      for (size_t c = 0; c < ncols; ++c) {
        const std::vector<std::string>& unseen = ranges[k].unseen[c].categories;
        if (unseen.empty()) continue;
        remap.clear();
        for (const std::string& category : unseen) {
          remap.push_back(dictionaries[c].Intern(category));
        }
        for (size_t r = begin; r < end; ++r) {
          int& code = codes[c][r];
          if (code < 0) code = remap[static_cast<size_t>(-1 - code)];
        }
      }
    }
    // A column that stayed numeric through the first range but not after it
    // is demoted in one serial re-pass over every row.
    std::vector<size_t> late;
    for (size_t c = 0; c < ncols; ++c) {
      if (kinds[c] != ColumnKind::kInferred) continue;
      for (const RangeState& range : ranges) {
        if (range.non_numeric[c] != 0) {
          late.push_back(c);
          break;
        }
      }
    }
    if (!late.empty()) demote(late, rows);
  }

  Dataset dataset(name);
  dataset.set_label_name(options.label_column);
  for (size_t c = 0; c < ncols; ++c) {
    if (kinds[c] == ColumnKind::kLabel) continue;
    if (kinds[c] == ColumnKind::kCategorical) {
      dataset.AddColumn(Column::CategoricalOf(
          header[c], std::move(dictionaries[c].categories), std::move(codes[c])));
    } else {
      dataset.AddColumn(Column::NumericOf(header[c], std::move(values[c])));
    }
    dictionaries[c] = Dictionary{};
  }
  dataset.SetLabels(std::move(labels));
  Status status = dataset.Validate();
  if (!status.ok()) return status;
  return dataset;
}

}  // namespace omnifair
