#include "data/csv.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "data/csv_parser.h"
#include "util/random.h"
#include "util/string_utils.h"

namespace omnifair {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

TEST(CsvTest, ReadBasic) {
  const std::string path = TempPath("basic.csv");
  WriteFile(path,
            "age,race,label\n"
            "25,black,1\n"
            "40,white,0\n");
  CsvReadOptions options;
  Result<Dataset> result = ReadCsv(path, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->NumRows(), 2u);
  EXPECT_EQ(result->NumColumns(), 2u);
  EXPECT_EQ(result->ColumnByName("age").type(), ColumnType::kNumeric);
  EXPECT_EQ(result->ColumnByName("race").type(), ColumnType::kCategorical);
  EXPECT_EQ(result->Label(0), 1);
  EXPECT_EQ(result->Label(1), 0);
}

TEST(CsvTest, PositiveLabelValue) {
  const std::string path = TempPath("poslabel.csv");
  WriteFile(path,
            "x,income\n"
            "1,>50K\n"
            "2,<=50K\n");
  CsvReadOptions options;
  options.label_column = "income";
  options.positive_label_value = ">50K";
  Result<Dataset> result = ReadCsv(path, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Label(0), 1);
  EXPECT_EQ(result->Label(1), 0);
}

TEST(CsvTest, ForceCategorical) {
  const std::string path = TempPath("force.csv");
  WriteFile(path,
            "zip,label\n"
            "10001,0\n"
            "90210,1\n");
  CsvReadOptions options;
  options.force_categorical = {"zip"};
  Result<Dataset> result = ReadCsv(path, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ColumnByName("zip").type(), ColumnType::kCategorical);
}

TEST(CsvTest, MissingLabelColumn) {
  const std::string path = TempPath("nolabel.csv");
  WriteFile(path, "a,b\n1,2\n");
  Result<Dataset> result = ReadCsv(path, CsvReadOptions{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RaggedRowFails) {
  const std::string path = TempPath("ragged.csv");
  WriteFile(path, "a,label\n1,0\n1,2,3\n");
  Result<Dataset> result = ReadCsv(path, CsvReadOptions{});
  EXPECT_FALSE(result.ok());
}

TEST(CsvTest, NonBinaryLabelFails) {
  const std::string path = TempPath("badlabel.csv");
  WriteFile(path, "a,label\n1,5\n");
  Result<Dataset> result = ReadCsv(path, CsvReadOptions{});
  EXPECT_FALSE(result.ok());
}

TEST(CsvTest, MissingFileFails) {
  Result<Dataset> result = ReadCsv("/nonexistent/file.csv", CsvReadOptions{});
  EXPECT_FALSE(result.ok());
}

TEST(CsvTest, SkipsBlankLines) {
  const std::string path = TempPath("blank.csv");
  WriteFile(path, "a,label\n1,0\n\n2,1\n");
  Result<Dataset> result = ReadCsv(path, CsvReadOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRows(), 2u);
}

TEST(CsvTest, QuotedFieldsWithNewlinesAndCommas) {
  const std::string path = TempPath("quoted.csv");
  WriteFile(path,
            "note,label\n"
            "\"line\nbreak\",1\n"
            "\"with,comma\",0\n"
            "\"escaped \"\" quote\",1\n");
  Result<Dataset> result = ReadCsv(path, CsvReadOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->NumRows(), 3u);
  EXPECT_EQ(result->ColumnByName("note").CategoryOf(0), "line\nbreak");
  EXPECT_EQ(result->ColumnByName("note").CategoryOf(1), "with,comma");
  EXPECT_EQ(result->ColumnByName("note").CategoryOf(2), "escaped \" quote");
}

TEST(CsvTest, CrlfLineEndings) {
  const std::string path = TempPath("crlf.csv");
  WriteFile(path, "a,label\r\n1.5,0\r\n2.5,1\r\n");
  Result<Dataset> result = ReadCsv(path, CsvReadOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->NumRows(), 2u);
  EXPECT_EQ(result->ColumnByName("a").type(), ColumnType::kNumeric);
  EXPECT_DOUBLE_EQ(result->ColumnByName("a").NumericValue(1), 2.5);
}

TEST(CsvTest, FinalRowWithoutTrailingNewline) {
  const std::string path = TempPath("notrail.csv");
  WriteFile(path, "a,label\n1,0\n2,1");
  Result<Dataset> result = ReadCsv(path, CsvReadOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->NumRows(), 2u);
  EXPECT_EQ(result->Label(1), 1);
}

TEST(CsvTest, ErrorsNameByteOffsetOfBadRow) {
  const std::string path = TempPath("offset.csv");
  const std::string content =
      "age,label\n"
      "25,1\n"
      "bad,row,0\n";
  WriteFile(path, content);
  CsvReadOptions options;
  Result<Dataset> result = ReadCsv(path, options);
  ASSERT_FALSE(result.ok());
  const size_t expected_offset = content.find("bad,row");
  EXPECT_NE(result.status().message().find(
                "(byte " + std::to_string(expected_offset) + ")"),
            std::string::npos)
      << result.status().message();
}

TEST(CsvTest, ForceNumericErrorIsSeekable) {
  const std::string path = TempPath("forcenum.csv");
  const std::string content =
      "age,label\n"
      "25,1\n"
      "n/a,0\n";
  WriteFile(path, content);
  CsvReadOptions options;
  options.force_numeric = {"age"};
  Result<Dataset> result = ReadCsv(path, options);
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().message();
  const size_t expected_offset = content.find("n/a");
  EXPECT_NE(message.find("(byte " + std::to_string(expected_offset) + ")"),
            std::string::npos)
      << message;
}

TEST(CsvTest, WriteReadRoundTrip) {
  Dataset d("rt");
  Column age = Column::Numeric("age");
  Column g = Column::Categorical("g", {"a", "b"});
  age.AppendNumeric(20.5);
  age.AppendNumeric(31.0);
  g.AppendCode(0);
  g.AppendCode(1);
  d.AddColumn(std::move(age));
  d.AddColumn(std::move(g));
  d.SetLabels({1, 0});
  d.set_label_name("y");

  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteCsv(d, path).ok());

  CsvReadOptions options;
  options.label_column = "y";
  Result<Dataset> back = ReadCsv(path, options);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->NumRows(), 2u);
  EXPECT_DOUBLE_EQ(back->ColumnByName("age").NumericValue(0), 20.5);
  EXPECT_EQ(back->ColumnByName("g").CategoryOf(1), "b");
  EXPECT_EQ(back->Label(0), 1);
}

TEST(CsvTest, TsvTrailingEmptyFieldIsACell) {
  // With a whitespace delimiter the record must not be stripped before it is
  // split: "2\t1\t" has three fields, the last one empty.
  const std::string path = TempPath("trailing_empty.tsv");
  WriteFile(path, "a\tlabel\tnote\n1\t0\tx\n2\t1\t\n");
  CsvReadOptions options;
  options.delimiter = '\t';
  Result<Dataset> result = ReadCsv(path, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->NumRows(), 2u);
  const Column& note = result->ColumnByName("note");
  ASSERT_EQ(note.type(), ColumnType::kCategorical);
  EXPECT_EQ(note.CategoryOf(0), "x");
  EXPECT_EQ(note.CategoryOf(1), "");
  EXPECT_EQ(result->Label(1), 1);
}

TEST(CsvTest, MidFileDemotionKeepsOriginalText) {
  // 10000 numeric-looking cells, then a string: the column turns
  // categorical, its dictionary is in first-appearance order, and every
  // cell keeps its text ("07" and "1.50", not 7 and 1.5).
  std::vector<std::string> cells;
  for (int i = 0; i < 10000; ++i) {
    cells.push_back(i == 0 ? "07" : i == 1 ? "1.50" : std::to_string(i % 50));
  }
  cells.push_back("n/a");
  std::string content = "code,label\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    content += cells[i] + "," + std::to_string(i % 2) + "\n";
  }
  const std::string path = TempPath("demotion.csv");
  WriteFile(path, content);
  Result<Dataset> result = ReadCsv(path, CsvReadOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  const Column& code = result->ColumnByName("code");
  ASSERT_EQ(code.type(), ColumnType::kCategorical);
  std::vector<std::string> expected_categories;
  for (const std::string& cell : cells) {
    if (std::find(expected_categories.begin(), expected_categories.end(),
                  cell) == expected_categories.end()) {
      expected_categories.push_back(cell);
    }
  }
  EXPECT_EQ(code.categories(), expected_categories);
  ASSERT_EQ(code.size(), cells.size());
  for (size_t r = 0; r < cells.size(); ++r) {
    ASSERT_EQ(code.CategoryOf(r), cells[r]) << "row " << r;
  }
}

void ExpectSameDataset(const Dataset& expected, const Dataset& actual) {
  ASSERT_EQ(expected.NumRows(), actual.NumRows());
  ASSERT_EQ(expected.NumColumns(), actual.NumColumns());
  EXPECT_EQ(expected.label_name(), actual.label_name());
  EXPECT_EQ(expected.labels(), actual.labels());
  for (size_t c = 0; c < expected.NumColumns(); ++c) {
    const Column& want = expected.ColumnAt(c);
    const Column& got = actual.ColumnAt(c);
    EXPECT_EQ(want.name(), got.name());
    ASSERT_EQ(want.type(), got.type()) << want.name();
    if (want.type() == ColumnType::kNumeric) {
      EXPECT_EQ(want.numeric_values(), got.numeric_values()) << want.name();
    } else {
      EXPECT_EQ(want.categories(), got.categories()) << want.name();
      EXPECT_EQ(want.codes(), got.codes()) << want.name();
    }
  }
}

/// Runs ParseCsvRecords on `content` (a header record, then data records;
/// blank ones dropped as ReadCsv drops them) at max_parallelism 1 and 0.
/// Both must give the same Dataset, or fail on the same row with the same
/// detail; returns the max_parallelism 1 result.
Result<Dataset> ParseAtParallelism1And0(const std::string& content,
                                        const CsvReadOptions& options,
                                        CsvRowError* row_error) {
  std::vector<std::string> header;
  std::vector<CsvRecordRef> records;
  size_t dangling = 0;
  const bool terminated = ScanMapped(
      content,
      [&](std::string_view record, uint64_t offset) {
        if (header.empty()) {
          EXPECT_TRUE(SplitCsvHeader(record, options.delimiter, &header));
        } else if (!StripWhitespace(record).empty()) {
          records.push_back({record, offset});
        }
      },
      &dangling);
  EXPECT_TRUE(terminated);
  EXPECT_GT(records.size(), 2 * kCsvRangeRows) << "fewer than 3 parse ranges";
  Result<Dataset> serial =
      ParseCsvRecords("records", header, records, options, row_error, 1);
  CsvRowError parallel_error;
  Result<Dataset> parallel =
      ParseCsvRecords("records", header, records, options, &parallel_error, 0);
  EXPECT_EQ(serial.ok(), parallel.ok());
  if (serial.ok() && parallel.ok()) {
    ExpectSameDataset(*serial, *parallel);
  } else {
    EXPECT_EQ(serial.status().message(), parallel.status().message());
    EXPECT_EQ(row_error->index, parallel_error.index);
    EXPECT_EQ(row_error->offset, parallel_error.offset);
    EXPECT_EQ(row_error->detail, parallel_error.detail);
  }
  return serial;
}

/// `rows` records of "x,cat,label" where row r is `cell(r)`'s text.
template <typename CellFn>
std::string RangeCsv(size_t rows, CellFn cell) {
  std::string content = "x,cat,label\n";
  for (size_t r = 0; r < rows; ++r) content += cell(r) + "\n";
  return content;
}

TEST(CsvTest, CategoryFirstSeenInLastRangeKeepsFirstAppearanceOrder) {
  // "mid" appears only in the second range and "late" only in the last; the
  // merged dictionary lists them after the first range's categories, in
  // that order.
  const size_t rows = 3 * kCsvRangeRows + 40;
  const size_t mid_row = kCsvRangeRows + 9;
  const size_t late_row = 3 * kCsvRangeRows + 12;
  auto category = [&](size_t r) -> std::string {
    if (r >= late_row && r % 2 == 0) return "late";
    if (r >= mid_row && r < 2 * kCsvRangeRows && r % 5 == 0) return "mid";
    return r % 3 == 0 ? "b" : "a";
  };
  const std::string content = RangeCsv(rows, [&](size_t r) {
    return std::to_string(r % 13) + ", " + category(r) + " ," + std::to_string(r % 2);
  });
  CsvRowError row_error;
  Result<Dataset> result = ParseAtParallelism1And0(content, {}, &row_error);
  ASSERT_TRUE(result.ok()) << result.status();
  const Column& cat = result->ColumnByName("cat");
  ASSERT_EQ(cat.type(), ColumnType::kCategorical);
  EXPECT_EQ(cat.categories(),
            (std::vector<std::string>{"b", "a", "mid", "late"}));
  for (size_t r = 0; r < rows; ++r) ASSERT_EQ(cat.CategoryOf(r), category(r)) << r;
}

TEST(CsvTest, ForcedNumericErrorInLaterRangeIsReported) {
  const size_t rows = 3 * kCsvRangeRows + 5;
  const size_t bad_row = 2 * kCsvRangeRows + 321;
  const std::string content = RangeCsv(rows, [&](size_t r) {
    return (r == bad_row ? std::string("oops") : std::to_string(r)) + ",a," +
           std::to_string(r % 2);
  });
  CsvReadOptions options;
  options.force_numeric = {"x"};
  CsvRowError row_error;
  Result<Dataset> result = ParseAtParallelism1And0(content, options, &row_error);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(row_error.index, bad_row);
  EXPECT_EQ(row_error.detail, BadNumericDetail("oops", "x"));
}

TEST(CsvTest, EarlierOfTwoBadRowsInDifferentRangesIsReported) {
  // A bad label near the end of the second range and a ragged row at the
  // start of the fourth: the earlier one is reported whichever range a
  // thread finishes first.
  const size_t rows = 4 * kCsvRangeRows;
  const size_t bad_label = 2 * kCsvRangeRows - 3;
  const size_t ragged = 3 * kCsvRangeRows + 1;
  const std::string content = RangeCsv(rows, [&](size_t r) -> std::string {
    if (r == ragged) return "1,a,0,extra";
    return std::to_string(r) + ",a," + (r == bad_label ? "yes" : "1");
  });
  CsvRowError row_error;
  Result<Dataset> result = ParseAtParallelism1And0(content, {}, &row_error);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(row_error.index, bad_label);
  EXPECT_EQ(row_error.detail, BadLabelDetail("yes"));
}

TEST(CsvTest, FifoInputMatchesRegularFile) {
  // A pipe cannot be mapped: ReadCsv falls back to read(2) of the whole
  // input and must produce the same Dataset. The content spans many pipe
  // buffers.
  std::string content = "age,note,label\n";
  for (int i = 0; i < 4000; ++i) {
    content += std::to_string(20 + i % 50) + ",\"n, " + std::to_string(i % 7) +
               "\"," + std::to_string(i % 2) + "\n";
  }
  const std::string file_path = TempPath("fifo_reference.csv");
  WriteFile(file_path, content);
  const std::string fifo_path = TempPath("input.fifo");
  ::unlink(fifo_path.c_str());
  ASSERT_EQ(::mkfifo(fifo_path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(fifo_path, std::ios::binary);
    out << content;
  });
  Result<Dataset> piped = ReadCsv(fifo_path, CsvReadOptions{});
  writer.join();
  ::unlink(fifo_path.c_str());
  ASSERT_TRUE(piped.ok()) << piped.status();
  Result<Dataset> mapped = ReadCsv(file_path, CsvReadOptions{});
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_EQ(mapped->NumRows(), 4000u);
  ExpectSameDataset(*mapped, *piped);
}

TEST(CsvTest, FirstBadRowInFileOrderIsReported) {
  // A bad label on line 3 comes before a ragged row on line 5.
  const std::string path = TempPath("error_order.csv");
  WriteFile(path, "a,label\n1,0\n2,yes\n3,1\n4,1,extra\n");
  Result<Dataset> result = ReadCsv(path, CsvReadOptions{});
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().message();
  EXPECT_NE(message.find(":3: (byte 12) label cell 'yes'"), std::string::npos)
      << message;
}

/// Random cell text: empty, padded, numeric, or quoted with delimiters,
/// "" escapes and embedded (CR)LF.
std::string RandomCell(Rng& rng, bool numeric) {
  const std::string pad = rng.NextBounded(3) == 0 ? "  " : "";
  if (numeric) {
    const uint64_t kind = rng.NextBounded(3);
    std::string number = kind == 0   ? std::to_string(rng.NextBounded(1000))
                         : kind == 1 ? "-" + std::to_string(rng.NextBounded(90)) + ".25"
                                     : "1e" + std::to_string(rng.NextBounded(5));
    return pad + number + pad;
  }
  switch (rng.NextBounded(5)) {
    case 0:
      return pad;
    case 1:
      return pad + "w" + std::to_string(rng.NextBounded(6)) + pad;
    case 2:
      return pad + "\"q, " + std::to_string(rng.NextBounded(4)) + "\"" + pad;
    case 3:
      return "\"say \"\"" + std::to_string(rng.NextBounded(3)) + "\"\"\"";
    default:
      return "\"line" + std::string(rng.NextBounded(2) == 0 ? "\n" : "\r\n") +
             std::to_string(rng.NextBounded(3)) + "\"";
  }
}

TEST(CsvTest, ReadCsvMatchesSplitCsvRecordReference) {
  // The Dataset ReadCsv builds equals one built here from SplitCsvRecord and
  // the inference rules documented in csv.h: whitespace-stripped cells, a
  // column is numeric iff every cell is a finite double, dictionaries in
  // first-appearance order, labels 0/1.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const std::vector<std::string> header = {"num", "cat", "mixed", "label"};
    std::vector<std::string> records;
    std::string content = " num , cat,mixed,label\r\n";
    // Past three parse ranges; seed 3's "mixed" column is demoted only after
    // the first range, seeds 1 and 5 demote it inside the first range.
    const int rows = 3 * static_cast<int>(kCsvRangeRows) + 300;
    const int demote_at = seed == 3 ? 2 * static_cast<int>(kCsvRangeRows) + 17 : 250;
    for (int r = 0; r < rows; ++r) {
      if (rng.NextBounded(10) == 0) content += rng.NextBounded(2) ? "\n" : "  \r\n";
      const bool mixed_numeric = seed % 2 == 0 || r < demote_at;
      std::string record = RandomCell(rng, true) + "," + RandomCell(rng, false) +
                           "," + RandomCell(rng, mixed_numeric) + "," +
                           (rng.NextBounded(4) == 0 ? " " : "") +
                           std::to_string(rng.NextBounded(2));
      records.push_back(record);
      content += record + (rng.NextBounded(2) ? "\r\n" : "\n");
    }
    const std::string path = TempPath("reference.csv");
    WriteFile(path, content);
    Result<Dataset> actual = ReadCsv(path, CsvReadOptions{});
    ASSERT_TRUE(actual.ok()) << actual.status();
    CsvRowError row_error;
    Result<Dataset> serial = ParseAtParallelism1And0(content, {}, &row_error);
    ASSERT_TRUE(serial.ok()) << serial.status();
    ExpectSameDataset(*serial, *actual);

    std::vector<std::vector<std::string>> cells(header.size());
    for (const std::string& record : records) {
      std::vector<std::string> fields;
      ASSERT_TRUE(SplitCsvRecord(record, ',', &fields));
      ASSERT_EQ(fields.size(), header.size()) << record;
      for (size_t c = 0; c < fields.size(); ++c) {
        cells[c].emplace_back(StripWhitespace(fields[c]));
      }
    }
    Dataset expected(path);
    std::vector<int> labels;
    for (const std::string& cell : cells[3]) labels.push_back(cell == "1" ? 1 : 0);
    for (size_t c = 0; c + 1 < header.size(); ++c) {
      Column numeric = Column::Numeric(header[c]);
      for (const std::string& cell : cells[c]) {
        double value = 0.0;
        if (!ParseDouble(cell, &value) || !std::isfinite(value)) break;
        numeric.AppendNumeric(value);
      }
      if (numeric.size() == cells[c].size()) {
        expected.AddColumn(std::move(numeric));
        continue;
      }
      Column column = Column::Categorical(header[c], {});
      for (const std::string& cell : cells[c]) column.AppendCategory(cell);
      expected.AddColumn(std::move(column));
    }
    expected.SetLabels(std::move(labels));
    EXPECT_EQ(actual->ColumnByName("mixed").type(),
              seed % 2 == 0 ? ColumnType::kNumeric : ColumnType::kCategorical);
    ExpectSameDataset(expected, *actual);
  }
}

TEST(CsvTest, SplitRecordBackendsAgreeWithSplitCsvRecord) {
  // Differential oracle for the fused record splitter: random records with
  // quotes, "" escapes, CR, padding, empty fields, too few / too many fields,
  // and delimiters placed at bytes 31-33 (the edge of a 32-byte AVX2 block).
  // The scalar and AVX2 backends must agree on the outcome and cells, and
  // kOk cells must equal SplitCsvRecord's fields.
  const SplitRecordFn avx2 = SplitRecordAvx2Backend();
  Rng rng(2024);
  const std::string alphabet = "ab 1\r\"";
  int ok_records = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const char delimiter = trial % 3 == 0 ? '\t' : ',';
    const size_t ncols = 1 + rng.NextBounded(8);
    const size_t nfields = std::max<size_t>(1, ncols + rng.NextBounded(3) - 1);
    std::string record;
    for (size_t f = 0; f < nfields; ++f) {
      if (f > 0) record += delimiter;
      size_t length = rng.NextBounded(12);
      if (f == 0 && rng.NextBounded(2) == 0) length = 31 + rng.NextBounded(3);
      for (size_t i = 0; i < length; ++i) {
        const bool rare = rng.NextBounded(40) == 0;
        record += rare ? alphabet[4 + rng.NextBounded(2)]
                       : alphabet[rng.NextBounded(4)];
      }
    }
    std::vector<std::string_view> scalar_cells(ncols);
    const SplitOutcome scalar =
        SplitRecordScalar(record, delimiter, ncols, scalar_cells.data());
    if (scalar == SplitOutcome::kOk) {
      ++ok_records;
      std::vector<std::string> fields;
      ASSERT_TRUE(SplitCsvRecord(record, delimiter, &fields));
      ASSERT_EQ(fields.size(), ncols) << record;
      for (size_t c = 0; c < ncols; ++c) ASSERT_EQ(scalar_cells[c], fields[c]);
    }
    if (avx2 == nullptr) continue;
    std::vector<std::string_view> vector_cells(ncols);
    ASSERT_EQ(avx2(record, delimiter, ncols, vector_cells.data()), scalar)
        << "record: " << record;
    if (scalar == SplitOutcome::kOk) {
      ASSERT_EQ(vector_cells, scalar_cells);
    }
  }
  EXPECT_GT(ok_records, 1000);
}

}  // namespace
}  // namespace omnifair
