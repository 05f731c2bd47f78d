#include "data/stream_reader.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/chunked_dataset.h"
#include "data/csv.h"
#include "data/csv_parser.h"
#include "data/datasets.h"
#include "data/encoder.h"
#include "data/synthetic_stream.h"
#include "util/fault_injector.h"

namespace omnifair {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

struct ScannedRecord {
  std::string text;
  uint64_t offset;
};

/// Feeds `content` to a scanner in chunks of `chunk_size` bytes.
std::vector<ScannedRecord> ScanInChunks(const std::string& content,
                                        size_t chunk_size) {
  CsvRecordScanner scanner;
  std::vector<ScannedRecord> records;
  auto on_record = [&](std::string_view record, uint64_t offset) {
    records.push_back({std::string(record), offset});
  };
  for (size_t i = 0; i < content.size(); i += chunk_size) {
    scanner.Feed(content.substr(i, chunk_size), on_record);
  }
  scanner.Finish(on_record);
  return records;
}

// ---------------------------------------------------------------------------
// CsvRecordScanner: chunk-boundary behavior
// ---------------------------------------------------------------------------

TEST(CsvRecordScannerTest, QuotedNewlineSpanningChunkBoundary) {
  // The quoted field contains a '\n' and the chunk boundary lands inside the
  // quote, so the scanner must NOT split the record there.
  const std::string content = "a,b\n1,\"x\ny\"\n2,z\n";
  for (size_t chunk_size = 1; chunk_size <= content.size(); ++chunk_size) {
    const auto records = ScanInChunks(content, chunk_size);
    ASSERT_EQ(records.size(), 3u) << "chunk size " << chunk_size;
    EXPECT_EQ(records[0].text, "a,b");
    EXPECT_EQ(records[1].text, "1,\"x\ny\"");
    EXPECT_EQ(records[2].text, "2,z");
  }
}

TEST(CsvRecordScannerTest, CrlfStraddlingChunks) {
  // '\r' at the end of one chunk, '\n' at the start of the next: the '\r'
  // sits in the carry buffer and must still be trimmed from the record.
  const std::string content = "a,b\r\n1,2\r\n";
  for (size_t chunk_size = 1; chunk_size <= content.size(); ++chunk_size) {
    const auto records = ScanInChunks(content, chunk_size);
    ASSERT_EQ(records.size(), 2u) << "chunk size " << chunk_size;
    EXPECT_EQ(records[0].text, "a,b");
    EXPECT_EQ(records[1].text, "1,2");
  }
}

TEST(CsvRecordScannerTest, FinalRecordWithoutTrailingNewline) {
  const std::string content = "a,b\n1,2";  // no terminator on the last row
  const auto records = ScanInChunks(content, 3);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].text, "1,2");
  EXPECT_EQ(records[1].offset, 4u);
}

TEST(CsvRecordScannerTest, ReportsAbsoluteByteOffsets) {
  const std::string content = "head\nfirst\nsecond\n";
  const auto records = ScanInChunks(content, 4);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].offset, 0u);
  EXPECT_EQ(records[1].offset, 5u);
  EXPECT_EQ(records[2].offset, 11u);
}

TEST(CsvRecordScannerTest, UnterminatedQuoteVisibleAtEof) {
  CsvRecordScanner scanner;
  std::vector<ScannedRecord> records;
  auto on_record = [&](std::string_view record, uint64_t offset) {
    records.push_back({std::string(record), offset});
  };
  scanner.Feed("a\n\"open", on_record);
  EXPECT_TRUE(scanner.in_quotes());
  EXPECT_EQ(records.size(), 1u);
}

// ---------------------------------------------------------------------------
// StreamCsvToChunked
// ---------------------------------------------------------------------------

StreamIngestOptions BasicIngestOptions() {
  StreamIngestOptions options;
  options.label_column = "label";
  options.group_column = "grp";
  return options;
}

std::string BasicCsv() {
  return
      "age,grp,score,label\n"
      "25,a,1.5,1\n"
      "40,b,2.5,0\n"
      "31,a,0.5,1\n"
      "52,b,3.5,0\n"
      "47,a,2.0,1\n"
      "29,b,1.0,0\n";
}

TEST(StreamIngestTest, SingleBlockMatchesInMemoryEncoding) {
  const std::string csv = TempPath("ingest_parity.csv");
  const std::string out = TempPath("ingest_parity.ofcd");
  WriteFile(csv, BasicCsv());

  StreamIngestOptions options = BasicIngestOptions();
  options.block_rows = 100;  // everything in one block
  Result<IngestStats> stats = StreamCsvToChunked(csv, out, options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows, 6u);
  EXPECT_EQ(stats->blocks, 1u);

  // In-memory reference: same CSV through ReadCsv + FeatureEncoder.
  CsvReadOptions read_options;
  read_options.label_column = "label";
  read_options.force_categorical = {"grp"};
  Result<Dataset> dataset = ReadCsv(csv, read_options);
  ASSERT_TRUE(dataset.ok());
  FeatureEncoder encoder;
  const Matrix expected = encoder.FitTransform(*dataset);

  Result<ChunkedDataset> chunked = ChunkedDataset::Open(out);
  ASSERT_TRUE(chunked.ok()) << chunked.status();
  EXPECT_EQ(chunked->total_rows(), 6u);
  EXPECT_EQ(chunked->meta().num_features, expected.cols());
  EXPECT_EQ(chunked->meta().label_name, "label");
  EXPECT_EQ(chunked->meta().group_column, "grp");
  ASSERT_EQ(chunked->meta().group_names.size(), 2u);
  EXPECT_EQ(chunked->meta().group_names[0], "a");
  EXPECT_EQ(chunked->meta().group_names[1], "b");

  Result<DatasetBlock> block = chunked->MaterializeBlock(0);
  ASSERT_TRUE(block.ok()) << block.status();
  ASSERT_EQ(block->features.rows(), 6u);
  for (size_t r = 0; r < 6; ++r) {
    for (size_t c = 0; c < expected.cols(); ++c) {
      EXPECT_EQ(block->features.RowF(r)[c], expected.RowF(r)[c])
          << "row " << r << " col " << c;
    }
    EXPECT_EQ(block->labels[r], dataset->Label(r));
    EXPECT_EQ(block->groups[r], dataset->ColumnByName("grp").Code(r));
  }

  // The stored encoder round-trips.
  Result<FeatureEncoder> loaded = chunked->LoadEncoder();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumFeatures(), expected.cols());
}

TEST(StreamIngestTest, TinyReadChunksAndBlocksStillParse) {
  // Chunk boundaries land mid-record, mid-quote, and mid-CRLF; blocks of two
  // rows exercise the multi-block path.
  const std::string csv = TempPath("ingest_tiny.csv");
  const std::string out = TempPath("ingest_tiny.ofcd");
  WriteFile(csv,
            "age,grp,note,label\r\n"
            "25,a,\"line\nbreak\",1\r\n"
            "40,b,plain,0\r\n"
            "31,a,\"with,comma\",1\r\n"
            "52,b,last,0");  // no trailing newline

  StreamIngestOptions options = BasicIngestOptions();
  options.block_rows = 2;
  options.use_mmap = false;  // force the chunked-read path the test targets
  options.read_chunk_bytes = 5;
  Result<IngestStats> stats = StreamCsvToChunked(csv, out, options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows, 4u);
  EXPECT_EQ(stats->blocks, 2u);
  EXPECT_GT(stats->chunks, 5u);

  Result<ChunkedDataset> chunked = ChunkedDataset::Open(out);
  ASSERT_TRUE(chunked.ok()) << chunked.status();
  EXPECT_EQ(chunked->total_rows(), 4u);
  ASSERT_EQ(chunked->num_blocks(), 2u);
  Result<DatasetBlock> first = chunked->MaterializeBlock(0);
  Result<DatasetBlock> second = chunked->MaterializeBlock(1);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->labels, (std::vector<int>{1, 0}));
  EXPECT_EQ(second->labels, (std::vector<int>{1, 0}));
  EXPECT_EQ(first->groups, (std::vector<int>{0, 1}));
}

TEST(StreamIngestTest, ParallelParseIsByteIdenticalToSerial) {
  // Three blocks of three or more parse ranges each, so every block (block
  // 0's fit included) is parsed by several range tasks. Group "c" first
  // appears in the last block, "d" in a late range of block 0.
  const size_t block_rows = 3 * kCsvRangeRows + 100;
  std::string content = "age,grp,score,label\n";
  for (size_t r = 0; r < 3 * block_rows - 50; ++r) {
    const char* group = r == 2 * block_rows + 7     ? "c"
                        : r == 3 * kCsvRangeRows + 5 ? "d"
                        : r % 3 == 0                 ? "b"
                                                     : "a";
    content += std::to_string(20 + r % 47) + "," + group + "," +
               std::to_string(r % 11) + ".25," + std::to_string(r % 2) + "\n";
  }
  const std::string csv = TempPath("ingest_det.csv");
  WriteFile(csv, content);

  const std::string serial_out = TempPath("ingest_det_serial.ofcd");
  const std::string parallel_out = TempPath("ingest_det_parallel.ofcd");
  StreamIngestOptions options = BasicIngestOptions();
  options.block_rows = block_rows;
  options.num_threads = 1;
  ASSERT_TRUE(StreamCsvToChunked(csv, serial_out, options).ok());
  options.num_threads = 0;  // full pool width
  ASSERT_TRUE(StreamCsvToChunked(csv, parallel_out, options).ok());
  EXPECT_EQ(ReadFile(serial_out), ReadFile(parallel_out));
}

TEST(StreamIngestTest, MmapAndChunkedReadProduceIdenticalFiles) {
  // The zero-copy mapped scan and the chunked read(2) fallback must agree
  // byte-for-byte, including on quoted newlines and a missing trailing
  // newline.
  const std::string csv = TempPath("ingest_mmap.csv");
  WriteFile(csv,
            "age,grp,note,label\r\n"
            "25,a,\"line\nbreak\",1\r\n"
            "40,b,plain,0\r\n"
            "31,a,\"with,comma\",1\r\n"
            "52,b,last,0");  // no trailing newline

  const std::string mmap_out = TempPath("ingest_mmap_on.ofcd");
  const std::string read_out = TempPath("ingest_mmap_off.ofcd");
  StreamIngestOptions options = BasicIngestOptions();
  options.block_rows = 2;
  ASSERT_TRUE(StreamCsvToChunked(csv, mmap_out, options).ok());
  options.use_mmap = false;
  options.read_chunk_bytes = 7;  // force many chunk boundaries
  ASSERT_TRUE(StreamCsvToChunked(csv, read_out, options).ok());
  EXPECT_EQ(ReadFile(mmap_out), ReadFile(read_out));
}

TEST(StreamIngestTest, MmapReleasingPagesMidFileMatchesChunkedRead) {
  // A multi-MiB input in small blocks: the mapped scan drops the pages
  // behind every flushed block many times mid-file, and must still agree
  // byte-for-byte with the read(2) fallback.
  const std::string csv = TempPath("ingest_release.csv");
  std::string content = "age,grp,note,label\n";
  for (int i = 0; content.size() < (3u << 20); ++i) {
    content += std::to_string(18 + i % 60) + "," + (i % 3 == 0 ? "a" : "b") +
               (i % 97 == 0 ? ",\"multi\nline\"," : ",plain text,") +
               std::to_string(i % 2) + "\n";
  }
  WriteFile(csv, content);

  const std::string mmap_out = TempPath("ingest_release_on.ofcd");
  const std::string read_out = TempPath("ingest_release_off.ofcd");
  StreamIngestOptions options = BasicIngestOptions();
  options.block_rows = 500;
  Result<IngestStats> mapped = StreamCsvToChunked(csv, mmap_out, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_GT(mapped->blocks, 100u);
  options.use_mmap = false;
  options.read_chunk_bytes = 4093;
  ASSERT_TRUE(StreamCsvToChunked(csv, read_out, options).ok());
  EXPECT_EQ(ReadFile(mmap_out), ReadFile(read_out));
}

TEST(StreamIngestTest, TsvTrailingEmptyFieldInFirstBlock) {
  // "b\t1\t" has three fields, the last one empty. It is record 2, so it is
  // parsed by block 0's type inference whatever the block size, and must be
  // accepted there just as a later block accepts "a\t1\t".
  const std::string csv = TempPath("ingest_trailing_empty.tsv");
  WriteFile(csv, "grp\tlabel\tnote\nb\t1\t\na\t0\tx\na\t1\t\n");
  StreamIngestOptions options = BasicIngestOptions();
  options.delimiter = '\t';
  for (const size_t block_rows : {size_t{1}, size_t{100}}) {
    options.block_rows = block_rows;
    Result<IngestStats> stats = StreamCsvToChunked(
        csv, TempPath("ingest_trailing_empty.ofcd"), options);
    ASSERT_TRUE(stats.ok()) << "block_rows=" << block_rows << ": "
                            << stats.status();
    EXPECT_EQ(stats->rows, 3u);
  }
}

TEST(StreamIngestTest, ErrorsCarryRecordNumberAndByteOffset) {
  // "age" is inferred numeric from block 0 (rows 2-3); "oops" arrives in a
  // later block and must fail with the record number + absolute byte offset.
  const std::string csv = TempPath("ingest_err.csv");
  const std::string out = TempPath("ingest_err.ofcd");
  const std::string content =
      "age,grp,label\n"
      "25,a,1\n"
      "30,b,0\n"
      "oops,a,1\n";
  WriteFile(csv, content);

  StreamIngestOptions options = BasicIngestOptions();
  options.block_rows = 2;
  Result<IngestStats> stats = StreamCsvToChunked(csv, out, options);
  ASSERT_FALSE(stats.ok());
  const std::string message = stats.status().message();
  // Header is record 1, so the bad row is record 4, at the offset of "oops".
  const size_t expected_offset = content.find("oops");
  EXPECT_NE(message.find("record 4"), std::string::npos) << message;
  EXPECT_NE(message.find("(byte " + std::to_string(expected_offset) + ")"),
            std::string::npos)
      << message;
}

TEST(StreamIngestTest, UnterminatedQuoteBlamesTheDanglingRecord) {
  // A quote left open at EOF must point at the record it opened in (which
  // is never emitted), not at the last complete record — on the mmap scan
  // and the chunked-read fallback alike.
  const std::string csv = TempPath("ingest_dangling.csv");
  const std::string content =
      "age,grp,label\n"
      "25,a,1\n"
      "\"open,b,0";  // record 3, quote never closed
  WriteFile(csv, content);
  const size_t expected_offset = content.find("\"open");

  StreamIngestOptions options = BasicIngestOptions();
  for (const bool use_mmap : {true, false}) {
    options.use_mmap = use_mmap;
    Result<IngestStats> stats =
        StreamCsvToChunked(csv, TempPath("ingest_dangling.ofcd"), options);
    ASSERT_FALSE(stats.ok());
    const std::string message = stats.status().message();
    EXPECT_NE(message.find("record 3"), std::string::npos)
        << "use_mmap=" << use_mmap << ": " << message;
    EXPECT_NE(message.find("(byte " + std::to_string(expected_offset) + ")"),
              std::string::npos)
        << "use_mmap=" << use_mmap << ": " << message;
    EXPECT_NE(message.find("unterminated quoted field"), std::string::npos)
        << message;
  }
}

TEST(StreamIngestTest, UnseenCategoryInLaterBlockEncodesAllZero) {
  // "c" first appears in the second block, after the encoder was fitted on
  // block 0: its one-hot block must be all zeros (the unseen-category
  // convention), and its group code must be outside the dictionary.
  const std::string csv = TempPath("ingest_unseen.csv");
  const std::string out = TempPath("ingest_unseen.ofcd");
  WriteFile(csv,
            "grp,label\n"
            "a,1\n"
            "b,0\n"
            "c,1\n"
            "a,0\n");
  StreamIngestOptions options = BasicIngestOptions();
  options.block_rows = 2;
  Result<IngestStats> stats = StreamCsvToChunked(csv, out, options);
  ASSERT_TRUE(stats.ok()) << stats.status();

  Result<ChunkedDataset> chunked = ChunkedDataset::Open(out);
  ASSERT_TRUE(chunked.ok());
  EXPECT_EQ(chunked->meta().group_names.size(), 2u);  // only a, b fitted
  Result<DatasetBlock> block = chunked->MaterializeBlock(1);
  ASSERT_TRUE(block.ok());
  // Row 0 of block 1 is the "c" row: every one-hot feature is zero.
  for (size_t c = 0; c < block->features.cols(); ++c) {
    EXPECT_EQ(block->features.RowF(0)[c], 0.0f);
  }
  EXPECT_GE(block->groups[0], 2);  // sentinel code outside the dictionary
  // Row 1 ("a") encodes normally.
  EXPECT_EQ(block->groups[1], 0);
}

TEST(StreamIngestTest, MissingGroupColumnFails) {
  const std::string csv = TempPath("ingest_nogroup.csv");
  WriteFile(csv, "age,label\n25,1\n");
  StreamIngestOptions options = BasicIngestOptions();
  Result<IngestStats> stats =
      StreamCsvToChunked(csv, TempPath("ingest_nogroup.ofcd"), options);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("grp"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Chunked-file integrity + fault injection (chaos label)
// ---------------------------------------------------------------------------

class StreamIngestFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Reset(); }
  void TearDown() override { FaultInjector::Reset(); }
};

TEST_F(StreamIngestFaultTest, EnospcOnSpillFailsCleanly) {
  const std::string csv = TempPath("ingest_enospc.csv");
  const std::string out = TempPath("ingest_enospc.ofcd");
  WriteFile(csv, BasicCsv());
  FaultInjector::Arm(fault_sites::kIoEnospc, 1, /*repeat=*/true);
  StreamIngestOptions options = BasicIngestOptions();
  Result<IngestStats> stats = StreamCsvToChunked(csv, out, options);
  FaultInjector::Reset();
  ASSERT_FALSE(stats.ok());
  // The unfinalized temp file never becomes the final path.
  std::ifstream final_file(out);
  EXPECT_FALSE(final_file.good());
}

TEST_F(StreamIngestFaultTest, ShortWriteOnSpillFailsCleanly) {
  // WriteFd surfaces an injected short write as an IO error (same contract
  // as the checkpoint/bundle writers): the ingest fails and the temp file
  // never reaches the final path.
  const std::string csv = TempPath("ingest_shortwrite.csv");
  const std::string out = TempPath("ingest_shortwrite.ofcd");
  WriteFile(csv, BasicCsv());
  FaultInjector::Arm(fault_sites::kIoShortWrite);
  StreamIngestOptions options = BasicIngestOptions();
  Result<IngestStats> stats = StreamCsvToChunked(csv, out, options);
  EXPECT_GT(FaultInjector::CallCount(fault_sites::kIoShortWrite), 0);
  FaultInjector::Reset();
  ASSERT_FALSE(stats.ok());
  std::ifstream final_file(out);
  EXPECT_FALSE(final_file.good());
}

TEST_F(StreamIngestFaultTest, ShortReadOnOpenIsAbsorbed) {
  const std::string csv = TempPath("ingest_shortread.csv");
  const std::string out = TempPath("ingest_shortread.ofcd");
  WriteFile(csv, BasicCsv());
  ASSERT_TRUE(StreamCsvToChunked(csv, out, BasicIngestOptions()).ok());
  FaultInjector::Arm(fault_sites::kIoShortRead, 1, /*repeat=*/true);
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(out);
  FaultInjector::Reset();
  ASSERT_TRUE(chunked.ok()) << chunked.status();
  EXPECT_EQ(chunked->total_rows(), 6u);
}

TEST_F(StreamIngestFaultTest, CorruptedBlockFailsCrcOnMaterialize) {
  const std::string csv = TempPath("ingest_corrupt.csv");
  const std::string out = TempPath("ingest_corrupt.ofcd");
  WriteFile(csv, BasicCsv());
  ASSERT_TRUE(StreamCsvToChunked(csv, out, BasicIngestOptions()).ok());

  // Flip one byte inside the first block's payload (just past the header).
  std::string bytes = ReadFile(out);
  ASSERT_GT(bytes.size(), 32u);
  bytes[20] ^= 0x01;
  WriteFile(out, bytes);

  Result<ChunkedDataset> chunked = ChunkedDataset::Open(out);
  ASSERT_TRUE(chunked.ok()) << chunked.status();  // footer still intact
  Result<DatasetBlock> block = chunked->MaterializeBlock(0);
  ASSERT_FALSE(block.ok());
  EXPECT_EQ(block.status().code(), StatusCode::kDataLoss);
}

TEST_F(StreamIngestFaultTest, TruncatedFileFailsOpen) {
  const std::string csv = TempPath("ingest_trunc.csv");
  const std::string out = TempPath("ingest_trunc.ofcd");
  WriteFile(csv, BasicCsv());
  ASSERT_TRUE(StreamCsvToChunked(csv, out, BasicIngestOptions()).ok());
  std::string bytes = ReadFile(out);
  WriteFile(out, bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(ChunkedDataset::Open(out).ok());
}

// ---------------------------------------------------------------------------
// GenerateSyntheticStream
// ---------------------------------------------------------------------------

TEST(SyntheticStreamTest, WritesChunkedDatasetBlockByBlock) {
  const std::string out = TempPath("synth_stream.ofcd");
  synthetic::StreamGenerateOptions options;
  options.num_rows = 5000;
  options.block_rows = 1024;
  options.seed = 7;
  Result<synthetic::StreamGenerateStats> stats =
      synthetic::GenerateSyntheticStream(MakeAdultSchema(), out, options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows, 5000u);
  EXPECT_EQ(stats->blocks, 5u);  // ceil(5000 / 1024)

  Result<ChunkedDataset> chunked = ChunkedDataset::Open(out);
  ASSERT_TRUE(chunked.ok()) << chunked.status();
  EXPECT_EQ(chunked->total_rows(), 5000u);
  EXPECT_EQ(chunked->meta().group_column, "sex");
  ASSERT_EQ(chunked->meta().group_names.size(), 2u);
  EXPECT_EQ(chunked->meta().group_names[0], "Male");
  // Every block materializes and has in-dictionary group codes + 0/1 labels.
  uint64_t rows = 0;
  for (size_t b = 0; b < chunked->num_blocks(); ++b) {
    Result<DatasetBlock> block = chunked->MaterializeBlock(b);
    ASSERT_TRUE(block.ok()) << block.status();
    rows += block->labels.size();
    for (size_t i = 0; i < block->labels.size(); ++i) {
      EXPECT_TRUE(block->labels[i] == 0 || block->labels[i] == 1);
      EXPECT_GE(block->groups[i], 0);
      EXPECT_LT(block->groups[i], 2);
    }
  }
  EXPECT_EQ(rows, 5000u);
}

TEST(SyntheticStreamTest, DeterministicForFixedSeedAndBlockRows) {
  const std::string out_a = TempPath("synth_det_a.ofcd");
  const std::string out_b = TempPath("synth_det_b.ofcd");
  synthetic::StreamGenerateOptions options;
  options.num_rows = 3000;
  options.block_rows = 512;
  options.seed = 11;
  ASSERT_TRUE(
      synthetic::GenerateSyntheticStream(MakeCompasSchema(), out_a, options).ok());
  ASSERT_TRUE(
      synthetic::GenerateSyntheticStream(MakeCompasSchema(), out_b, options).ok());
  EXPECT_EQ(ReadFile(out_a), ReadFile(out_b));
}

}  // namespace
}  // namespace omnifair
