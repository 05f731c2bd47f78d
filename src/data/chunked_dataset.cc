#include "data/chunked_dataset.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <utility>

#include "util/logging.h"
#include "util/snapshot_io.h"
#include "util/telemetry.h"

namespace omnifair {
namespace {

constexpr uint32_t kChunkedMagic = 0x4443464F;  // "OFCD" little-endian
constexpr uint32_t kChunkedVersion = 2;
constexpr size_t kHeaderBytes = 16;
constexpr size_t kTrailerBytes = 16;
/// u16 category codes reserve one value for the "unseen" sentinel, so a
/// dictionary may hold at most 65534 real categories.
constexpr size_t kMaxU16Categories = 65534;

/// Serializes one packed block payload: rows u64 | labels u8[] |
/// groups i32[] | floats raw f32[] | codes raw u16[]. The float/code
/// payloads are written as raw little-endian bytes — the format is
/// little-endian by contract, matching every other binary artifact in the
/// library.
std::vector<uint8_t> SerializeBlock(const CompactBlock& block) {
  const size_t rows = static_cast<size_t>(block.rows);
  BinaryWriter writer;
  writer.Reserve(8 + rows * (1 + 4) + block.floats.size() * sizeof(float) +
                 block.codes.size() * sizeof(uint16_t));
  writer.U64(block.rows);
  writer.RawBytes(block.labels.data(), rows);
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // Host i32/u16 are already the wire format; copy in bulk.
  writer.RawBytes(reinterpret_cast<const uint8_t*>(block.groups.data()),
                  rows * sizeof(int32_t));
  writer.RawBytes(reinterpret_cast<const uint8_t*>(block.floats.data()),
                  block.floats.size() * sizeof(float));
  writer.RawBytes(reinterpret_cast<const uint8_t*>(block.codes.data()),
                  block.codes.size() * sizeof(uint16_t));
#else
  for (size_t i = 0; i < rows; ++i) writer.I32(block.groups[i]);
  writer.RawBytes(reinterpret_cast<const uint8_t*>(block.floats.data()),
                  block.floats.size() * sizeof(float));
  for (const uint16_t code : block.codes) {
    writer.U8(static_cast<uint8_t>(code & 0xFF));
    writer.U8(static_cast<uint8_t>(code >> 8));
  }
#endif
  return writer.TakeBuffer();
}

/// Packs a dense block into the layout's float/code streams, validating that
/// the dense values actually fit the declared segments.
Status PackDenseBlock(const ChunkedLayout& layout, const DatasetBlock& block,
                      CompactBlock* out) {
  const size_t rows = block.features.rows();
  const size_t floats_per_row = layout.FloatsPerRow();
  const size_t codes_per_row = layout.CodesPerRow();
  out->rows = static_cast<uint64_t>(rows);
  out->labels.resize(rows);
  out->groups.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    out->labels[r] = static_cast<uint8_t>(block.labels[r]);
    out->groups[r] = static_cast<int32_t>(block.groups[r]);
  }
  out->floats.resize(rows * floats_per_row);
  out->codes.resize(rows * codes_per_row);
  for (size_t r = 0; r < rows; ++r) {
    const float* src = block.features.RowF(r);
    float* float_dst = out->floats.data() + r * floats_per_row;
    uint16_t* code_dst = out->codes.data() + r * codes_per_row;
    size_t col = 0;
    for (const ChunkedSegment& segment : layout.segments) {
      const size_t width = segment.width;
      switch (segment.kind) {
        case SegmentKind::kNumericF32:
          std::memcpy(float_dst, src + col, width * sizeof(float));
          float_dst += width;
          break;
        case SegmentKind::kOneHotU16: {
          size_t code = width;  // sentinel: all columns zero
          for (size_t i = 0; i < width; ++i) {
            const float value = src[col + i];
            if (value == 0.0f) continue;
            if (value != 1.0f || code != width) {
              return Status::InvalidArgument(
                  "block row " + std::to_string(r) + " feature " +
                  std::to_string(col + i) +
                  " does not fit the one-hot segment layout");
            }
            code = i;
          }
          *code_dst++ = static_cast<uint16_t>(code);
          break;
        }
        case SegmentKind::kCodeU16: {
          const float value = src[col];
          if (!(value >= 0.0f && value < 65536.0f) ||
              static_cast<float>(static_cast<uint32_t>(value)) != value) {
            return Status::InvalidArgument(
                "block row " + std::to_string(r) + " feature " +
                std::to_string(col) + " is not a u16-range category code");
          }
          *code_dst++ = static_cast<uint16_t>(value);
          break;
        }
      }
      col += width;
    }
  }
  return Status::Ok();
}

}  // namespace

// --- ChunkedLayout ----------------------------------------------------------

ChunkedLayout ChunkedLayout::DenseF32(uint32_t num_features) {
  ChunkedLayout layout;
  if (num_features > 0) {
    layout.segments.push_back({SegmentKind::kNumericF32, num_features});
  }
  return layout;
}

Result<ChunkedLayout> ChunkedLayout::FromPlans(
    const std::vector<FeatureEncoder::ColumnPlan>& plans,
    bool one_hot_categorical) {
  ChunkedLayout layout;
  for (const FeatureEncoder::ColumnPlan& plan : plans) {
    if (plan.type == ColumnType::kNumeric) {
      // Merge adjacent numeric columns into one run so a row's numeric
      // values pack (and later densify) with a single memcpy.
      if (!layout.segments.empty() &&
          layout.segments.back().kind == SegmentKind::kNumericF32) {
        layout.segments.back().width += 1;
      } else {
        layout.segments.push_back({SegmentKind::kNumericF32, 1});
      }
      continue;
    }
    if (plan.num_categories > kMaxU16Categories) {
      return Status::InvalidArgument(
          "column '" + plan.name + "' has " +
          std::to_string(plan.num_categories) +
          " categories; the packed u16 code layout supports at most " +
          std::to_string(kMaxU16Categories));
    }
    if (one_hot_categorical) {
      layout.segments.push_back(
          {SegmentKind::kOneHotU16, static_cast<uint32_t>(plan.num_categories)});
    } else {
      layout.segments.push_back({SegmentKind::kCodeU16, 1});
    }
  }
  return layout;
}

size_t ChunkedLayout::DenseWidth() const {
  size_t width = 0;
  for (const ChunkedSegment& segment : segments) width += segment.width;
  return width;
}

size_t ChunkedLayout::FloatsPerRow() const {
  size_t floats = 0;
  for (const ChunkedSegment& segment : segments) {
    if (segment.kind == SegmentKind::kNumericF32) floats += segment.width;
  }
  return floats;
}

size_t ChunkedLayout::CodesPerRow() const {
  size_t codes = 0;
  for (const ChunkedSegment& segment : segments) {
    if (segment.kind != SegmentKind::kNumericF32) codes += 1;
  }
  return codes;
}

// --- Writer -----------------------------------------------------------------

ChunkedDatasetWriter::ChunkedDatasetWriter(std::string path,
                                           std::string temp_path, int fd,
                                           ChunkedLayout layout)
    : path_(std::move(path)),
      temp_path_(std::move(temp_path)),
      fd_(fd),
      layout_(std::move(layout)),
      num_features_(static_cast<uint32_t>(layout_.DenseWidth())) {}

ChunkedDatasetWriter::ChunkedDatasetWriter(ChunkedDatasetWriter&& other) noexcept
    : path_(std::move(other.path_)),
      temp_path_(std::move(other.temp_path_)),
      fd_(other.fd_),
      layout_(std::move(other.layout_)),
      num_features_(other.num_features_),
      offset_(other.offset_),
      total_rows_(other.total_rows_),
      blocks_(std::move(other.blocks_)) {
  other.fd_ = -1;
}

ChunkedDatasetWriter& ChunkedDatasetWriter::operator=(
    ChunkedDatasetWriter&& other) noexcept {
  if (this != &other) {
    Abandon();
    path_ = std::move(other.path_);
    temp_path_ = std::move(other.temp_path_);
    fd_ = other.fd_;
    layout_ = std::move(other.layout_);
    num_features_ = other.num_features_;
    offset_ = other.offset_;
    total_rows_ = other.total_rows_;
    blocks_ = std::move(other.blocks_);
    other.fd_ = -1;
  }
  return *this;
}

ChunkedDatasetWriter::~ChunkedDatasetWriter() { Abandon(); }

void ChunkedDatasetWriter::Abandon() {
  if (fd_ < 0) return;
  ::close(fd_);
  ::unlink(temp_path_.c_str());
  fd_ = -1;
}

Result<ChunkedDatasetWriter> ChunkedDatasetWriter::Create(
    const std::string& path, uint32_t num_features) {
  return Create(path, ChunkedLayout::DenseF32(num_features));
}

Result<ChunkedDatasetWriter> ChunkedDatasetWriter::Create(
    const std::string& path, ChunkedLayout layout) {
  std::string temp_path = path + ".tmp";
  const int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoError(temp_path, "open");
  ChunkedDatasetWriter writer(path, std::move(temp_path), fd, std::move(layout));
  BinaryWriter header;
  header.U32(kChunkedMagic);
  header.U32(kChunkedVersion);
  header.U32(0);  // flags
  header.U32(0);  // reserved
  Status status = WriteFd(fd, writer.temp_path_, header.buffer().data(),
                          header.buffer().size());
  if (!status.ok()) return status;  // writer dtor unlinks the temp file
  writer.offset_ = kHeaderBytes;
  return writer;
}

Status ChunkedDatasetWriter::AppendBlock(const DatasetBlock& block) {
  if (fd_ < 0) {
    return Status::InvalidArgument("AppendBlock on a closed chunked writer");
  }
  const size_t rows = block.features.rows();
  if (block.features.cols() != num_features_ || block.labels.size() != rows ||
      block.groups.size() != rows) {
    std::ostringstream msg;
    msg << "block shape mismatch: features " << rows << "x"
        << block.features.cols() << ", " << block.labels.size() << " labels, "
        << block.groups.size() << " groups, expected " << num_features_
        << " features";
    return Status::InvalidArgument(msg.str());
  }
  CompactBlock packed;
  Status status = PackDenseBlock(layout_, block, &packed);
  if (!status.ok()) return status;
  return AppendPayload(SerializeBlock(packed), packed.rows);
}

Status ChunkedDatasetWriter::AppendBlock(const CompactBlock& block) {
  if (fd_ < 0) {
    return Status::InvalidArgument("AppendBlock on a closed chunked writer");
  }
  const size_t rows = static_cast<size_t>(block.rows);
  if (block.labels.size() != rows || block.groups.size() != rows ||
      block.floats.size() != rows * layout_.FloatsPerRow() ||
      block.codes.size() != rows * layout_.CodesPerRow()) {
    std::ostringstream msg;
    msg << "compact block shape mismatch: " << rows << " rows, "
        << block.labels.size() << " labels, " << block.groups.size()
        << " groups, " << block.floats.size() << " floats (want "
        << rows * layout_.FloatsPerRow() << "), " << block.codes.size()
        << " codes (want " << rows * layout_.CodesPerRow() << ")";
    return Status::InvalidArgument(msg.str());
  }
  return AppendPayload(SerializeBlock(block), block.rows);
}

Status ChunkedDatasetWriter::AppendPayload(const std::vector<uint8_t>& payload,
                                           uint64_t rows) {
  // Transient errors (the io.short_write fault site reports EINTR) retry with
  // backoff; ENOSPC is permanent and surfaces as kDataLoss immediately. A
  // short write that partly landed would corrupt the running offset, so the
  // retry rewrites the whole payload at the recorded offset via pwrite-like
  // truncation: we simply seek back by reopening at offset_ — the fd is
  // append-positioned only by our own writes, so lseek is enough.
  Status status = RetryIo({}, [&]() -> Status {
    if (::lseek(fd_, static_cast<off_t>(offset_), SEEK_SET) < 0) {
      return IoError(temp_path_, "lseek");
    }
    return WriteFd(fd_, temp_path_, payload.data(), payload.size());
  });
  if (!status.ok()) return status;
  BlockIndexEntry entry;
  entry.offset = offset_;
  entry.rows = rows;
  entry.payload_bytes = static_cast<uint64_t>(payload.size());
  entry.crc32 = Crc32(payload.data(), payload.size());
  blocks_.push_back(entry);
  offset_ += payload.size();
  total_rows_ += rows;
  OF_COUNTER_ADD("ingest.spill_bytes", static_cast<int64_t>(payload.size()));
  return Status::Ok();
}

Status ChunkedDatasetWriter::Finalize(const std::string& label_name,
                                      const std::string& group_column,
                                      const std::vector<std::string>& group_names,
                                      const std::string& encoder_text) {
  if (fd_ < 0) {
    return Status::InvalidArgument("Finalize on a closed chunked writer");
  }
  BinaryWriter footer;
  footer.U32(num_features_);
  footer.U32(static_cast<uint32_t>(layout_.segments.size()));
  for (const ChunkedSegment& segment : layout_.segments) {
    footer.U8(static_cast<uint8_t>(segment.kind));
    footer.U32(segment.width);
  }
  footer.U64(total_rows_);
  footer.String(label_name);
  footer.String(group_column);
  footer.U32(static_cast<uint32_t>(group_names.size()));
  for (const std::string& name : group_names) footer.String(name);
  footer.String(encoder_text);
  footer.U64(static_cast<uint64_t>(blocks_.size()));
  for (const BlockIndexEntry& entry : blocks_) {
    footer.U64(entry.offset);
    footer.U64(entry.rows);
    footer.U64(entry.payload_bytes);
    footer.U32(entry.crc32);
  }
  const uint32_t footer_crc = Crc32(footer.buffer().data(), footer.size());
  BinaryWriter trailer;
  trailer.U64(offset_);  // footer offset
  trailer.U32(footer_crc);
  trailer.U32(kChunkedMagic);

  Status status = RetryIo({}, [&]() -> Status {
    if (::lseek(fd_, static_cast<off_t>(offset_), SEEK_SET) < 0) {
      return IoError(temp_path_, "lseek");
    }
    Status s = WriteFd(fd_, temp_path_, footer.buffer().data(), footer.size());
    if (!s.ok()) return s;
    return WriteFd(fd_, temp_path_, trailer.buffer().data(), trailer.size());
  });
  if (!status.ok()) return status;
  if (::fsync(fd_) != 0) return IoError(temp_path_, "fsync");
  if (::close(fd_) != 0) {
    fd_ = -1;
    ::unlink(temp_path_.c_str());
    return IoError(temp_path_, "close");
  }
  fd_ = -1;
  if (::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    Status rename_status = IoError(path_, "rename");
    ::unlink(temp_path_.c_str());
    return rename_status;
  }
  return Status::Ok();
}

// --- Reader -----------------------------------------------------------------

ChunkedDataset::ChunkedDataset(std::string path, int fd, ChunkedDatasetMeta meta)
    : path_(std::move(path)), fd_(fd), meta_(std::move(meta)) {}

ChunkedDataset::ChunkedDataset(ChunkedDataset&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_), meta_(std::move(other.meta_)) {
  other.fd_ = -1;
}

ChunkedDataset& ChunkedDataset::operator=(ChunkedDataset&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    meta_ = std::move(other.meta_);
    other.fd_ = -1;
  }
  return *this;
}

ChunkedDataset::~ChunkedDataset() {
  if (fd_ >= 0) ::close(fd_);
}

Result<ChunkedDataset> ChunkedDataset::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoError(path, "open");
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status status = IoError(path, "fstat");
    ::close(fd);
    return status;
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  auto fail = [&](Status status) -> Result<ChunkedDataset> {
    ::close(fd);
    return status;
  };
  if (file_size < kHeaderBytes + kTrailerBytes) {
    return fail(Status::DataLoss("chunked dataset " + path + " is " +
                                 std::to_string(file_size) +
                                 " bytes; too short for header + trailer"));
  }

  uint8_t header_bytes[kHeaderBytes];
  Status status = PreadFull(fd, path, 0, header_bytes, kHeaderBytes);
  if (!status.ok()) return fail(status);
  BinaryReader header(header_bytes, kHeaderBytes);
  uint32_t magic = 0, version = 0, flags = 0, reserved = 0;
  header.U32(&magic);
  header.U32(&version);
  header.U32(&flags);
  header.U32(&reserved);
  if (magic != kChunkedMagic) {
    return fail(Status::InvalidArgument(path + " is not a chunked dataset "
                                        "(bad magic)"));
  }
  if (version != kChunkedVersion) {
    // The packed-block layout landed before any other version shipped, so
    // reads are exact-match: there are no older files to stay compatible
    // with, and newer writers may pack differently.
    return fail(Status::InvalidArgument(
        "chunked dataset " + path + " has version " + std::to_string(version) +
        "; this build reads only version " + std::to_string(kChunkedVersion)));
  }

  uint8_t trailer_bytes[kTrailerBytes];
  status = PreadFull(fd, path, file_size - kTrailerBytes, trailer_bytes,
                     kTrailerBytes);
  if (!status.ok()) return fail(status);
  BinaryReader trailer(trailer_bytes, kTrailerBytes);
  uint64_t footer_offset = 0;
  uint32_t footer_crc = 0, trailer_magic = 0;
  trailer.U64(&footer_offset);
  trailer.U32(&footer_crc);
  trailer.U32(&trailer_magic);
  if (trailer_magic != kChunkedMagic) {
    return fail(Status::DataLoss("chunked dataset " + path +
                                 " has a corrupt trailer (bad magic)"));
  }
  if (footer_offset < kHeaderBytes ||
      footer_offset > file_size - kTrailerBytes) {
    return fail(Status::DataLoss("chunked dataset " + path +
                                 " has an implausible footer offset " +
                                 std::to_string(footer_offset)));
  }
  const size_t footer_size =
      static_cast<size_t>(file_size - kTrailerBytes - footer_offset);
  std::vector<uint8_t> footer_bytes(footer_size);
  status = PreadFull(fd, path, footer_offset, footer_bytes.data(), footer_size);
  if (!status.ok()) return fail(status);
  if (Crc32(footer_bytes.data(), footer_size) != footer_crc) {
    return fail(Status::DataLoss("chunked dataset " + path +
                                 " footer CRC mismatch"));
  }

  ChunkedDatasetMeta meta;
  BinaryReader footer(footer_bytes.data(), footer_size);
  uint32_t num_groups = 0;
  uint64_t num_blocks = 0;
  uint32_t num_segments = 0;
  bool ok = footer.U32(&meta.num_features) && footer.U32(&num_segments);
  // Each segment is 5 bytes; a count that cannot fit is corruption.
  if (ok && num_segments > footer.remaining() / 5) ok = false;
  for (uint32_t i = 0; ok && i < num_segments; ++i) {
    uint8_t kind = 0;
    ChunkedSegment segment;
    ok = footer.U8(&kind) && footer.U32(&segment.width);
    if (ok) {
      if (kind > static_cast<uint8_t>(SegmentKind::kCodeU16)) {
        return fail(Status::DataLoss("chunked dataset " + path +
                                     " has an unknown layout segment kind " +
                                     std::to_string(kind)));
      }
      segment.kind = static_cast<SegmentKind>(kind);
      meta.layout.segments.push_back(segment);
    }
  }
  if (ok && meta.layout.DenseWidth() != meta.num_features) {
    return fail(Status::DataLoss(
        "chunked dataset " + path + " layout expands to " +
        std::to_string(meta.layout.DenseWidth()) + " columns but declares " +
        std::to_string(meta.num_features) + " features"));
  }
  ok = ok && footer.U64(&meta.total_rows) &&
            footer.String(&meta.label_name) && footer.String(&meta.group_column) &&
            footer.U32(&num_groups);
  for (uint32_t i = 0; ok && i < num_groups; ++i) {
    std::string name;
    ok = footer.String(&name);
    if (ok) meta.group_names.push_back(std::move(name));
  }
  ok = ok && footer.String(&meta.encoder_text) && footer.U64(&num_blocks);
  // Each index entry is 28 bytes; a count that cannot fit is corruption.
  if (ok && num_blocks > footer.remaining() / 28 + 1) ok = false;
  for (uint64_t i = 0; ok && i < num_blocks; ++i) {
    BlockIndexEntry entry;
    ok = footer.U64(&entry.offset) && footer.U64(&entry.rows) &&
         footer.U64(&entry.payload_bytes) && footer.U32(&entry.crc32);
    if (ok) {
      if (entry.offset < kHeaderBytes || entry.payload_bytes == 0 ||
          entry.offset + entry.payload_bytes > footer_offset) {
        return fail(Status::DataLoss("chunked dataset " + path + " block " +
                                     std::to_string(i) +
                                     " index entry is out of bounds"));
      }
      meta.blocks.push_back(entry);
    }
  }
  if (!ok) {
    return fail(Status::DataLoss("chunked dataset " + path +
                                 " footer is truncated: " +
                                 footer.status().message()));
  }
  return ChunkedDataset(path, fd, std::move(meta));
}

Result<DatasetBlock> ChunkedDataset::MaterializeBlock(size_t index) const {
  if (index >= meta_.blocks.size()) {
    return Status::InvalidArgument("block index " + std::to_string(index) +
                                   " out of range (have " +
                                   std::to_string(meta_.blocks.size()) + ")");
  }
  const BlockIndexEntry& entry = meta_.blocks[index];
  const size_t payload_size = static_cast<size_t>(entry.payload_bytes);

  // Map a page-aligned window around the payload; fall back to a heap read
  // when mmap is unavailable. Either way the payload is released before
  // returning, so resident memory stays bounded by one block.
  const long page = ::sysconf(_SC_PAGESIZE);
  const uint64_t page_size = page > 0 ? static_cast<uint64_t>(page) : 4096;
  const uint64_t map_start = entry.offset & ~(page_size - 1);
  const size_t map_delta = static_cast<size_t>(entry.offset - map_start);
  const size_t map_len = payload_size + map_delta;
  const uint8_t* payload = nullptr;
  void* mapped = ::mmap(nullptr, map_len, PROT_READ, MAP_PRIVATE, fd_,
                        static_cast<off_t>(map_start));
  std::vector<uint8_t> heap;
  if (mapped != MAP_FAILED) {
    payload = static_cast<const uint8_t*>(mapped) + map_delta;
  } else {
    heap.resize(payload_size);
    Status status = PreadFull(fd_, path_, entry.offset, heap.data(), payload_size);
    if (!status.ok()) return status;
    payload = heap.data();
  }
  auto finish = [&]() {
    if (mapped != MAP_FAILED) ::munmap(mapped, map_len);
  };

  if (Crc32(payload, payload_size) != entry.crc32) {
    finish();
    return Status::DataLoss("chunked dataset " + path_ + " block " +
                            std::to_string(index) + " CRC mismatch");
  }

  BinaryReader reader(payload, payload_size);
  uint64_t rows = 0;
  DatasetBlock block;
  auto corrupt = [&](const std::string& what) -> Result<DatasetBlock> {
    finish();
    return Status::DataLoss("chunked dataset " + path_ + " block " +
                            std::to_string(index) + ": " + what);
  };
  if (!reader.U64(&rows)) return corrupt("missing row count");
  if (rows != entry.rows) return corrupt("row count disagrees with the index");
  const size_t n = static_cast<size_t>(rows);
  const size_t floats_per_row = meta_.layout.FloatsPerRow();
  const size_t codes_per_row = meta_.layout.CodesPerRow();
  const size_t float_bytes = n * floats_per_row * sizeof(float);
  const size_t code_bytes = n * codes_per_row * sizeof(uint16_t);
  if (payload_size != 8 + n + 4 * n + float_bytes + code_bytes) {
    return corrupt("payload size disagrees with the schema");
  }
  block.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    uint8_t label = 0;
    if (!reader.U8(&label)) return corrupt("truncated labels");
    block.labels[i] = static_cast<int>(label);
  }
  block.groups.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int32_t code = 0;
    if (!reader.I32(&code)) return corrupt("truncated groups");
    block.groups[i] = static_cast<int>(code);
  }
  // Densify the packed streams back into the float32 matrix: numeric runs
  // copy verbatim, one-hot codes scatter a single 1.0 (the sentinel leaves
  // the zero-initialized row untouched), raw codes widen to float.
  const uint8_t* float_base = payload + 8 + n + 4 * n;
  const uint8_t* code_base = float_base + float_bytes;
  block.features = Matrix(n, meta_.num_features);
  for (size_t r = 0; r < n; ++r) {
    float* dst = block.features.RowF(r);
    const uint8_t* float_src = float_base + r * floats_per_row * sizeof(float);
    const uint8_t* code_src = code_base + r * codes_per_row * sizeof(uint16_t);
    for (const ChunkedSegment& segment : meta_.layout.segments) {
      if (segment.kind == SegmentKind::kNumericF32) {
        std::memcpy(dst, float_src, segment.width * sizeof(float));
        float_src += segment.width * sizeof(float);
        dst += segment.width;
        continue;
      }
      uint16_t code = 0;
      std::memcpy(&code, code_src, sizeof(uint16_t));
      code_src += sizeof(uint16_t);
      if (segment.kind == SegmentKind::kOneHotU16) {
        if (code < segment.width) dst[code] = 1.0f;
      } else {
        dst[0] = static_cast<float>(code);
      }
      dst += segment.width;
    }
  }
  finish();
  return block;
}

Result<FeatureEncoder> ChunkedDataset::LoadEncoder() const {
  std::istringstream is(meta_.encoder_text);
  return FeatureEncoder::Deserialize(is);
}

}  // namespace omnifair
