#include "util/snapshot_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/fault_injector.h"
#include "util/logging.h"

namespace omnifair {
namespace {

/// "OFSN" little-endian: the first four bytes of every snapshot file.
constexpr uint32_t kMagic = 0x4E53464Fu;
/// Header: magic, version, flags, section count (4 x u32).
constexpr size_t kHeaderBytes = 16;
/// CRC32 trailer.
constexpr size_t kTrailerBytes = 4;

/// Slice-by-8 CRC tables: table[0] is the classic Sarwate table; table[j]
/// advances a byte through j additional zero bytes, so eight bytes fold in
/// one step. Identical CRC values to the byte-at-a-time loop, ~6x faster on
/// multi-megabyte model bundles (the whole image is checksummed on load).
/// Built at compile time, so the first checksum allocates nothing.
constexpr auto kCrc32Tables = [] {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = t[0][i];
    for (int j = 1; j < 8; ++j) {
      c = t[0][c & 0xFFu] ^ (c >> 8);
      t[j][i] = c;
    }
  }
  return t;
}();

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t crc) {
  const auto& t = kCrc32Tables;
  crc = ~crc;
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (size >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, data, 4);
    std::memcpy(&hi, data + 4, 4);
    lo ^= crc;  // little-endian fold; the wire format is LE throughout
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    data += 8;
    size -= 8;
  }
#endif
  for (size_t i = 0; i < size; ++i) {
    crc = t[0][(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

// --- BinaryWriter -----------------------------------------------------------

void BinaryWriter::U32(uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<uint8_t>(value >> shift));
  }
}

void BinaryWriter::U64(uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<uint8_t>(value >> shift));
  }
}

void BinaryWriter::F64(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  U64(bits);
}

void BinaryWriter::String(const std::string& value) {
  U32(static_cast<uint32_t>(value.size()));
  RawBytes(reinterpret_cast<const uint8_t*>(value.data()), value.size());
}

void BinaryWriter::F64Vector(const std::vector<double>& values) {
  U64(values.size());
  for (double v : values) F64(v);
}

void BinaryWriter::Bytes(const std::vector<uint8_t>& bytes) {
  U64(bytes.size());
  RawBytes(bytes.data(), bytes.size());
}

void BinaryWriter::RawBytes(const uint8_t* data, size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

// --- BinaryReader -----------------------------------------------------------

bool BinaryReader::Fail(const std::string& what) {
  if (status_.ok()) {
    status_ = Status::DataLoss("truncated snapshot: " + what + " at byte " +
                               std::to_string(offset_) + " of " +
                               std::to_string(size_));
  }
  return false;
}

bool BinaryReader::Take(size_t count, const uint8_t** out) {
  if (!status_.ok()) return false;
  if (count > size_ - offset_) return false;
  *out = data_ + offset_;
  offset_ += count;
  return true;
}

bool BinaryReader::U8(uint8_t* value) {
  const uint8_t* p = nullptr;
  if (!Take(1, &p)) return Fail("u8");
  *value = *p;
  return true;
}

bool BinaryReader::U32(uint32_t* value) {
  const uint8_t* p = nullptr;
  if (!Take(4, &p)) return Fail("u32");
  *value = 0;
  for (int i = 0; i < 4; ++i) *value |= static_cast<uint32_t>(p[i]) << (8 * i);
  return true;
}

bool BinaryReader::U64(uint64_t* value) {
  const uint8_t* p = nullptr;
  if (!Take(8, &p)) return Fail("u64");
  *value = 0;
  for (int i = 0; i < 8; ++i) *value |= static_cast<uint64_t>(p[i]) << (8 * i);
  return true;
}

bool BinaryReader::I32(int32_t* value) {
  uint32_t bits = 0;
  if (!U32(&bits)) return false;
  *value = static_cast<int32_t>(bits);
  return true;
}

bool BinaryReader::I64(int64_t* value) {
  uint64_t bits = 0;
  if (!U64(&bits)) return false;
  *value = static_cast<int64_t>(bits);
  return true;
}

bool BinaryReader::F64(double* value) {
  uint64_t bits = 0;
  if (!U64(&bits)) return false;
  std::memcpy(value, &bits, sizeof(*value));
  return true;
}

bool BinaryReader::String(std::string* value) {
  uint32_t length = 0;
  if (!U32(&length)) return false;
  // A length prefix larger than the bytes left is corruption, not an
  // allocation request.
  if (length > remaining()) return Fail("string of " + std::to_string(length));
  const uint8_t* p = nullptr;
  if (!Take(length, &p)) return Fail("string bytes");
  value->assign(reinterpret_cast<const char*>(p), length);
  return true;
}

bool BinaryReader::F64Vector(std::vector<double>* values) {
  uint64_t count = 0;
  if (!U64(&count)) return false;
  if (count > remaining() / 8) return Fail("f64[" + std::to_string(count) + "]");
  values->resize(static_cast<size_t>(count));
  for (double& v : *values) {
    if (!F64(&v)) return false;
  }
  return true;
}

bool BinaryReader::Bytes(std::vector<uint8_t>* bytes) {
  uint64_t length = 0;
  if (!U64(&length)) return false;
  if (length > remaining()) return Fail("bytes of " + std::to_string(length));
  const uint8_t* p = nullptr;
  if (!Take(static_cast<size_t>(length), &p)) return Fail("byte payload");
  bytes->assign(p, p + length);
  return true;
}

// --- Snapshot container -----------------------------------------------------

const SnapshotSection* Snapshot::Find(const std::string& name) const {
  for (const SnapshotSection& section : sections) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

Status RetryIo(const RetryOptions& options, const std::function<Status()>& op) {
  const int attempts = options.max_attempts > 0 ? options.max_attempts : 1;
  double backoff_ms = options.initial_backoff_ms;
  Status status;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    status = op();
    if (status.code() != StatusCode::kUnavailable) return status;
    if (attempt == attempts) break;
    OF_LOG(Warning) << "transient IO error (attempt " << attempt << "/"
                    << attempts << "): " << status.message() << "; backing off "
                    << backoff_ms << "ms";
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
    backoff_ms *= 2.0;
  }
  return status;
}

Status WriteFd(int fd, const std::string& path, const uint8_t* data,
               size_t size) {
  size_t written = 0;
  while (written < size) {
    if (FaultInjector::ShouldFail(fault_sites::kIoEnospc)) {
      return IoError(path, "write", ENOSPC);
    }
    size_t chunk = size - written;
    bool injected_short = false;
    if (FaultInjector::ShouldFail(fault_sites::kIoShortWrite)) {
      chunk = chunk / 2;
      injected_short = true;
      if (chunk == 0) return IoError(path, "write", EINTR);
    }
    const ssize_t n = ::write(fd, data + written, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError(path, "write");
    }
    written += static_cast<size_t>(n);
    if (injected_short) return IoError(path, "write", EINTR);
  }
  return Status::Ok();
}

Status PreadFull(int fd, const std::string& path, uint64_t offset,
                 uint8_t* out, size_t size) {
  size_t done = 0;
  while (done < size) {
    size_t want = size - done;
    if (FaultInjector::ShouldFail(fault_sites::kIoShortRead) && want > 1) {
      want = want / 2;  // one truncated read; the loop must pick up the rest
    }
    const ssize_t n = ::pread(fd, out + done, want,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError(path, "pread");
    }
    if (n == 0) {
      return Status::DataLoss("short read of " + path + ": wanted " +
                              std::to_string(size) + " bytes at offset " +
                              std::to_string(offset) + ", file ended after " +
                              std::to_string(done));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

namespace {

std::vector<uint8_t> SerializeSnapshot(const Snapshot& snapshot) {
  BinaryWriter writer;
  writer.U32(kMagic);
  writer.U32(snapshot.version);
  writer.U32(snapshot.flags);
  writer.U32(static_cast<uint32_t>(snapshot.sections.size()));
  for (const SnapshotSection& section : snapshot.sections) {
    writer.String(section.name);
    writer.Bytes(section.payload);
  }
  std::vector<uint8_t> bytes = writer.TakeBuffer();
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<uint8_t>(crc >> shift));
  }
  return bytes;
}

}  // namespace

Status WriteFileAtomic(const std::string& path, const uint8_t* data,
                       size_t size, const RetryOptions& retry) {
  const std::string temp_path = path + ".tmp";
  return RetryIo(retry, [&]() -> Status {
    const int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return IoError(temp_path, "open");
    Status write_status = WriteFd(fd, temp_path, data, size);
    if (write_status.ok() && ::fsync(fd) != 0) {
      write_status = IoError(temp_path, "fsync");
    }
    if (::close(fd) != 0 && write_status.ok()) {
      write_status = IoError(temp_path, "close");
    }
    if (!write_status.ok()) {
      ::unlink(temp_path.c_str());
      return write_status;
    }
    if (::rename(temp_path.c_str(), path.c_str()) != 0) {
      Status rename_status = IoError(path, "rename");
      ::unlink(temp_path.c_str());
      return rename_status;
    }
    return Status::Ok();
  });
}

Status WriteSnapshotFile(const std::string& path, const Snapshot& snapshot,
                         const RetryOptions& retry) {
  const std::vector<uint8_t> bytes = SerializeSnapshot(snapshot);
  return WriteFileAtomic(path, bytes.data(), bytes.size(), retry);
}

Result<Snapshot> ReadSnapshotFile(const std::string& path, uint32_t max_version) {
  std::vector<uint8_t> bytes;
  {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return IoError(path, "open");
    // Size the buffer once from fstat and read in place: the 64 KiB
    // insert-append loop this replaces reallocated (and re-copied) the whole
    // buffer O(n/64KiB) times on multi-megabyte bundles.
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      const Status status = IoError(path, "fstat");
      ::close(fd);
      return status;
    }
    bytes.resize(st.st_size > 0 ? static_cast<size_t>(st.st_size) : 0);
    size_t filled = 0;
    for (;;) {
      if (filled == bytes.size()) {
        // At the expected size: probe for EOF, growing only if the file
        // gained bytes after the fstat (append race — rare but legal).
        uint8_t probe = 0;
        const ssize_t n = ::read(fd, &probe, 1);
        if (n < 0) {
          if (errno == EINTR) continue;
          const Status status = IoError(path, "read");
          ::close(fd);
          return status;
        }
        if (n == 0) break;
        bytes.push_back(probe);
        ++filled;
        continue;
      }
      const ssize_t n = ::read(fd, bytes.data() + filled, bytes.size() - filled);
      if (n < 0) {
        if (errno == EINTR) continue;
        const Status status = IoError(path, "read");
        ::close(fd);
        return status;
      }
      if (n == 0) {
        bytes.resize(filled);  // file shrank after the fstat
        break;
      }
      filled += static_cast<size_t>(n);
    }
    ::close(fd);
  }
  if (FaultInjector::ShouldFail(fault_sites::kIoCorruptRead) && !bytes.empty()) {
    bytes[bytes.size() * 2 / 3] ^= 0x40;  // simulated bit flip
  }

  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    return Status::DataLoss("snapshot " + path + " is " +
                            std::to_string(bytes.size()) +
                            " bytes; too short for header + CRC trailer");
  }
  const size_t body = bytes.size() - kTrailerBytes;
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(bytes[body + i]) << (8 * i);
  }
  const uint32_t actual_crc = Crc32(bytes.data(), body);

  BinaryReader reader(bytes.data(), body);
  uint32_t magic = 0;
  Snapshot snapshot;
  uint32_t section_count = 0;
  if (!reader.U32(&magic) || !reader.U32(&snapshot.version) ||
      !reader.U32(&snapshot.flags) || !reader.U32(&section_count)) {
    return reader.status();
  }
  if (magic != kMagic) {
    return Status::InvalidArgument("not an omnifair snapshot: " + path +
                                   " (bad magic)");
  }
  if (snapshot.version > max_version) {
    return Status::InvalidArgument(
        "snapshot " + path + " has version " +
        std::to_string(snapshot.version) + "; this build reads up to " +
        std::to_string(max_version));
  }
  if (actual_crc != stored_crc) {
    return Status::DataLoss("snapshot " + path +
                            " failed CRC32 validation (corrupt or truncated)");
  }
  snapshot.sections.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    SnapshotSection section;
    if (!reader.String(&section.name) || !reader.Bytes(&section.payload)) {
      return reader.status();
    }
    snapshot.sections.push_back(std::move(section));
  }
  return snapshot;
}

}  // namespace omnifair
