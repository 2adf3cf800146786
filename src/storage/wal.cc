#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/macros.h"
#include "obs/obs.h"
#include "storage/codec.h"

namespace caldb::storage {

namespace {

struct WalMetrics {
  obs::Counter* appends = obs::Metrics().counter("caldb.wal.appends");
  obs::Counter* bytes = obs::Metrics().counter("caldb.wal.bytes");
  obs::Counter* syncs = obs::Metrics().counter("caldb.wal.syncs");
  obs::Histogram* append_ns = obs::Metrics().histogram("caldb.wal.append_ns");
};

WalMetrics& Metrics() {
  static WalMetrics* m = new WalMetrics();
  return *m;
}

Status Errno(std::string_view what, const std::string& path) {
  return Status::Internal(std::string(what) + " failed for '" + path +
                          "': " + std::strerror(errno));
}

// A frame header is [u32 len][u32 crc].
constexpr size_t kFrameHeader = 8;
// Frames larger than this are rejected as corruption rather than
// attempted: no legitimate logical record approaches it, and a garbage
// length must not drive a gigabyte allocation.
constexpr uint32_t kMaxPayload = 64u << 20;

bool ValidType(uint8_t tag) {
  return tag >= static_cast<uint8_t>(WalRecordType::kStatement) &&
         tag <= static_cast<uint8_t>(WalRecordType::kParamStatement);
}

}  // namespace

std::string_view FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "?";
}

std::string WalRecord::Encode() const {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(type));
  PutU64(&out, lsn);
  PutI64(&out, day);
  PutString(&out, a);
  PutString(&out, b);
  PutString(&out, c);
  PutString(&out, d);
  return out;
}

Result<WalRecord> WalRecord::Decode(std::string_view payload) {
  Decoder dec(payload);
  WalRecord record;
  CALDB_ASSIGN_OR_RETURN(uint8_t tag, dec.ReadU8());
  if (!ValidType(tag)) {
    return Status::ParseError("unknown WAL record type tag " +
                              std::to_string(tag));
  }
  record.type = static_cast<WalRecordType>(tag);
  CALDB_ASSIGN_OR_RETURN(record.lsn, dec.ReadU64());
  CALDB_ASSIGN_OR_RETURN(record.day, dec.ReadI64());
  CALDB_ASSIGN_OR_RETURN(record.a, dec.ReadString());
  CALDB_ASSIGN_OR_RETURN(record.b, dec.ReadString());
  CALDB_ASSIGN_OR_RETURN(record.c, dec.ReadString());
  CALDB_ASSIGN_OR_RETURN(record.d, dec.ReadString());
  if (!dec.done()) {
    return Status::ParseError("trailing bytes after WAL record");
  }
  return record;
}

WalWriter::WalWriter(int fd, std::string path, Options options,
                     uint64_t next_lsn, int64_t bytes)
    : fd_(fd),
      path_(std::move(path)),
      options_(options),
      next_lsn_(next_lsn),
      bytes_(bytes) {}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   Options options,
                                                   uint64_t next_lsn) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Errno("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    Status err = Errno("fstat", path);
    ::close(fd);
    return err;
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(fd, path, options, next_lsn, st.st_size));
}

WalWriter::~WalWriter() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    if (unsynced_bytes_ > 0) ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

Result<uint64_t> WalWriter::Append(WalRecord record, int64_t* clock_ns) {
  // The append (fsync included) is timed from the caller's stamp when it
  // passes one, else from a read of its own; the end read is handed back.
  const int64_t start_ns = obs::PhaseStart(clock_ns);
  Result<uint64_t> lsn = AppendFrame(std::move(record));
  if (start_ns != 0) obs::PhaseEnd(start_ns, Metrics().append_ns, clock_ns);
  return lsn;
}

Result<uint64_t> WalWriter::AppendFrame(WalRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::Internal("WAL writer is closed");
  record.lsn = next_lsn_;
  const std::string payload = record.Encode();
  std::string frame;
  frame.reserve(kFrameHeader + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload));
  frame += payload;

  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = ::write(fd_, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path_);
    }
    off += static_cast<size_t>(n);
  }
  ++next_lsn_;
  bytes_ += static_cast<int64_t>(frame.size());
  unsynced_bytes_ += static_cast<int64_t>(frame.size());
  Metrics().appends->Increment();
  Metrics().bytes->Add(static_cast<int64_t>(frame.size()));

  switch (options_.fsync) {
    case FsyncPolicy::kAlways:
      CALDB_RETURN_IF_ERROR(SyncLocked());
      break;
    case FsyncPolicy::kBatch:
      if (unsynced_bytes_ >= options_.batch_bytes) {
        CALDB_RETURN_IF_ERROR(SyncLocked());
      }
      break;
    case FsyncPolicy::kOff:
      break;
  }
  return record.lsn;
}

Status WalWriter::SyncLocked() {
  if (unsynced_bytes_ == 0) return Status::OK();
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
  unsynced_bytes_ = 0;
  Metrics().syncs->Increment();
  return Status::OK();
}

Status WalWriter::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::Internal("WAL writer is closed");
  return SyncLocked();
}

Status WalWriter::ResetAfterCheckpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::Internal("WAL writer is closed");
  if (::ftruncate(fd_, 0) != 0) return Errno("ftruncate", path_);
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
  bytes_ = 0;
  unsynced_bytes_ = 0;
  return Status::OK();
}

uint64_t WalWriter::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_ - 1;
}

int64_t WalWriter::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

Result<WalReadResult> ReadWal(const std::string& path) {
  WalReadResult result;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return result;  // no log yet: empty
    return Errno("open", path);
  }
  std::string data;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status err = Errno("read", path);
      ::close(fd);
      return err;
    }
    if (n == 0) break;
    data.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  size_t pos = 0;
  uint64_t prev_lsn = 0;
  auto reject = [&](std::string why) {
    result.torn_tail = true;
    result.tail_error = std::move(why);
  };
  while (pos < data.size()) {
    if (data.size() - pos < kFrameHeader) {
      reject("partial frame header (" + std::to_string(data.size() - pos) +
             " bytes)");
      break;
    }
    Decoder header(std::string_view(data).substr(pos, kFrameHeader));
    const uint32_t len = *header.ReadU32();
    const uint32_t crc = *header.ReadU32();
    if (len > kMaxPayload) {
      reject("frame length " + std::to_string(len) + " exceeds limit");
      break;
    }
    if (data.size() - pos - kFrameHeader < len) {
      reject("partial frame payload (have " +
             std::to_string(data.size() - pos - kFrameHeader) + " of " +
             std::to_string(len) + " bytes)");
      break;
    }
    const std::string_view payload =
        std::string_view(data).substr(pos + kFrameHeader, len);
    if (Crc32(payload) != crc) {
      reject("checksum mismatch");
      break;
    }
    Result<WalRecord> record = WalRecord::Decode(payload);
    if (!record.ok()) {
      reject("undecodable record: " + record.status().ToString());
      break;
    }
    // LSNs must be strictly increasing within one log file; a regression
    // means frames from different epochs got interleaved — stop trusting
    // the file at that point.
    if (record->lsn <= prev_lsn) {
      reject("non-monotonic LSN " + std::to_string(record->lsn));
      break;
    }
    prev_lsn = record->lsn;
    result.records.push_back(*std::move(record));
    pos += kFrameHeader + len;
    result.valid_bytes = static_cast<int64_t>(pos);
  }
  return result;
}

Status TruncateWal(const std::string& path, int64_t valid_bytes) {
  int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    if (errno == ENOENT && valid_bytes == 0) return Status::OK();
    return Errno("open", path);
  }
  if (::ftruncate(fd, valid_bytes) != 0) {
    Status err = Errno("ftruncate", path);
    ::close(fd);
    return err;
  }
  if (::fsync(fd) != 0) {
    Status err = Errno("fsync", path);
    ::close(fd);
    return err;
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace caldb::storage
