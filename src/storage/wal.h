// Write-ahead log: the redo half of the durability subsystem.
//
// The engine appends one logical record per mutating operation — a
// database statement, a rule declaration/drop, a calendar definition, a
// clock advance — and recovery replays them in order on top of the latest
// snapshot (storage/snapshot.h).  Records are *logical* (statement text,
// not page images): replay re-executes them through the same code paths
// that ran them originally, which keeps the log format independent of the
// in-memory layout.
//
// On-disk format (docs/DURABILITY.md): the file is a sequence of frames
//
//   [u32 payload_len][u32 crc32(payload)][payload bytes]
//
// where the payload is the encoded WalRecord (type tag, LSN, fields).
// Append is atomic-enough under POSIX semantics for a single writer; a
// crash mid-frame leaves a *torn tail* that the reader detects via the
// length/checksum and reports, and recovery truncates.  Anything after
// the first bad frame is ignored — the WAL never resynchronizes, because
// a frame boundary found after garbage cannot be trusted.
//
// Fsync policy:
//   kAlways — fsync before Append returns (durable-before-acknowledge),
//   kBatch  — fsync when >= batch_bytes accumulated since the last sync
//             (bounded loss window; the default),
//   kOff    — never fsync except on checkpoint/Stop (OS crash may lose
//             the tail; process crash does not, the kernel has the data).

#ifndef CALDB_STORAGE_WAL_H_
#define CALDB_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"

namespace caldb::storage {

enum class FsyncPolicy { kAlways, kBatch, kOff };

std::string_view FsyncPolicyName(FsyncPolicy policy);

/// Logical record types.  Stable on-disk tags — append only, never renumber
/// (tools/lint_wal.sh keeps this enum and docs/DURABILITY.md in lockstep).
enum class WalRecordType : uint8_t {
  kStatement = 1,       // one mutating database statement (text)
  kDeclareRule = 2,     // temporal-rule declaration
  kDropRule = 3,        // temporal-rule drop
  kAdvance = 4,         // virtual-clock advance (rule firings replay from it)
  kDefineCalendar = 5,  // derived-calendar definition (name + script)
  kDropCalendar = 6,    // calendar drop
  kParamStatement = 7,  // parameterized statement (text + encoded bind list)
};

/// One logical record.  The string fields a..d are typed per record kind:
///   kStatement:      a = statement text
///   kDeclareRule:    a = name, b = calendar expression, c = action command,
///                    d = condition query; day = declaration day
///   kDropRule:       a = name
///   kAdvance:        day = target day
///   kDefineCalendar: a = name, b = script, c = lifespan ("" or "lo,hi")
///   kDropCalendar:   a = name
///   kParamStatement: a = statement text, b = bound values encoded with the
///                    snapshot value codec (storage/snapshot.h
///                    EncodeParamValues) — replay recompiles `a` once per
///                    shape and binds the decoded list per record
struct WalRecord {
  WalRecordType type = WalRecordType::kStatement;
  uint64_t lsn = 0;  // assigned by WalWriter::Append
  std::string a, b, c, d;
  int64_t day = 0;

  std::string Encode() const;
  static Result<WalRecord> Decode(std::string_view payload);
};

/// Single-writer appender.  Thread-safe (internal mutex), though the
/// engine additionally serializes appends under its exclusive lock so the
/// log order matches the execution order.
class WalWriter {
 public:
  struct Options {
    FsyncPolicy fsync = FsyncPolicy::kBatch;
    /// kBatch: fsync once this many bytes accumulate since the last sync.
    int64_t batch_bytes = 64 * 1024;
  };

  /// Opens (creating if absent) `path` for appending.  `next_lsn` is the
  /// LSN the first Append will be assigned — recovery passes
  /// max(snapshot LSN, last replayed LSN) + 1.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 Options options,
                                                 uint64_t next_lsn);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record (stamping its LSN) and applies the fsync policy.
  /// Returns the assigned LSN.  Timed in caldb.wal.append_ns: from
  /// `*clock_ns` when the caller passes its statement timeline's stamp (0:
  /// untimed), which then receives the end stamp; else from a read of its
  /// own.
  Result<uint64_t> Append(WalRecord record, int64_t* clock_ns = nullptr);

  /// Forces an fsync (checkpoint/Stop path).  No-op on an empty sync set.
  Status Sync();

  /// Truncates the log to zero length after a successful checkpoint.  The
  /// LSN counter keeps running — LSNs are global, not per-file, so replay
  /// skips stale frames by comparing against the snapshot's LSN even if a
  /// crash lands between snapshot rename and truncation.
  Status ResetAfterCheckpoint();

  /// LSN of the most recently appended record (next_lsn - 1).
  uint64_t last_lsn() const;
  /// Bytes currently in the log file (since open or the last reset).
  int64_t bytes() const;

 private:
  WalWriter(int fd, std::string path, Options options, uint64_t next_lsn,
            int64_t bytes);

  Result<uint64_t> AppendFrame(WalRecord record);
  Status SyncLocked();

  mutable std::mutex mu_;
  int fd_ = -1;
  std::string path_;
  Options options_;
  uint64_t next_lsn_ = 1;
  int64_t bytes_ = 0;
  int64_t unsynced_bytes_ = 0;
};

/// What ReadWal found.  `valid_bytes` is the offset of the first byte past
/// the last intact frame — the truncation point when `torn_tail` is set.
struct WalReadResult {
  std::vector<WalRecord> records;
  int64_t valid_bytes = 0;
  bool torn_tail = false;
  std::string tail_error;  // why the tail was rejected (empty when clean)
};

/// Reads every intact frame of `path`.  A missing file reads as empty.
/// Corruption is not an error: the result flags the torn tail and reports
/// everything before it.
Result<WalReadResult> ReadWal(const std::string& path);

/// Truncates `path` to `valid_bytes` (the recovery response to a torn
/// tail) and fsyncs.
Status TruncateWal(const std::string& path, int64_t valid_bytes);

}  // namespace caldb::storage

#endif  // CALDB_STORAGE_WAL_H_
