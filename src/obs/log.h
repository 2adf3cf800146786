// Structured logger: leveled JSON-lines events with key/value fields.
//
// Every event renders as one single-line JSON object —
//
//   {"ts_us":1700000000123456,"level":"warn","event":"db.slow_statement",
//    "tid":3,"session":2,"stmt":"retrieve ...","duration_ms":41.2}
//
// — kept in a bounded in-memory ring (the shell's `\log`) and, when a
// file sink is configured (`CALDB_LOG_FILE` or SetSinkPath), appended to
// that file as it happens.  The design mirrors the tracer: the hot path
// is one relaxed atomic load when the level is below the threshold, and
// one short critical section (ring push + optional fwrite of a
// pre-rendered line) when it is not.  Rendering happens outside the lock.
//
// Context: a thread-local LogContext carries the current session id and
// statement text.  Engine/Session install it with ScopedLogContext, the
// thread pool propagates it across ExecuteAsync, and every log line (and
// audit record) stamps it — so a slow statement logged three frames deep
// still says which session and which statement caused it.
//
// Event names follow the span convention ("layer.what", no "caldb."
// prefix): db.slow_statement, rule.fire_error, engine.snapshotter, ...

#ifndef CALDB_OBS_LOG_H_
#define CALDB_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace caldb::obs {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

std::string_view LogLevelName(LogLevel level);

/// One key/value field.  The value is rendered to its final JSON form at
/// construction (escaped string literal, or a bare numeral/bool), so the
/// logger's critical section never formats anything.
class LogField {
 public:
  LogField(std::string_view key, std::string_view value);
  LogField(std::string_view key, const std::string& value)
      : LogField(key, std::string_view(value)) {}
  LogField(std::string_view key, const char* value)
      : LogField(key, std::string_view(value)) {}
  LogField(std::string_view key, int64_t value);
  LogField(std::string_view key, int value)
      : LogField(key, static_cast<int64_t>(value)) {}
  LogField(std::string_view key, uint64_t value);
  LogField(std::string_view key, double value);
  LogField(std::string_view key, bool value);

  const std::string& key() const { return key_; }
  /// The value as a complete JSON token.
  const std::string& json_value() const { return json_value_; }

 private:
  std::string key_;
  std::string json_value_;
};

/// A finished event as held in the ring.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  int64_t wall_us = 0;  // system clock, microseconds since the Unix epoch
  uint32_t tid = 0;
  uint64_t session_id = 0;  // 0 = no session context
  std::string statement;    // context statement, possibly empty
  std::string event;
  std::string fields_json;  // rendered `"k":v,...` body, no braces
};

/// Renders one record as its single-line JSON form (no trailing newline).
std::string RenderLogLine(const LogRecord& record);

/// Per-thread logging context; see the header comment.
struct LogContext {
  uint64_t session_id = 0;
  std::string statement;
};

/// The current thread's context (empty defaults when none installed).
/// The reference stays valid until the enclosing scope ends.
const LogContext& CurrentLogContext();

/// RAII: installs a context for the current thread, restoring the
/// previous one on destruction (scopes nest LIFO on one thread).  The
/// thread keeps one reusable frame per nesting depth, so installing a
/// statement copies its text without allocating once warm.  Install it
/// once per statement, where the text is: Session::Execute,
/// PreparedStatement::Execute, and Engine::Execute for callers that did
/// not.
class ScopedLogContext {
 public:
  ScopedLogContext(uint64_t session_id, std::string_view statement);
  explicit ScopedLogContext(const LogContext& ctx);
  ~ScopedLogContext();
  ScopedLogContext(const ScopedLogContext&) = delete;
  ScopedLogContext& operator=(const ScopedLogContext&) = delete;
};

class Logger {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  /// The process-wide logger.  Its file sink starts on the path in the
  /// CALDB_LOG_FILE environment variable (no sink when unset), and its
  /// minimum level from CALDB_LOG_LEVEL (debug|info|warn|error; default
  /// info).
  static Logger& Global();

  explicit Logger(size_t capacity = kDefaultCapacity);
  ~Logger();
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  void set_min_level(LogLevel level) {
    min_level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel min_level() const {
    return static_cast<LogLevel>(min_level_.load(std::memory_order_relaxed));
  }
  /// The one-atomic-load gate callers may use to skip field construction.
  bool ShouldLog(LogLevel level) const { return level >= min_level(); }

  /// Records one event (no-op below the minimum level).  Stamps the
  /// wall clock, thread id and the thread's LogContext.
  void Log(LogLevel level, std::string_view event,
           std::initializer_list<LogField> fields);

  /// Appends lines to `path` (creating it); an empty path closes the
  /// current sink.
  Status SetSinkPath(const std::string& path);
  bool has_sink() const;

  /// Flushes the file sink's buffered tail (info/debug lines are only
  /// fflushed at warn+ on the hot path).  Engine::Stop() calls this so a
  /// process exit right after Stop cannot drop buffered lines.  No-op
  /// without a sink.
  void Flush();

  /// Ring contents, oldest first.
  std::vector<LogRecord> Snapshot() const;

  /// The last `n` records rendered as JSON lines, oldest first, one per
  /// line with a trailing newline each.
  std::string Tail(size_t n) const;

  void Clear();

  size_t capacity() const { return capacity_; }
  /// Events recorded since construction/Clear (>= ring occupancy).
  int64_t total() const { return total_.load(std::memory_order_relaxed); }

 private:
  const size_t capacity_;
  std::atomic<int> min_level_{static_cast<int>(LogLevel::kInfo)};
  std::atomic<int64_t> total_{0};
  mutable std::mutex mu_;
  std::vector<LogRecord> ring_;  // ring_[(start_ + i) % capacity_]
  size_t start_ = 0;
  std::FILE* sink_ = nullptr;              // guarded by mu_
  std::atomic<bool> sink_open_{false};     // mirrors sink_ != nullptr
};

/// The process-wide logger, by its short name (mirrors Metrics()/Trace()).
inline Logger& Log() { return Logger::Global(); }

/// Convenience: log on the global logger.
inline void LogEvent(LogLevel level, std::string_view event,
                     std::initializer_list<LogField> fields) {
  Logger& log = Logger::Global();
  if (log.ShouldLog(level)) log.Log(level, event, fields);
}

}  // namespace caldb::obs

#endif  // CALDB_OBS_LOG_H_
