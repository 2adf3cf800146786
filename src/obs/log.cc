#include "obs/log.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace caldb::obs {

namespace {

// The thread's context frames: [0] is the empty default, [depth] the
// current one.  Frames are reused, so installing a statement copies its
// text into a buffer that already has the capacity: no allocation once
// the thread has seen a statement as long at that depth.  A deque keeps
// CurrentLogContext() references valid while it grows.
struct LogContextStack {
  std::deque<LogContext> frames = std::deque<LogContext>(1);
  size_t depth = 0;
};
thread_local LogContextStack t_log_contexts;

// A frame that held an unusually long statement gives its buffer back.
constexpr size_t kMaxKeptStatementBytes = 4096;

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

LogLevel LevelFromEnv() {
  const char* level = std::getenv("CALDB_LOG_LEVEL");
  if (level == nullptr) return LogLevel::kInfo;
  if (std::strcmp(level, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(level, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(level, "error") == 0) return LogLevel::kError;
  return LogLevel::kInfo;
}

Counter* LinesCounter() {
  static Counter* lines = MetricRegistry::Global().counter("caldb.log.lines");
  return lines;
}

}  // namespace

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "info";
}

LogField::LogField(std::string_view key, std::string_view value) : key_(key) {
  AppendJsonString(&json_value_, value);
}

LogField::LogField(std::string_view key, int64_t value)
    : key_(key), json_value_(std::to_string(value)) {}

LogField::LogField(std::string_view key, uint64_t value)
    : key_(key), json_value_(std::to_string(value)) {}

LogField::LogField(std::string_view key, double value) : key_(key) {
  AppendJsonDouble(&json_value_, value);
}

LogField::LogField(std::string_view key, bool value)
    : key_(key), json_value_(value ? "true" : "false") {}

std::string RenderLogLine(const LogRecord& record) {
  std::string out = "{\"ts_us\":" + std::to_string(record.wall_us);
  out += ",\"level\":\"";
  out += LogLevelName(record.level);
  out += "\",\"event\":";
  AppendJsonString(&out, record.event);
  out += ",\"tid\":" + std::to_string(record.tid);
  if (record.session_id != 0) {
    out += ",\"session\":" + std::to_string(record.session_id);
  }
  if (!record.statement.empty()) {
    out += ",\"stmt\":";
    AppendJsonString(&out, record.statement);
  }
  if (!record.fields_json.empty()) {
    out += ',';
    out += record.fields_json;
  }
  out += '}';
  return out;
}

const LogContext& CurrentLogContext() {
  return t_log_contexts.frames[t_log_contexts.depth];
}

ScopedLogContext::ScopedLogContext(uint64_t session_id,
                                   std::string_view statement) {
  LogContextStack& stack = t_log_contexts;
  if (++stack.depth == stack.frames.size()) stack.frames.emplace_back();
  LogContext& frame = stack.frames[stack.depth];
  frame.session_id = session_id;
  frame.statement.assign(statement);
}

ScopedLogContext::ScopedLogContext(const LogContext& ctx)
    : ScopedLogContext(ctx.session_id, ctx.statement) {}

ScopedLogContext::~ScopedLogContext() {
  LogContextStack& stack = t_log_contexts;
  std::string& statement = stack.frames[stack.depth].statement;
  if (statement.capacity() > kMaxKeptStatementBytes) {
    std::string().swap(statement);
  }
  --stack.depth;
}

Logger& Logger::Global() {
  static Logger* logger = [] {
    Logger* instance = new Logger();
    instance->set_min_level(LevelFromEnv());
    const char* path = std::getenv("CALDB_LOG_FILE");
    if (path != nullptr && path[0] != '\0') {
      Status ignored = instance->SetSinkPath(path);
      (void)ignored;
    }
    return instance;
  }();
  return *logger;
}

Logger::Logger(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

Logger::~Logger() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) std::fclose(sink_);
}

void Logger::Log(LogLevel level, std::string_view event,
                 std::initializer_list<LogField> fields) {
  if (!ShouldLog(level)) return;
  LogRecord record;
  record.level = level;
  record.wall_us = WallMicros();
  record.tid = CurrentThreadId();
  const LogContext& ctx = CurrentLogContext();
  record.session_id = ctx.session_id;
  record.statement = ctx.statement;
  record.event = std::string(event);
  for (const LogField& field : fields) {
    if (!record.fields_json.empty()) record.fields_json += ',';
    AppendJsonKey(&record.fields_json, field.key());
    record.fields_json += field.json_value();
  }
  total_.fetch_add(1, std::memory_order_relaxed);
  LinesCounter()->Increment();
  // Render the sink line before taking the lock; the critical section is
  // a ring slot move plus one buffered fwrite.
  std::string line;
  if (sink_open_.load(std::memory_order_acquire)) {
    line = RenderLogLine(record) + "\n";
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(record));
    } else {
      ring_[start_] = std::move(record);
      start_ = (start_ + 1) % capacity_;
    }
    if (sink_ != nullptr && !line.empty()) {
      std::fwrite(line.data(), 1, line.size(), sink_);
      if (level >= LogLevel::kWarn) std::fflush(sink_);
    }
  }
}

Status Logger::SetSinkPath(const std::string& path) {
  std::FILE* next = nullptr;
  if (!path.empty()) {
    next = std::fopen(path.c_str(), "a");
    if (next == nullptr) {
      return Status::InvalidArgument("cannot open log sink '" + path + "'");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) std::fclose(sink_);
  sink_ = next;
  sink_open_.store(next != nullptr, std::memory_order_release);
  return Status::OK();
}

bool Logger::has_sink() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sink_ != nullptr;
}

void Logger::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) std::fflush(sink_);
}

std::vector<LogRecord> Logger::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LogRecord> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start_ + i) % ring_.size()]);
  }
  return out;
}

std::string Logger::Tail(size_t n) const {
  std::vector<LogRecord> records = Snapshot();
  size_t first = records.size() > n ? records.size() - n : 0;
  std::string out;
  for (size_t i = first; i < records.size(); ++i) {
    out += RenderLogLine(records[i]);
    out += '\n';
  }
  return out;
}

void Logger::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  start_ = 0;
  total_.store(0, std::memory_order_relaxed);
}

}  // namespace caldb::obs
