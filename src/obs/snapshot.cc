#include "obs/snapshot.h"

#include <algorithm>
#include <chrono>

#include "obs/json.h"

namespace caldb::obs {

namespace {

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

int64_t DeltaOf(const std::map<std::string, int64_t>& deltas,
                const std::string& name) {
  auto it = deltas.find(name);
  return it == deltas.end() ? 0 : it->second;
}

std::string FormatRate(int64_t delta, double interval_s) {
  const double rate = interval_s > 0 ? static_cast<double>(delta) / interval_s
                                     : 0.0;
  const int64_t tenths = static_cast<int64_t>(rate * 10 + 0.5);
  return std::to_string(tenths / 10) + "." + std::to_string(tenths % 10);
}

std::string FormatUs(int64_t ns) {
  const int64_t tenths = ns / 100;
  return std::to_string(tenths / 10) + "." + std::to_string(tenths % 10) +
         "us";
}

}  // namespace

CounterDeltas::CounterDeltas(MetricRegistry* registry)
    : registry_(registry != nullptr ? registry : &MetricRegistry::Global()) {}

std::map<std::string, int64_t> CounterDeltas::Step() {
  std::map<std::string, int64_t> deltas;
  for (const std::string& name : registry_->CounterNames()) {
    const int64_t value = registry_->counter(name)->value();
    // A counter reset between steps shows as the full new value, not a
    // negative delta.
    const int64_t prev = prev_[name];
    deltas[name] = value >= prev ? value - prev : value;
    prev_[name] = value;
  }
  return deltas;
}

std::string RenderDashboard(MetricRegistry& registry,
                            const std::map<std::string, int64_t>& deltas,
                            double interval_s) {
  std::string out = "caldb top — " + FormatRate(
                        static_cast<int64_t>(interval_s * 10), 10.0) +
                    "s interval\n";
  out += "  statements   " +
         FormatRate(DeltaOf(deltas, "caldb.engine.statements"), interval_s) +
         "/s engine, " +
         FormatRate(DeltaOf(deltas, "caldb.db.statements"), interval_s) +
         "/s db, " +
         FormatRate(DeltaOf(deltas, "caldb.engine.scripts"), interval_s) +
         "/s cal scripts\n";
  out += "  slow stmts   +" +
         std::to_string(DeltaOf(deltas, "caldb.db.slow_statements")) +
         " (total " +
         std::to_string(registry.counter("caldb.db.slow_statements")->value()) +
         ")\n";
  out += "  lock wait    p99 " +
         FormatUs(registry.histogram("caldb.engine.table_locks.wait_ns")
                      ->Percentile(99)) +
         " (cumulative), global fallbacks +" +
         std::to_string(
             DeltaOf(deltas, "caldb.engine.table_locks.fallbacks")) +
         "\n";
  out += "  pool         depth " +
         std::to_string(
             registry.gauge("caldb.engine.pool.queue_depth")->value()) +
         " (max " +
         std::to_string(
             registry.gauge("caldb.engine.pool.queue_depth_max")->value()) +
         "), wait p99 " +
         FormatUs(
             registry.histogram("caldb.engine.pool.wait_ns")->Percentile(99)) +
         "\n";
  out += "  sessions     " +
         std::to_string(
             registry.gauge("caldb.engine.active_sessions")->value()) +
         " (max " +
         std::to_string(
             registry.gauge("caldb.engine.active_sessions_max")->value()) +
         ")\n";
  out += "  cron         +" + std::to_string(DeltaOf(deltas, "caldb.cron.fires")) +
         " fires (total " +
         std::to_string(registry.counter("caldb.cron.fires")->value()) +
         "), heap " +
         std::to_string(registry.gauge("caldb.cron.heap_depth")->value()) +
         ", advances +" +
         std::to_string(DeltaOf(deltas, "caldb.engine.cron.advances")) + "\n";
  out += "  rows scanned +" +
         std::to_string(DeltaOf(deltas, "caldb.db.rows_scanned")) +
         ", audit +" + std::to_string(DeltaOf(deltas, "caldb.audit.records")) +
         " records (" +
         std::to_string(registry.counter("caldb.audit.errors")->value()) +
         " errors total)\n";
  return out;
}

MetricsSnapshotter::MetricsSnapshotter(SnapshotterOptions opts)
    : opts_(std::move(opts)),
      deltas_(opts_.registry != nullptr ? opts_.registry
                                        : &MetricRegistry::Global()) {
  opts_.interval_ms = std::max(10, opts_.interval_ms);
  if (opts_.registry == nullptr) opts_.registry = &MetricRegistry::Global();
}

MetricsSnapshotter::~MetricsSnapshotter() { Stop(); }

Status MetricsSnapshotter::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return Status::OK();
  if (opts_.path.empty()) {
    return Status::InvalidArgument("metrics snapshotter needs a path");
  }
  sink_ = std::fopen(opts_.path.c_str(), "a");
  if (sink_ == nullptr) {
    return Status::InvalidArgument("cannot open metrics snapshot file '" +
                                   opts_.path + "'");
  }
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void MetricsSnapshotter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) {
    std::fclose(sink_);
    sink_ = nullptr;
  }
  running_ = false;
}

std::string MetricsSnapshotter::SnapshotLine() {
  const std::map<std::string, int64_t> deltas = deltas_.Step();
  MetricRegistry& registry = *opts_.registry;
  std::string out = "{\"ts_us\":" + std::to_string(WallMicros()) +
                    ",\"interval_ms\":" + std::to_string(opts_.interval_ms);
  out += ",\"counters_delta\":{";
  bool first = true;
  for (const auto& [name, delta] : deltas) {
    if (delta == 0) continue;
    if (!first) out += ',';
    first = false;
    AppendJsonKey(&out, name);
    out += std::to_string(delta);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const std::string& name : registry.GaugeNames()) {
    if (!first) out += ',';
    first = false;
    AppendJsonKey(&out, name);
    out += std::to_string(registry.gauge(name)->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const std::string& name : registry.HistogramNames()) {
    const Histogram* h = registry.histogram(name);
    if (!first) out += ',';
    first = false;
    AppendJsonKey(&out, name);
    out += "{\"count\":" + std::to_string(h->count()) +
           ",\"p50\":" + std::to_string(h->Percentile(50)) +
           ",\"p99\":" + std::to_string(h->Percentile(99)) +
           ",\"max\":" + std::to_string(h->max()) + "}";
  }
  out += "}}";
  return out;
}

void MetricsSnapshotter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const bool stopping = cv_.wait_for(
        lock, std::chrono::milliseconds(opts_.interval_ms),
        [this] { return stop_; });
    // One final snapshot on the way out so short-lived runs still leave a
    // trace of their last interval.
    lock.unlock();
    const std::string line = SnapshotLine();
    lock.lock();
    if (sink_ != nullptr) {
      std::fwrite(line.data(), 1, line.size(), sink_);
      std::fputc('\n', sink_);
      std::fflush(sink_);
    }
    snapshots_.fetch_add(1, std::memory_order_relaxed);
    if (stopping) return;
  }
}

}  // namespace caldb::obs
