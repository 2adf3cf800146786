// Periodic metrics snapshots and the delta arithmetic behind the shell's
// `\top` dashboard.
//
// A MetricsSnapshotter is a background thread that every `interval_ms`
// appends one JSON line to a file:
//
//   {"ts_us":...,"interval_ms":1000,
//    "counters_delta":{"caldb.engine.statements":1234,...},   // since the
//    "gauges":{"caldb.engine.pool.queue_depth":0,...},        //   previous line
//    "histograms":{"caldb.engine.table_locks.wait_ns":
//                  {"count":12,"p50":63,"p99":4095,"max":3801}}}
//
// Counter values are reported as deltas (zero deltas omitted), so each
// line reads as "what happened in this interval" and a stalled system
// produces short lines.  Gauges are instantaneous; histogram quantiles
// are cumulative since start/reset (the bounded-memory trade: per-interval
// quantiles would need a second bucket array per histogram).
//
// The Engine starts one when EngineOptions::metrics_snapshot_path (or the
// CALDB_METRICS_FILE environment variable) is set.  CounterDeltas and
// RenderDashboard are the reusable pieces: the shell's `\top` steps a
// CounterDeltas at its refresh interval and renders a dashboard frame
// from the same numbers the snapshotter writes.

#ifndef CALDB_OBS_SNAPSHOT_H_
#define CALDB_OBS_SNAPSHOT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "obs/metrics.h"

namespace caldb::obs {

/// Tracks counter values between calls.  Step() returns the per-name
/// increments since the previous Step (first call: since zero), including
/// names that first appeared in between.  Not thread-safe; each consumer
/// owns one.
class CounterDeltas {
 public:
  /// `registry` defaults to the global registry; must outlive this.
  explicit CounterDeltas(MetricRegistry* registry = nullptr);

  std::map<std::string, int64_t> Step();

 private:
  MetricRegistry* registry_;
  std::map<std::string, int64_t> prev_;
};

/// One `\top` frame: qps and rule/pool/lock/cron vitals computed from the
/// registry's current state and the last interval's counter deltas.
std::string RenderDashboard(MetricRegistry& registry,
                            const std::map<std::string, int64_t>& deltas,
                            double interval_s);

struct SnapshotterOptions {
  std::string path;          // file to append snapshot lines to
  int interval_ms = 1000;    // clamped to >= 10
  MetricRegistry* registry = nullptr;  // nullptr = the global registry
};

class MetricsSnapshotter {
 public:
  explicit MetricsSnapshotter(SnapshotterOptions opts);
  ~MetricsSnapshotter();  // Stop()s
  MetricsSnapshotter(const MetricsSnapshotter&) = delete;
  MetricsSnapshotter& operator=(const MetricsSnapshotter&) = delete;

  /// Opens the sink and starts the thread.  Fails if the file cannot be
  /// opened; idempotent once running.
  Status Start();

  /// Takes a final snapshot, flushes and joins (idempotent).
  void Stop();

  /// Snapshot lines written so far.
  int64_t snapshots() const {
    return snapshots_.load(std::memory_order_relaxed);
  }

  /// Builds one snapshot line (no newline) and advances the delta state —
  /// what the loop appends each interval.  Exposed for tests.
  std::string SnapshotLine();

 private:
  void Loop();

  SnapshotterOptions opts_;
  CounterDeltas deltas_;
  std::FILE* sink_ = nullptr;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::atomic<int64_t> snapshots_{0};
};

}  // namespace caldb::obs

#endif  // CALDB_OBS_SNAPSHOT_H_
