// Umbrella header for the observability layer: the global metric
// registry, the global tracer, the structured logger (obs/log.h), the
// rule-firing audit trail (obs/audit.h), the metrics snapshotter and
// dashboard renderer (obs/snapshot.h), the kill switch, and the scoped
// latency timer that instrumentation sites use.
//
// Typical instrumentation site:
//
//   #include "obs/obs.h"
//   ...
//   static obs::Counter* hits =
//       obs::Metrics().counter("caldb.eval.gen_cache.hits");
//   hits->Increment();
//
//   obs::ScopedLatency timer(
//       obs::Metrics().histogram("caldb.db.statement_ns"));
//   obs::Tracer::Span span = obs::Trace().StartSpan("db.execute");
//
// The function-local static caches the registry lookup, so steady-state
// cost is one relaxed atomic add.  A span takes no shared lock and, once
// warm, allocates nothing (obs/trace.h).  Timing sites on a statement's
// path share one clock read per phase boundary instead of each reading
// a pair: Engine::RunImpl keeps the stamp, and the lock manager,
// Database::Run and the WAL append take it and hand back their end
// (docs/OBSERVABILITY.md, "Design rules").  `obs::SetEnabled(false)`
// turns off all timing work (clock reads, span recording); plain
// counters stay on — they are too cheap to gate and benches read them.

#ifndef CALDB_OBS_OBS_H_
#define CALDB_OBS_OBS_H_

#include <atomic>

#include "obs/audit.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

namespace caldb::obs {

namespace internal {
extern std::atomic<bool> g_enabled;
}

/// Global timing kill switch (also initialized from the CALDB_OBS_OFF
/// environment variable at startup).  Default: enabled.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool on);

/// The process-wide registry / tracer, by their short names.
inline MetricRegistry& Metrics() { return MetricRegistry::Global(); }
inline Tracer& Trace() { return Tracer::Global(); }

/// Records the scope's wall time (steady clock, ns) into a histogram.
/// No-op when `h` is null or observability is disabled.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* h)
      : h_(h), start_ns_(h != nullptr && Enabled() ? NowNs() : 0) {}
  ~ScopedLatency() {
    if (start_ns_ != 0) h_->Record(NowNs() - start_ns_);
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* h_;
  int64_t start_ns_;
};

/// Where a timed phase starts: the caller's stamp when it passes one (a
/// statement timeline's latest read; 0 means untimed), else a read of
/// its own when timing is on, else 0.
inline int64_t PhaseStart(const int64_t* clock_ns) {
  if (clock_ns != nullptr) return *clock_ns;
  return Enabled() ? NowNs() : 0;
}

/// Ends a phase that PhaseStart began at `start_ns` (nonzero) with one
/// clock read: records the phase into `h` and hands the end stamp back
/// through `clock_ns`, when given, as the start of the caller's next
/// phase.  Returns the end stamp.
inline int64_t PhaseEnd(int64_t start_ns, Histogram* h, int64_t* clock_ns) {
  const int64_t end_ns = NowNs();
  h->Record(end_ns - start_ns);
  if (clock_ns != nullptr) *clock_ns = end_ns;
  return end_ns;
}

/// StartSpan on the global tracer, gated on Enabled().
inline Tracer::Span StartSpan(const char* name, int64_t start_ns = 0) {
  if (!Enabled()) return Tracer::Span();
  return Trace().StartSpan(name, start_ns);
}

}  // namespace caldb::obs

#endif  // CALDB_OBS_OBS_H_
