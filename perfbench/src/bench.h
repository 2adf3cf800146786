// Shared plumbing of the caldb benchmark: options, a seeded RNG, latency
// samples, the benchmark's own span recorder, counter deltas and the
// result line.  Each workload (one .cc file each) fills a Report.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "caldb.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Tiny inputs and op counts: a functional check of every metric and
  // correctness check, not a measurement.
  bool smoke = false;
  // Scratch directory for data files and the span dump.
  std::string out_dir = ".";
};

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Latencies of one operation type, in ns, in a log-linear histogram of
/// fixed size (256 sub-buckets per power of two, so <= 0.4% bucket width):
/// memory does not grow with the op count, so peak RSS does not depend on
/// how fast the build under test is.
class Samples {
 public:
  Samples();
  void Add(int64_t ns);
  void Clear();
  int64_t count() const { return count_; }
  /// Nearest-rank percentile, in µs, interpolated within its bucket (0
  /// when empty).
  double PercentileUs(double p) const;

 private:
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
};

/// The timed ops of a run, cut into windows.  A window is a stretch of
/// timed ops with no set-up inside it, opened by Begin() and closed by
/// End(): kWindowNs of a round where the op mix is steady (oltp_literal,
/// calendar_scripts), or a whole round of fixed work where it is not
/// (ledger_durable, rule_firing).  Each window gives a throughput and, per
/// op type, a p50 and a p90.
///
/// Each end-to-end timing is the value that kWindowShare of the run's
/// windows meet or beat: the window p50 at the edge of the run's slowest
/// tenth of windows, the throughput that nine windows in ten reach.  The shared host moves,
/// within tenths of a second, between a fast state and states 60% to 90%
/// slower, and the share of slow time changes from run to run (from none
/// to all of it), so any mean or percentile over a whole run moves with
/// that share.  The run's fastest windows are missing from runs that
/// fall in a slow stretch of the host, while nearly every run spends a
/// tenth of its time in a slow state; perfbench/README.md has the
/// measurements.
class Windows {
 public:
  enum Type { kLight = 0, kHeavy = 1 };

  /// Opens a window now.
  void Begin();
  void Add(Type type, int64_t ns);
  /// Closes the window opened by Begin() (one without ops is dropped).
  void End();

  double ThroughputOpsS() const;
  double P50Us(Type type) const;
  double P90Us(Type type) const;
  size_t count() const { return ops_s_.size(); }
  /// Every sample of the run, for op counts and the p99 in the metadata.
  const Samples& all(Type type) const { return all_[type]; }

 private:
  int64_t start_ns_ = 0;
  int64_t ops_ = 0;
  Samples window_[2], all_[2];
  std::vector<double> ops_s_, p50_us_[2], p90_us_[2];
};

double Median(std::vector<double> values);

/// The benchmark's own spans (name, start, end, parent, op id), recorded
/// around the calls it makes into each layer.  Kept in memory and dumped
/// when the run ends; per-layer self time is a span minus its children.
class Tracer {
 public:
  struct Span {
    int name = 0;
    int parent = -1;
    int64_t op = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Starts a span under the innermost open one.
  int Begin(std::string_view name);
  void End(int span);
  void SetOp(int64_t op) { op_ = op; }

  /// Median self time (span minus its children) per span name, in µs.
  std::map<std::string, double> MedianSelfUs() const;
  /// Sum of self time per span name, in ns.
  std::map<std::string, int64_t> TotalSelfNs() const;
  /// Writes the first `max_spans` spans as CSV (name,op,parent,start,end).
  bool Dump(const std::string& path, size_t max_spans) const;

 private:
  std::vector<int64_t> SelfNs() const;

  std::vector<std::string> names_;
  std::map<std::string, int, std::less<>> name_ids_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int64_t op_ = 0;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name)
      : tracer_(tracer), span_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

/// Totals of the process-wide caldb.* counters over the timed parts of a
/// run.  Each part starts with MetricRegistry::ResetAll(), after its
/// set-up, and ends with Add(), which adds what every counter has counted
/// since.
class CounterSums {
 public:
  void Add();
  double operator[](const std::string& name) const;

 private:
  std::map<std::string, int64_t> sums_;
};

/// Percentile of a process-wide caldb histogram (log2 bucket bound).
int64_t HistogramPercentile(const char* name, double p);
int64_t HistogramSum(const char* name);

/// Peak resident set of this process, MiB (VmHWM).
double PeakRssMb();
/// Hands memory freed by a torn-down engine back to the OS, so that the
/// peak RSS of a run that builds engines one after another is the peak of
/// one engine, not the allocator's retention across all of them.
void ReleaseFreedMemory();

/// Rounds per run of the workloads whose timed loop is bounded by time
/// (oltp_literal, calendar_scripts).  Each round sets up a fresh fixture
/// and then runs its share of the run's seconds, so the run's set-ups are
/// spread over its whole length, as the other two workloads' rounds are:
/// a set-up time sampled only at the start follows the host's speed of
/// that moment, not of the run.
constexpr int kRounds = 12;
/// Length of a window in those two workloads (see Windows).
constexpr int64_t kWindowNs = 250'000'000;
/// Share of a run's windows that meet or beat each reported timing.
constexpr double kWindowShare = 0.9;

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports: the contract's four keys plus run metadata.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> meta;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts a failed operation and prints why (first few only).
  void Fail(const std::string& why);
  std::string ToJson() const;
};

/// Division that reports 0 for an empty base.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Fails setup loudly: the workload cannot run, so no result is printed.
[[noreturn]] void Die(const std::string& what, const caldb::Status& status);
template <typename T>
T Must(caldb::Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what, r.status());
  return std::move(r).value();
}
inline void Must(const caldb::Status& s, const std::string& what) {
  if (!s.ok()) Die(what, s);
}

/// The end-to-end metrics of an untraced run, shared by every workload:
/// throughput and each op type's p50/p90 from the run's windows, the
/// median set-up and peak RSS (p99 over the whole run goes to the
/// metadata: on a shared 4-vCPU host it spread too widely between runs to
/// gate on).
void ReportEndToEnd(Report* report, const std::vector<double>& setup_s,
                    const Windows& windows);

/// Per-layer metrics read from caldb.* counter totals, per op: the db scan counters, and the lang/core evaluation
/// counters (gen-cache, generate, sweep, calendar-rep copies).
void ReportDbCounters(Report* report, const CounterSums& counters,
                      double ops);
void ReportEvalCounters(Report* report, const CounterSums& counters,
                        double ops);

/// Trace-mode helper shared by every workload: the untraced half's
/// throughput against the traced half's, as a percentage.
inline double OverheadPct(double untraced_ops_s, double traced_ops_s) {
  return Ratio(untraced_ops_s - traced_ops_s, untraced_ops_s) * 100.0;
}

// The four workloads.  Each fills `report` with the end-to-end metrics
// (untraced) or the per-layer metrics (trace mode).
void RunOltpLiteral(const Options& opts, Report* report);
void RunLedgerDurable(const Options& opts, Report* report);
void RunCalendarScripts(const Options& opts, Report* report);
void RunRuleFiring(const Options& opts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
