// Executes evaluation plans.

#ifndef CALDB_LANG_EVALUATOR_H_
#define CALDB_LANG_EVALUATOR_H_

#include <cstddef>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "core/calendar.h"
#include "lang/calendar_source.h"
#include "lang/plan.h"
#include "time/time_system.h"

namespace caldb {

/// What a script evaluation produced.
struct ScriptValue {
  enum class Kind {
    kNull,      // no return executed / empty result
    kCalendar,  // a calendar value
    kString,    // a string alert ("LAST TRADING DAY")
    kBlocked,   // an empty-bodied while whose condition is still true —
                // the paper's busy-wait ("while (today:<:temp2) ;")
  };
  Kind kind = Kind::kNull;
  Calendar calendar;
  std::string text;

  static ScriptValue Null() { return {}; }
  static ScriptValue Of(Calendar c) {
    ScriptValue v;
    v.kind = Kind::kCalendar;
    v.calendar = std::move(c);
    return v;
  }
  static ScriptValue Of(std::string s) {
    ScriptValue v;
    v.kind = Kind::kString;
    v.text = std::move(s);
    return v;
  }
  static ScriptValue Blocked() {
    ScriptValue v;
    v.kind = Kind::kBlocked;
    return v;
  }
};

struct EvalOptions {
  /// Generation window for calendars with no tighter bound, in DAYS points.
  Interval window_days{1, 365};
  /// The DAYS point of "today" (used by `today` and DBCRON rules).
  TimePoint today_day = 1;
  /// When false, window hints are ignored and every calendar is generated
  /// over the full global window — the naive evaluation the paper's
  /// factorization optimization is measured against (benchmarks PERF-1/2).
  bool use_window_hints = true;
  int64_t max_loop_iterations = 100000;
  int max_invoke_depth = 16;
  /// When set, per-plan-node execution counts/timings are recorded here
  /// (EXPLAIN/PROFILE).  Propagates into nested kInvoke plans.
  StepProfile* profile = nullptr;
  /// Budget of the evaluator's generated-calendar cache (entries and
  /// payload bytes); least-recently-used entries are evicted past either
  /// limit, so long DBCRON sessions cannot grow the cache without bound.
  size_t gen_cache_max_entries = 64;
  size_t gen_cache_max_bytes = 16u << 20;  // 16 MiB of interval payload
  /// The CalendarCatalog definition version this evaluation runs against
  /// (CalendarCatalog::version()).  A persistent Evaluator (each Session
  /// keeps one) clears its gen-cache when the version changes between
  /// runs, so cached generations never outlive a DefineDerived /
  /// DefineValues / Drop in another session.  0 (the default) means
  /// "unversioned": the cache is kept across runs unconditionally —
  /// correct for catalog-free use and throwaway evaluators.
  uint64_t catalog_version = 0;
};

/// Size/byte-budget LRU over generated base calendars, keyed by
/// (granularity, unit, window.lo, window.hi).  Values are shared Calendar
/// handles, so a hit costs a pointer copy, and the byte accounting charges
/// each entry its rep's leaf payload.  Evictions feed
/// "caldb.eval.gen_cache.evictions".
class GenCache {
 public:
  using Key = std::tuple<int, int, TimePoint, TimePoint>;

  void SetBudget(size_t max_entries, size_t max_bytes);

  /// Exact-key lookup; touches the entry.  Null when absent.
  const Calendar* Find(const Key& key);

  /// First entry (in key order, matching the historical std::map scan)
  /// with the same granularity/unit whose window covers the requested one;
  /// touches it.  Null when absent.
  const Calendar* FindCovering(const Key& key);

  /// Inserts (replacing any previous value) and evicts past the budget.
  void Insert(const Key& key, Calendar value);

  void Clear();
  size_t entries() const { return index_.size(); }
  size_t bytes() const { return bytes_; }

 private:
  struct Entry {
    Key key;
    Calendar value;
    size_t bytes = 0;
  };
  void Touch(std::list<Entry>::iterator it);
  void EvictPastBudget();

  size_t max_entries_ = 64;
  size_t max_bytes_ = 16u << 20;
  size_t bytes_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::map<Key, std::list<Entry>::iterator> index_;
};

/// Counters used by the factorization / push-down benchmarks.  A thin
/// per-run view: the same events also feed the process-wide registry
/// ("caldb.eval.*", see docs/OBSERVABILITY.md).
struct EvalStats {
  int64_t steps_executed = 0;
  int64_t generate_calls = 0;
  int64_t intervals_generated = 0;  // intervals materialized by GENERATE
  int64_t cache_hits = 0;           // exact-key and covering-window hits
};

class Evaluator {
 public:
  /// Neither pointer is owned.  `source` may be null when the plan has no
  /// kLoadValues / kInvoke steps.
  Evaluator(const TimeSystem* ts, const CalendarSource* source)
      : ts_(ts), source_(source) {}

  /// Runs a plan to completion.
  Result<ScriptValue> Run(const Plan& plan, const EvalOptions& opts,
                          EvalStats* stats = nullptr);

  /// Whether the last Run read `today`, in its plan or in any derived
  /// calendar it invoked.  Such a value depends on EvalOptions::today_day,
  /// so callers that cache by window must not keep it.
  bool read_today() const { return read_today_; }

 private:
  struct Frame;

  Result<ScriptValue> RunPlan(const Plan& plan, const EvalOptions& opts,
                              int depth);
  // Executes steps; sets *returned when a return fired.
  Status RunSteps(const std::vector<PlanStep>& steps, Frame* frame,
                  ScriptValue* returned, bool* did_return);
  // RunStep wraps RunStepImpl with the per-step profiler.
  Status RunStep(const PlanStep& step, Frame* frame, ScriptValue* returned,
                 bool* did_return);
  Status RunStepImpl(const PlanStep& step, Frame* frame, ScriptValue* returned,
                     bool* did_return);
  // The window a materializing step generates over, in plan-unit points;
  // empty when its hint operand is empty (nothing to generate).
  Result<std::optional<Interval>> WindowFor(const PlanStep& step,
                                            const Frame& frame) const;
  // The window a stored calendar (kLoadValues, kInvoke) is read over, in
  // plan-unit points: WindowFor intersected with the calendar's lifespan;
  // empty when they do not meet.  Sets *days to the same window in DAYS,
  // the form a nested evaluation takes.
  Result<std::optional<Interval>> StoredWindow(
      const PlanStep& step, const Frame& frame,
      const std::optional<Interval>& lifespan_days, Interval* days) const;
  Result<Calendar> ReadReg(const Frame& frame, int reg, int line_hint) const;

  const TimeSystem* ts_;
  const CalendarSource* source_;
  EvalStats* stats_ = nullptr;
  // Cache of generated base calendars, keyed by granularity/unit/window.
  // Lookups also reuse any cached entry whose window *covers* the request:
  // because fresh generation over W yields exactly the granules overlapping
  // W, slicing a covering entry down to W (relaxed overlaps sweep) is
  // bit-identical to regenerating — the cache stays coherent without
  // storing the slice.  Bounded LRU (EvalOptions::gen_cache_max_*); hits
  // hand out shared reps, so they cost a pointer copy regardless of the
  // calendar's interval count.
  GenCache gen_cache_;
  // The catalog version gen_cache_ content was computed against; Run
  // clears the cache when EvalOptions::catalog_version moves past it.
  uint64_t gen_cache_version_ = 0;
  bool read_today_ = false;  // see read_today()
};

}  // namespace caldb

#endif  // CALDB_LANG_EVALUATOR_H_
