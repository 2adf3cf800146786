// CalendarCatalog: the CALENDARS table of §3.2 (Figure 1).
//
//   CALENDARS(name, derivation-script, eval-plan, lifespan, granularity,
//             values)
//
// A derived calendar is parsed, analyzed, factorized and compiled to its
// eval-plan *at definition time*, exactly as the paper stores the plan in
// the catalog row.  Explicit-value calendars (e.g. HOLIDAYS) store their
// intervals in `values`.  The nine base calendars are implicit.

#ifndef CALDB_CATALOG_CALENDAR_CATALOG_H_
#define CALDB_CATALOG_CALENDAR_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/calendar.h"
#include "lang/calendar_source.h"
#include "lang/evaluator.h"
#include "lang/plan.h"
#include "time/time_system.h"

namespace caldb {

/// One row of the CALENDARS table.
struct CalendarDef {
  std::string name;
  std::string derivation_script;                 // source text ("" for values)
  std::shared_ptr<const Script> parsed_script;   // analyzed + factorized
  std::shared_ptr<const Plan> eval_plan;
  std::optional<Interval> lifespan_days;         // nullopt = unbounded
  Granularity granularity = Granularity::kDays;
  std::optional<Calendar> values;                // explicit values
};

class CalendarCatalog : public CalendarSource {
 public:
  explicit CalendarCatalog(TimeSystem time_system)
      : time_system_(std::move(time_system)) {}

  const TimeSystem& time_system() const { return time_system_; }

  /// Monotonic definition version: bumped by every DefineDerived /
  /// DefineValues / Drop.  Caches of evaluated calendar content — the
  /// catalog's own eval-cache and each Session evaluator's gen-cache —
  /// key or invalidate on this, so no session can serve generations of a
  /// calendar another session has since redefined.  Starts at 1 (0 is the
  /// "unversioned" sentinel in EvalOptions).
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Defines a derived calendar.  The script is parsed, analyzed against
  /// this catalog, factorized, and compiled; its granularity is inferred
  /// from the script's smallest time unit (the paper: "In most cases, the
  /// granularity can be inferred from the derivation-script").
  /// AlreadyExists if the name is taken (including the base names);
  /// InvalidArgument if it does not lex as exactly one identifier.
  Status DefineDerived(const std::string& name, const std::string& script_text,
                       std::optional<Interval> lifespan_days = std::nullopt);

  /// Defines an explicit-values calendar (values must be order-1).
  Status DefineValues(const std::string& name, Calendar values,
                      std::optional<Interval> lifespan_days = std::nullopt);

  /// Removes a user calendar.  Calendars already inlined into other
  /// definitions' plans are unaffected (plans are compiled at define time).
  Status Drop(const std::string& name);

  bool Contains(const std::string& name) const;

  /// The stored row.  NotFound for base calendars (they have no row).
  Result<CalendarDef> Describe(const std::string& name) const;

  /// User-defined calendar names, sorted.
  std::vector<std::string> ListCalendars() const;

  /// Renders the row in the style of the paper's Figure 1.
  Result<std::string> FormatRow(const std::string& name) const;

  // --- CalendarSource -------------------------------------------------------
  Result<ResolvedCalendar> Resolve(const std::string& name) const override;

  // --- evaluation -------------------------------------------------------

  /// Evaluates a named calendar over opts.window_days ∩ its lifespan:
  /// exactly the script `cal <name>`, on its plan from CachedPlan.
  /// NotFound, running nothing, when `name` is not a calendar.  Values
  /// that did not read `today` are kept in the eval cache.
  Result<Calendar> EvaluateCalendar(const std::string& name,
                                    const EvalOptions& opts,
                                    EvalStats* stats = nullptr) const;

  /// Runs an ad-hoc script, its plan looked up through CachedPlan.
  Result<ScriptValue> EvaluateScript(const std::string& script_text,
                                     const EvalOptions& opts,
                                     EvalStats* stats = nullptr) const;

  /// The compiled plan of an ad-hoc script, from the catalog's plan cache:
  /// a bounded LRU (kPlanCacheCapacity entries) keyed on the script text.
  /// Each entry keeps the version() read before its compile, and a lookup
  /// under any other version misses and recompiles, so a plan that inlined
  /// an older definition is never served.  A miss compiles through
  /// CompileScriptText; compile errors are returned and never cached.
  /// Plans are immutable once cached and shared by every caller.
  Result<std::shared_ptr<const Plan>> CachedPlan(
      const std::string& script_text) const;

  static constexpr size_t kPlanCacheCapacity = 512;

  /// Compiles a script without running it: the §3.4 pipeline (parse,
  /// analyze with inlining, factorize, plan).  Every compile in the
  /// catalog and the rules layer — ad-hoc scripts, definitions, EXPLAIN,
  /// temporal rules — runs through here.
  Result<Plan> CompileScriptText(const std::string& script_text) const;

  /// EXPLAIN: compiles `script_text` timing each pipeline phase, runs it
  /// with per-plan-node profiling, and renders a report — phase timings,
  /// rewrite counts (inline / factorize / pushdown), the optimized plan
  /// annotated with per-node execution counts/timings/output sizes, and
  /// the evaluation counters of the run (generate calls, cache hits...).
  Result<std::string> ExplainScript(const std::string& script_text,
                                    const EvalOptions& opts) const;

  /// Convenience: the DAYS window covering civil years [first, last].
  Result<Interval> YearWindow(int32_t first_year, int32_t last_year) const;

  /// The first DAY point strictly after `after_day` covered by the named
  /// calendar, searching no further than `limit_day`.  Evaluation windows
  /// are whole years, doubling in width, so that month/year-relative
  /// selections ([n]/DAYS:during:MONTHS) stay meaningful.  nullopt when
  /// none found.  The search is NextFirePointForPlan's, memo included, on
  /// the plan of `cal <name>` (CachedPlan, so the lifespan applies), with
  /// `today` the day after `after_day`.  NotFound when `name` is not a
  /// calendar.
  Result<std::optional<TimePoint>> NextFireDay(const std::string& name,
                                               TimePoint after_day,
                                               TimePoint limit_day) const;

  /// Same, for an ad-hoc compiled rule expression.
  Result<std::optional<TimePoint>> NextFireDayForPlan(const Plan& plan,
                                                      TimePoint after_day,
                                                      TimePoint limit_day) const;

  /// Granularity-generalized next firing: points are granules of `unit`
  /// (HOURS for process-control rules, DAYS for the paper's examples);
  /// the same year-window search as NextFireDay, with `today` the day of
  /// `after_point`.  This is the primitive DBCRON uses to fill the
  /// RULE-TIME table (§4).  The last year window evaluated is memoized on
  /// `plan` (Plan::next_fire_memo), keyed by (first year, last year,
  /// catalog version, unit), so successive firings of a rule inside one
  /// window cost a binary search.  An evaluation that read `today` is
  /// never memoized.  Safe to call concurrently on one plan.
  Result<std::optional<TimePoint>> NextFirePointForPlan(const Plan& plan,
                                                        TimePoint after_point,
                                                        TimePoint limit_point,
                                                        Granularity unit) const;

 private:
  struct CompileReport;

  // CompileScriptText, leaving the analyzed and factorized script in
  // `*script` (DefineDerived stores it for inlining).  With a report,
  // also stamps each phase and counts the rewrites (EXPLAIN); without
  // one, reads no clock.
  Result<Plan> CompileScriptText(const std::string& script_text, Script* script,
                                 CompileReport* report) const;

  // The cached plan of `cal <name>`; NotFound when `name` is not a
  // calendar.
  Result<std::shared_ptr<const Plan>> PlanOfName(const std::string& name) const;

  // NextFirePointForPlan with `today` at `today_day`, the search starting
  // in that day's year.
  Result<std::optional<TimePoint>> NextFirePoint(const Plan& plan,
                                                 TimePoint after_point,
                                                 TimePoint limit_point,
                                                 Granularity unit,
                                                 TimePoint today_day) const;

  // Requires mu_ held (either mode); callers lock.
  Status CheckNameFreeLocked(const std::string& name) const;

  // The tail of every Define*/Drop: bumps version_, then clears the eval
  // cache and the plan cache.
  void BumpVersionAndClearCaches();

  TimeSystem time_system_;

  // Thread safety: the catalog is shared by every Session of an Engine, so
  // it locks internally.  `mu_` guards `defs_` — lookups take the shared
  // side and *copy out* what they need (rows hold shared_ptr plans and
  // COW Calendar handles, so a copy is cheap); Define*/Drop take the
  // exclusive side.  No lock is ever held across evaluation or script
  // compilation: a plan being compiled re-enters Resolve(), which takes
  // and releases the shared lock per call — holding mu_ across the
  // compile would self-deadlock and stall writers behind long
  // evaluations.  `cache_mu_` guards only `eval_cache_`; a miss evaluates
  // unlocked and inserts afterwards (two racing misses both compute; the
  // values are identical, last insert wins).
  // Lock ordering: an Engine's db lock may be held when these are taken
  // (calendar operators run inside query execution); the reverse never
  // happens — the catalog does not call into the database.
  mutable std::shared_mutex mu_;
  std::map<std::string, CalendarDef> defs_;
  // See version().  Bumped *before* the mutator's cache clear, so an
  // insert racing the clear (its unlocked evaluation started pre-mutation)
  // lands under the old version and is unreachable by post-mutation
  // lookups — the clear alone could not guarantee that.
  std::atomic<uint64_t> version_{1};
  // Evaluated values of named calendars, keyed by (name, catalog version,
  // window) — the caching role of the CALENDARS row's `values` column.
  // Cleared on Define*/Drop; the version key component is what makes a
  // stale racing insert harmless (see version_ above).  Values that read
  // `today` are never inserted: the key has no today.  An insert into a
  // cache holding kPlanCacheCapacity entries clears it first.
  mutable std::mutex cache_mu_;
  mutable std::map<std::tuple<std::string, uint64_t, TimePoint, TimePoint>,
                   Calendar>
      eval_cache_;
  // The plan cache (CachedPlan).  `plan_cache_mu_` guards the map and its
  // LRU list, whose entries point at the map's keys; it is a leaf lock,
  // never held across a compile.  Entries follow the same bump-then-clear
  // rule as eval_cache_: an entry inserted by a compile that raced a
  // Define*/Drop carries the pre-mutation version and always misses.
  struct PlanCacheEntry {
    uint64_t version = 0;
    std::shared_ptr<const Plan> plan;
    std::list<const std::string*>::iterator lru;
  };
  mutable std::mutex plan_cache_mu_;
  mutable std::unordered_map<std::string, PlanCacheEntry> plan_cache_;
  mutable std::list<const std::string*> plan_lru_;  // front = most recent
};

}  // namespace caldb

#endif  // CALDB_CATALOG_CALENDAR_CATALOG_H_
