// Time-based rules (§4): "On Calendar-Expression do Action".
//
// When a temporal rule is declared it is parsed by the calendar-expression
// parsing algorithm; the expression, parse tree and evaluation plan are
// stored in the table RULE-INFO, and the next time point at which the rule
// should trigger is evaluated and stored in RULE-TIME (indexed on the
// firing point).  DBCRON (see dbcron.h) probes RULE-TIME every T time
// units — exactly the structure of the paper's Figure 4.  RULE-TIME holds
// one row per active rule, also indexed on rule_id: a firing rewrites its
// rule's row in place.

#ifndef CALDB_RULES_TEMPORAL_RULES_H_
#define CALDB_RULES_TEMPORAL_RULES_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/calendar_catalog.h"
#include "db/database.h"

namespace caldb {

/// What a temporal rule does when it fires.  Either (or both) of:
///  - `command`: a query-language statement executed against the database.
///    The firing day is available two ways: the registered fire_day()
///    function, or a $1 placeholder bound to it at each firing (at most
///    $1 — higher placeholders are rejected at declaration).  The
///    condition query may use either form too.
///  - `callback`: a C++ function receiving the fire day.
struct TemporalAction {
  std::string command;
  std::function<Status(TimePoint fire_day)> callback;
};

/// A declared rule, as held in memory (RULE-INFO keeps the durable part).
/// Both halves of the rule are compiled at declaration time: the calendar
/// expression into its eval-plan, and the action command / condition
/// query into CompiledStatement handles — DBCRON firings never parse.
struct TemporalRule {
  int64_t id = 0;
  std::string name;
  std::string expression;            // calendar-expression text
  std::shared_ptr<const Plan> plan;  // compiled eval-plan
  TemporalAction action;
  /// action.command compiled once at DeclareRule/RestoreRule (null for
  /// callback-only actions).
  CompiledStatementPtr compiled_command;
  // Optional database Condition (the paper's §6b future work): a retrieve
  // statement evaluated at firing time; the action runs only when it
  // returns at least one row.  The next firing is scheduled either way.
  std::string condition_query;
  CompiledStatementPtr compiled_condition;  // null when no condition
};

class TemporalRuleManager {
 public:
  /// `catalog` and `db` must outlive the manager.  Creates the RULE-INFO
  /// and RULE-TIME tables in `db` (with B+tree indexes on the firing point
  /// and on rule_id; the rule_id index is added to a RULE-TIME table that
  /// lacks it) and registers the fire_day() function.
  ///
  /// `unit` is the granularity of rule time points: DAYS for the paper's
  /// examples, HOURS (or finer) for process-control rules.  All points
  /// passed to and returned from this manager — and the virtual clock
  /// driving its DBCRON — are granules of that unit.  `horizon` is in the
  /// same unit.
  static Result<std::unique_ptr<TemporalRuleManager>> Create(
      const CalendarCatalog* catalog, Database* db, TimePoint horizon = 20000,
      Granularity unit = Granularity::kDays);

  Granularity unit() const { return unit_; }

  /// Declares "On <expression> [where <condition>] do <action>".  Compiles
  /// the expression, inserts the RULE-INFO row, computes the first firing
  /// strictly after `now_day` and inserts the RULE-TIME row.
  /// `condition_query`, when nonempty, is a retrieve statement gating the
  /// action (it may call fire_day()).
  Result<int64_t> DeclareRule(const std::string& name,
                              const std::string& expression,
                              TemporalAction action, TimePoint now_day,
                              const std::string& condition_query = "");

  struct FireStats {
    int64_t fired = 0;
    int64_t suppressed_by_condition = 0;
  };
  const FireStats& fire_stats() const { return fire_stats_; }

  Status DropRule(const std::string& name);

  /// Recovery entry point (src/storage/): rebuilds one rule's in-memory
  /// state — compiles the expression, keeps the given id — WITHOUT writing
  /// RULE-INFO/RULE-TIME rows (those restore with the table snapshot).
  /// Bumps the id counter past `id`.
  Status RestoreRule(int64_t id, const std::string& name,
                     const std::string& expression, TemporalAction action,
                     const std::string& condition_query);

  /// The id the next DeclareRule will assign.  Snapshotted and restored
  /// (SetNextId) so ids stay stable across recovery.
  int64_t next_id() const { return next_id_; }
  void SetNextId(int64_t next_id) { next_id_ = std::max(next_id_, next_id); }

  std::vector<std::string> ListRules() const;

  /// Full definitions of every rule, ordered by id (the snapshot writer
  /// serializes them; callback actions are not serializable).
  std::vector<TemporalRule> ListRuleDefs() const;

  Result<TemporalRule> GetRule(int64_t id) const;
  Result<TemporalRule> GetRuleByName(const std::string& name) const;

  /// Rules with next-fire day in [lo, hi], as (fire_day, rule_id) —
  /// the probe query DBCRON issues against RULE-TIME (uses the index).
  Result<std::vector<std::pair<TimePoint, int64_t>>> DueBetween(
      TimePoint lo, TimePoint hi) const;

  /// What one firing did — filled for the caller (DBCRON) to turn into an
  /// audit record, whether the firing succeeded or not.
  struct FireOutcome {
    std::string rule_name;
    bool suppressed = false;  // condition evaluated false; action skipped
    Status status;            // condition/action/reschedule error, if any
    int64_t duration_ns = 0;  // condition + action + reschedule time
  };

  /// Executes the rule's action at `fire_day`, recomputes its next firing
  /// and updates RULE-TIME.  Returns the new next-fire day (nullopt when
  /// the rule went dormant past the horizon).  A failed condition or
  /// action, by error or by throw, does not stop the reschedule: the rule
  /// keeps its schedule and the failure is reported in `outcome->status`
  /// only.  The result is an error when the rule could not be rescheduled
  /// (unknown id, next firing or RULE-TIME failure); a rule whose next
  /// firing cannot be computed goes dormant.  `outcome`, when non-null, is
  /// filled on every path.
  Result<std::optional<TimePoint>> FireRule(int64_t id, TimePoint fire_day,
                                            FireOutcome* outcome = nullptr);

  const CalendarCatalog& catalog() const { return *catalog_; }
  TimePoint horizon_day() const { return horizon_day_; }

 private:
  TemporalRuleManager(const CalendarCatalog* catalog, Database* db,
                      TimePoint horizon_day, Granularity unit)
      : catalog_(catalog), db_(db), horizon_day_(horizon_day), unit_(unit) {}

  // Sets rule `id`'s RULE-TIME row to `next_fire` in place (inserting it
  // if missing); nullopt deletes it (the rule went dormant or was dropped).
  Status UpdateRuleTime(int64_t id, std::optional<TimePoint> next_fire);

  const CalendarCatalog* catalog_;
  Database* db_;
  TimePoint horizon_day_;
  Granularity unit_ = Granularity::kDays;
  int64_t next_id_ = 1;
  std::map<int64_t, TemporalRule> rules_;
  TimePoint current_fire_day_ = 1;  // exposed via fire_day()
  FireStats fire_stats_;
};

}  // namespace caldb

#endif  // CALDB_RULES_TEMPORAL_RULES_H_
