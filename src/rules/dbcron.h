// DBCRON (§4, Figure 4): the daemon that triggers temporal rules.
//
//   "RULE-TIME is probed by a daemon process, DBCRON, every T units of
//    time to determine the temporal rules that trigger in the next T time
//    units.  DBCRON creates a main memory data structure that stores this
//    information and is responsible for triggering rules at appropriate
//    time points.  It is modeled on the UNIX utility, CRON."
//
// The reproduction drives DBCRON from a virtual clock: AdvanceTo(day)
// plays time forward, probing RULE-TIME every `probe_period` days (via
// the B+tree index on next_fire) and firing due rules in time order from
// an ordered set of pending firings.
//
// Direct construction is deprecated for concurrent use: DbCron itself is
// single-threaded, and running it next to live sessions needs the
// serialization caldb::Engine provides (engine/engine.h) — the Engine
// owns a DbCron, runs it on a background thread, and fires rules under
// the exclusive database lock.  Construct one directly only in
// single-threaded library code and tests (Engine::AdvanceTo is the
// server-side entry point).

#ifndef CALDB_RULES_DBCRON_H_
#define CALDB_RULES_DBCRON_H_

#include <set>
#include <utility>

#include "rules/clock.h"
#include "rules/temporal_rules.h"

namespace caldb {

class DbCron {
 public:
  /// `rules` and `clock` must outlive the daemon.  `probe_period_days` is
  /// the paper's T.
  DbCron(TemporalRuleManager* rules, VirtualClock* clock,
         int64_t probe_period_days = 7);

  /// Plays virtual time forward to `day` inclusive, probing and firing as
  /// time passes.  Rules becoming due are fired in (fire_day, rule_id)
  /// order; a rule declared mid-window is picked up at the next probe.
  /// A failed firing is audited as an error and rescheduled like any
  /// other, and the advance goes on; the result is the first error among
  /// this advance's firings, so one failure never outlives its advance.
  Status AdvanceTo(TimePoint day);

  /// Convenience: advance by `days`.
  Status Advance(int64_t days) {
    return AdvanceTo(PointAdd(clock_->NowDay(), days));
  }

  int64_t probe_period_days() const { return probe_period_days_; }

  struct CronStats {
    int64_t probes = 0;
    int64_t fires = 0;
    int64_t max_heap_size = 0;
  };
  const CronStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CronStats{}; }

 private:
  // Probes RULE-TIME for rules due in [now, now + T) and loads them into
  // the pending set.
  Status Probe(TimePoint now);

  // Adds a firing to pending_ (a no-op when already there) and updates
  // max_heap_size and the caldb.cron.heap_depth gauge.
  void Schedule(TimePoint fire_day, int64_t rule_id);

  using HeapEntry = std::pair<TimePoint, int64_t>;  // (fire_day, rule_id)

  TemporalRuleManager* rules_;
  VirtualClock* clock_;
  int64_t probe_period_days_;
  TimePoint next_probe_day_;
  // The paper's main-memory structure: firings due before the next probe,
  // in (fire_day, rule_id) order.  A set, so that a firing loaded twice
  // (by a probe and by a rescheduling inside the probed window) is held
  // once.
  std::set<HeapEntry> pending_;
  CronStats stats_;
};

}  // namespace caldb

#endif  // CALDB_RULES_DBCRON_H_
