#include "rules/dbcron.h"

#include <algorithm>
#include <set>

#include "common/macros.h"
#include "obs/obs.h"

namespace caldb {

namespace {

struct CronMetrics {
  obs::Counter* probes = obs::Metrics().counter("caldb.cron.probes");
  obs::Counter* fires = obs::Metrics().counter("caldb.cron.fires");
  obs::Gauge* heap_depth = obs::Metrics().gauge("caldb.cron.heap_depth");
  obs::Histogram* probe_ns = obs::Metrics().histogram("caldb.cron.probe_ns");
};

CronMetrics& Metrics() {
  static CronMetrics* m = new CronMetrics();
  return *m;
}

}  // namespace

DbCron::DbCron(TemporalRuleManager* rules, VirtualClock* clock,
               int64_t probe_period_days)
    : rules_(rules),
      clock_(clock),
      probe_period_days_(std::max<int64_t>(1, probe_period_days)),
      next_probe_day_(clock->NowDay()) {}

Status DbCron::Probe(TimePoint now) {
  ++stats_.probes;
  Metrics().probes->Increment();
  obs::ScopedLatency latency(Metrics().probe_ns);
  obs::Tracer::Span span = obs::StartSpan("cron.probe");
  const TimePoint window_end = PointAdd(now, probe_period_days_ - 1);
  // Scan from the beginning of time, not from `now`: a rule declared after
  // the previous probe may have its first firing inside the already-probed
  // window.  Such overdue entries fire late, with their original firing
  // day, like cron catching up.  RULE-TIME normally holds only future
  // points, so this costs nothing extra on the index.
  CALDB_ASSIGN_OR_RETURN(auto due,
                         rules_->DueBetween(INT64_MIN + 1, window_end));
  // pending_ may already hold entries for this window (e.g. a rule fired
  // earlier in the window and its next firing landed inside it again);
  // the set keeps one of each.
  for (const auto& [fire_day, rule_id] : due) Schedule(fire_day, rule_id);
  return Status::OK();
}

void DbCron::Schedule(TimePoint fire_day, int64_t rule_id) {
  pending_.emplace(fire_day, rule_id);
  stats_.max_heap_size = std::max<int64_t>(
      stats_.max_heap_size, static_cast<int64_t>(pending_.size()));
  Metrics().heap_depth->Set(static_cast<int64_t>(pending_.size()));
}

Status DbCron::AdvanceTo(TimePoint day) {
  TimePoint now = clock_->NowDay();
  if (day < now) return Status::OK();
  Status first_error;  // of this advance's firings
  while (true) {
    // Next event: the earliest of (scheduled probe, earliest pending firing).
    TimePoint next_event = next_probe_day_;
    bool is_fire = false;
    if (!pending_.empty() && pending_.begin()->first <= next_event) {
      next_event = pending_.begin()->first;
      is_fire = true;
    }
    if (next_event > day) break;

    clock_->AdvanceTo(next_event);
    now = next_event;

    if (is_fire) {
      const HeapEntry entry = *pending_.begin();
      pending_.erase(pending_.begin());
      Metrics().heap_depth->Set(static_cast<int64_t>(pending_.size()));
      ++stats_.fires;
      Metrics().fires->Increment();
      // The clock clamps backwards moves, so for an overdue entry (rule
      // declared after its window was probed) NowDay() exceeds the
      // scheduled day — the catch-up lag the audit trail surfaces.
      const TimePoint clock_day = clock_->NowDay();
      TemporalRuleManager::FireOutcome fired;
      Result<std::optional<TimePoint>> next = [&] {
        obs::Tracer::Span span = obs::StartSpan("cron.fire");
        span.AddAttr("rule_id", entry.second);
        span.AddAttr("scheduled_day", entry.first);
        span.AddAttr("fired_day", clock_day);
        Result<std::optional<TimePoint>> r =
            rules_->FireRule(entry.second, entry.first, &fired);
        if (!fired.rule_name.empty()) span.AddAttr("rule", fired.rule_name);
        return r;
      }();
      // A dropped rule may still sit in pending_ (FireRule -> NotFound
      // before the name lookup filled `fired.rule_name`): nothing was
      // actually fired, so no audit record either.
      if (!fired.rule_name.empty()) {
        obs::AuditRecord record;
        record.source = obs::AuditRecord::Source::kDbCron;
        record.rule = fired.rule_name;
        record.rule_id = entry.second;
        record.scheduled_day = entry.first;
        record.fired_day = clock_day;
        record.duration_ns = fired.duration_ns;
        record.trigger = "dbcron";
        if (!fired.status.ok()) {
          record.outcome = obs::AuditRecord::Outcome::kError;
          record.error = fired.status.ToString();
          if (first_error.ok()) first_error = fired.status;
        } else if (fired.suppressed) {
          record.outcome = obs::AuditRecord::Outcome::kSuppressed;
        }
        obs::Audit().Record(std::move(record));
      }
      // A failed firing still ran to its reschedule (FireRule), so the
      // day's other firings run too; the advance reports the first error.
      // If the rule's next firing lands inside the already probed window,
      // schedule it directly (RULE-TIME was updated, but this window's
      // probe has passed).
      if (next.ok() && next->has_value() && **next < next_probe_day_) {
        Schedule(**next, entry.second);
      }
    } else {
      CALDB_RETURN_IF_ERROR(Probe(now));
      next_probe_day_ = PointAdd(now, probe_period_days_);
    }
  }
  clock_->AdvanceTo(day);
  return first_error;
}

}  // namespace caldb
