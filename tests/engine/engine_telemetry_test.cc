// End-to-end telemetry: one logical operation = one connected span tree
// across the pool boundary (ExecuteAsync) and on the DBCRON daemon thread
// (AdvanceTo), audit records for temporal and event rules with
// scheduled-vs-actual days and triggering statement/session, the
// slow-statement log, per-statement db metrics on the engine path, and
// the audit ring's bound under sustained firing.
//
// These tests read the process-global tracer / audit trail / logger, so
// each clears them first; gtest runs tests in one binary sequentially.

#include "caldb.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace caldb {
namespace {

std::vector<obs::SpanRecord> SpansNamed(
    const std::vector<obs::SpanRecord>& spans, const std::string& name) {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

TEST(EngineTelemetryTest, AsyncStatementStaysOneSpanTreeAcrossPool) {
  auto engine = Engine::Create().value();
  obs::Trace().Clear();

  uint64_t root_id = 0;
  uint32_t submit_tid = 0;
  {
    obs::Tracer::Span root = obs::Trace().StartSpan("test.submit");
    root_id = root.id();
    submit_tid = obs::CurrentThreadId();
    auto future = engine->ExecuteAsync("create table a (x int)");
    ASSERT_TRUE(future.get().ok());
  }

  std::vector<obs::SpanRecord> spans = obs::Trace().Snapshot();
  std::vector<obs::SpanRecord> executes = SpansNamed(spans, "engine.execute");
  ASSERT_EQ(executes.size(), 1u);
  // The worker-side span parents to the submitter's root: one tree, not
  // an orphan per thread.
  EXPECT_EQ(executes[0].parent_id, root_id);
  EXPECT_NE(executes[0].tid, submit_tid);
}

TEST(EngineTelemetryTest, PooledWorkersDoNotInheritStaleParents) {
  auto engine = Engine::Create().value();
  obs::Trace().Clear();
  // No span is open at submit time, so the worker must record a root
  // span — even though earlier pooled tasks traced on the same workers.
  auto future = engine->ExecuteAsync("create table b (x int)");
  ASSERT_TRUE(future.get().ok());
  std::vector<obs::SpanRecord> executes =
      SpansNamed(obs::Trace().Snapshot(), "engine.execute");
  ASSERT_EQ(executes.size(), 1u);
  EXPECT_EQ(executes[0].parent_id, 0u);
}

TEST(EngineTelemetryTest, DbcronFiringIsOneTreeWithAuditRecord) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table fires (day int)").ok());
  ASSERT_TRUE(session
                  ->Execute("declare rule daily on DAYS:during:WEEKS do "
                            "append fires (day = fire_day())")
                  .ok());
  obs::Trace().Clear();
  obs::Audit().Clear();

  ASSERT_TRUE(engine->AdvanceTo(5).ok());

  // Span tree: every cron.fire (and cron.probe) parents to a cron.advance
  // root on the daemon thread.
  std::vector<obs::SpanRecord> spans = obs::Trace().Snapshot();
  std::map<uint64_t, std::string> by_id;
  for (const obs::SpanRecord& s : spans) by_id[s.id] = s.name;
  std::vector<obs::SpanRecord> fires = SpansNamed(spans, "cron.fire");
  ASSERT_FALSE(fires.empty());
  for (const obs::SpanRecord& fire : fires) {
    ASSERT_NE(fire.parent_id, 0u);
    EXPECT_EQ(by_id[fire.parent_id], "cron.advance");
  }
  for (const obs::SpanRecord& probe : SpansNamed(spans, "cron.probe")) {
    EXPECT_EQ(by_id[probe.parent_id], "cron.advance");
  }

  // Audit: one dbcron record per firing, on time (fired == scheduled).
  std::vector<obs::AuditRecord> records = obs::Audit().Snapshot();
  ASSERT_FALSE(records.empty());
  int64_t fired_days = 0;
  for (const obs::AuditRecord& r : records) {
    EXPECT_EQ(r.source, obs::AuditRecord::Source::kDbCron);
    EXPECT_EQ(r.rule, "daily");
    EXPECT_EQ(r.outcome, obs::AuditRecord::Outcome::kOk);
    EXPECT_EQ(r.trigger, "dbcron");
    EXPECT_EQ(r.fired_day, r.scheduled_day);
    EXPECT_GE(r.duration_ns, 0);
    ++fired_days;
  }
  // Days 2..5 fire (first firing strictly after declaration day 1).
  EXPECT_EQ(fired_days, 4);
  // The trail agrees with the cron counters.
  EXPECT_EQ(static_cast<int64_t>(records.size()),
            engine->CronStats().fires);
}

TEST(EngineTelemetryTest, LateDeclaredRuleAuditsCatchUpLag) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table fires (day int)").ok());
  // Advance first: DBCRON has already probed the window [8, 14] when the
  // rule is declared on day 10, so its day-11 firing is only discovered
  // by the day-15 probe and fires late.
  ASSERT_TRUE(engine->AdvanceTo(10).ok());
  ASSERT_TRUE(session
                  ->Execute("declare rule late on DAYS:during:WEEKS do "
                            "append fires (day = fire_day())")
                  .ok());
  obs::Audit().Clear();
  ASSERT_TRUE(engine->AdvanceTo(16).ok());

  std::vector<obs::AuditRecord> records = obs::Audit().Snapshot();
  ASSERT_FALSE(records.empty());
  const obs::AuditRecord& first = records.front();
  EXPECT_EQ(first.scheduled_day, 11);
  EXPECT_GT(first.fired_day, first.scheduled_day);
  // The human rendering surfaces the lag.
  EXPECT_NE(first.ToString().find("late"), std::string::npos)
      << first.ToString();
}

TEST(EngineTelemetryTest, EventRuleAuditCarriesTriggeringStatement) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table alerts (day int)").ok());
  ASSERT_TRUE(session->Execute("create table audit_rows (day int)").ok());
  ASSERT_TRUE(session
                  ->Execute("define rule mirror on append to alerts do "
                            "append audit_rows (day = NEW.day)")
                  .ok());
  obs::Audit().Clear();
  const std::string trigger_stmt = "append alerts (day = 42)";
  ASSERT_TRUE(session->Execute(trigger_stmt).ok());

  std::vector<obs::AuditRecord> records = obs::Audit().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].source, obs::AuditRecord::Source::kStatement);
  EXPECT_EQ(records[0].rule, "mirror");
  EXPECT_EQ(records[0].outcome, obs::AuditRecord::Outcome::kOk);
  EXPECT_EQ(records[0].trigger, trigger_stmt);
  EXPECT_EQ(records[0].session_id, session->id());
}

TEST(EngineTelemetryTest, SlowStatementsAreLoggedWithText) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table slow (x int)").ok());
  obs::Log().Clear();
  const int64_t saved = Database::SlowStatementThresholdNs();
  Database::SetSlowStatementThresholdNs(1);  // everything is slow now
  const std::string stmt = "retrieve (s.x) from s in slow";
  ASSERT_TRUE(session->Execute(stmt).ok());
  Database::SetSlowStatementThresholdNs(saved);

  bool found = false;
  for (const obs::LogRecord& r : obs::Log().Snapshot()) {
    if (r.event != "db.slow_statement") continue;
    found = true;
    EXPECT_EQ(r.level, obs::LogLevel::kWarn);
    EXPECT_EQ(r.session_id, session->id());
    // Both the context statement and the logged stmt field carry the text.
    EXPECT_EQ(r.statement, stmt);
    EXPECT_NE(obs::RenderLogLine(r).find("retrieve (s.x)"),
              std::string::npos);
  }
  EXPECT_TRUE(found);
  EXPECT_GE(
      obs::Metrics().counter("caldb.db.slow_statements")->value(), 1);
}

TEST(EngineTelemetryTest, ZeroThresholdDisablesSlowStatementLog) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table quiet (x int)").ok());
  obs::Log().Clear();
  const int64_t saved = Database::SlowStatementThresholdNs();
  Database::SetSlowStatementThresholdNs(0);
  ASSERT_TRUE(session->Execute("retrieve (q.x) from q in quiet").ok());
  Database::SetSlowStatementThresholdNs(saved);
  for (const obs::LogRecord& r : obs::Log().Snapshot()) {
    EXPECT_NE(r.event, "db.slow_statement");
  }
}

TEST(EngineTelemetryTest, EngineStatementsRecordDbStatementMetrics) {
  // Text and prepared statements both reach Database::Run, which counts
  // each one in caldb.db.statements and times it in caldb.db.statement_ns;
  // recovery replays through the same body in replay mode, which
  // records neither.
  obs::Counter* statements = obs::Metrics().counter("caldb.db.statements");
  obs::Histogram* statement_ns =
      obs::Metrics().histogram("caldb.db.statement_ns");
  const std::string dir = ::testing::TempDir() + "caldb_telemetry_replay";
  std::filesystem::remove_all(dir);
  EngineOptions opts;
  opts.data_dir = dir;
  opts.fsync_policy = storage::FsyncPolicy::kOff;
  opts.checkpoint_on_stop = false;  // leave everything in the WAL
  constexpr int kN = 5;
  {
    auto engine = Engine::Create(opts).value();
    auto session = engine->CreateSession();
    ASSERT_TRUE(session->Execute("create table t (x int)").ok());
    auto insert = session->Prepare("append t (x = $1)");
    ASSERT_TRUE(insert.ok()) << insert.status().ToString();
    const int64_t statements_before = statements->value();
    const int64_t timed_before = statement_ns->count();
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(session->Execute("append t (x = " + std::to_string(i) + ")")
                      .ok());
      ASSERT_TRUE(insert->Execute({Value::Int(i)}).ok());
    }
    EXPECT_EQ(statements->value() - statements_before, 2 * kN);
    EXPECT_EQ(statement_ns->count() - timed_before, 2 * kN);
    ASSERT_TRUE(engine->Stop().ok());
  }
  const int64_t statements_before = statements->value();
  const int64_t timed_before = statement_ns->count();
  auto engine = Engine::Create(opts).value();
  EXPECT_EQ(engine->recovery_stats().wal_records_replayed, 1 + 2 * kN);
  EXPECT_EQ(engine->recovery_stats().replay_errors, 0);
  EXPECT_EQ(statements->value(), statements_before);
  EXPECT_EQ(statement_ns->count(), timed_before);
}

TEST(EngineTelemetryTest, StatementTimelineRecordsEachPhaseOnce) {
  // A statement reads the clock once per phase boundary (entry, lock
  // granted, DB done) and every instrument takes its stamps from those
  // reads: one engine.execute span with one db.execute child inside it,
  // one lock-wait sample and one statement-latency sample.  In memory
  // the statement ends where its DB run ends — the same stamp.
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table acct (id int, bal int)").ok());
  ASSERT_TRUE(session->Execute("create index on acct (id)").ok());
  ASSERT_TRUE(session->Execute("append acct (id = 1, bal = 10)").ok());
  obs::Histogram* wait_ns =
      obs::Metrics().histogram("caldb.engine.table_locks.wait_ns");
  obs::Histogram* statement_ns =
      obs::Metrics().histogram("caldb.db.statement_ns");
  const std::vector<std::pair<std::string, std::string>> statements = {
      {"retrieve (a.bal) from a in acct where a.id = 1", "table-read"},
      {"replace a in acct (bal = 11) where a.id = 1", "table-write"},
  };
  for (const auto& [stmt, lock] : statements) {
    SCOPED_TRACE(stmt);
    obs::Trace().Clear();
    const int64_t waits_before = wait_ns->count();
    const int64_t timed_before = statement_ns->count();
    ASSERT_TRUE(session->Execute(stmt).ok());
    std::vector<obs::SpanRecord> spans = obs::Trace().Snapshot();
    std::vector<obs::SpanRecord> executes = SpansNamed(spans, "engine.execute");
    std::vector<obs::SpanRecord> runs = SpansNamed(spans, "db.execute");
    ASSERT_EQ(executes.size(), 1u);
    ASSERT_EQ(runs.size(), 1u);
    const obs::SpanRecord& parent = executes[0];
    const obs::SpanRecord& child = runs[0];
    EXPECT_EQ(child.parent_id, parent.id);
    EXPECT_GE(child.start_ns, parent.start_ns);
    EXPECT_LE(child.end_ns, parent.end_ns);
    EXPECT_EQ(child.end_ns, parent.end_ns);
    ASSERT_EQ(parent.attrs.size(), 1u);
    EXPECT_EQ(parent.attrs[0].first, "lock");
    EXPECT_EQ(parent.attrs[0].second, lock);
    EXPECT_EQ(wait_ns->count() - waits_before, 1);
    EXPECT_EQ(statement_ns->count() - timed_before, 1);
  }

  // Observability off: no span, no timing sample.
  obs::SetEnabled(false);
  obs::Trace().Clear();
  const int64_t waits_before = wait_ns->count();
  const int64_t timed_before = statement_ns->count();
  for (const auto& [stmt, lock] : statements) {
    EXPECT_TRUE(session->Execute(stmt).ok()) << stmt;
  }
  obs::SetEnabled(true);
  EXPECT_TRUE(obs::Trace().Snapshot().empty());
  EXPECT_EQ(wait_ns->count(), waits_before);
  EXPECT_EQ(statement_ns->count(), timed_before);
}

TEST(EngineTelemetryTest, RuleActionTimesItsOwnRun) {
  // An event rule's action runs through Database::Run without the
  // statement's stamps: it reads its own pair and records its own
  // db.execute span (a child of the triggering statement's) and its own
  // statement_ns sample.
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table src (x int)").ok());
  ASSERT_TRUE(session->Execute("create table dst (x int)").ok());
  ASSERT_TRUE(session
                  ->Execute("define rule copy on append to src do "
                            "append dst (x = NEW.x)")
                  .ok());
  obs::Histogram* wait_ns =
      obs::Metrics().histogram("caldb.engine.table_locks.wait_ns");
  obs::Histogram* statement_ns =
      obs::Metrics().histogram("caldb.db.statement_ns");
  obs::Trace().Clear();
  const int64_t waits_before = wait_ns->count();
  const int64_t timed_before = statement_ns->count();
  ASSERT_TRUE(session->Execute("append src (x = 7)").ok());

  std::vector<obs::SpanRecord> spans = obs::Trace().Snapshot();
  std::vector<obs::SpanRecord> executes = SpansNamed(spans, "engine.execute");
  std::vector<obs::SpanRecord> runs = SpansNamed(spans, "db.execute");
  ASSERT_EQ(executes.size(), 1u);
  ASSERT_EQ(runs.size(), 2u);
  // Finish order: the action's run ends first, inside the statement's.
  const obs::SpanRecord& action = runs[0];
  const obs::SpanRecord& statement = runs[1];
  EXPECT_EQ(statement.parent_id, executes[0].id);
  EXPECT_EQ(action.parent_id, statement.id);
  EXPECT_GE(action.start_ns, statement.start_ns);
  EXPECT_LE(action.end_ns, statement.end_ns);
  EXPECT_EQ(wait_ns->count() - waits_before, 1);
  EXPECT_EQ(statement_ns->count() - timed_before, 2);
}

TEST(EngineTelemetryTest, AuditRingStaysBoundedUnderSustainedFiring) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (x int)").ok());
  ASSERT_TRUE(session
                  ->Execute("declare rule everyday on DAYS:during:WEEKS do "
                            "append t (x = fire_day())")
                  .ok());
  obs::Audit().Clear();
  const int64_t target =
      static_cast<int64_t>(obs::Audit().capacity()) + 100;
  ASSERT_TRUE(engine->AdvanceTo(target + 2).ok());

  // More firings than the ring holds: the ring stays at capacity, the
  // running total keeps counting, and the survivors are the most recent.
  EXPECT_GT(obs::Audit().total(),
            static_cast<int64_t>(obs::Audit().capacity()));
  std::vector<obs::AuditRecord> records = obs::Audit().Snapshot();
  ASSERT_EQ(records.size(), obs::Audit().capacity());
  EXPECT_GT(records.front().seq, 1);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, records[i - 1].seq + 1);
  }
  EXPECT_EQ(records.back().fired_day, target + 2);
}

}  // namespace
}  // namespace caldb
