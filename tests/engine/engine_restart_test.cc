// Restart semantics of a durable engine: state survives Stop(), missed
// temporal-rule firings happen exactly once after recovery (the paper's
// catch-up contract), and the audit trail shows the lag.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/session.h"
#include "obs/audit.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace caldb {
namespace {

std::string FreshDataDir(const char* name) {
  std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

EngineOptions DurableOptions(const std::string& data_dir) {
  EngineOptions opts;
  opts.epoch = CivilDate{1993, 1, 1};
  opts.pool_threads = 1;
  opts.data_dir = data_dir;
  opts.fsync_policy = storage::FsyncPolicy::kOff;  // tests: speed over safety
  return opts;
}

int64_t CountRows(Engine& engine, const std::string& query) {
  Result<QueryResult> r = engine.Execute(query);
  EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
  return r.ok() ? static_cast<int64_t>(r->rows.size()) : -1;
}

TEST(EngineRestart, CheckpointedStateComesBackExactly) {
  std::string dir = FreshDataDir("caldb_restart_state");
  {
    auto engine = Engine::Create(DurableOptions(dir));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_TRUE((*engine)->durable());
    ASSERT_TRUE((*engine)->Execute("create table LOG (day int)").ok());
    ASSERT_TRUE((*engine)->Execute("append LOG (day = 1)").ok());
    ASSERT_TRUE(
        (*engine)->DefineCalendar("Tuesdays", "[2]/DAYS:during:WEEKS").ok());
    TemporalAction action;
    action.command = "append LOG (day = fire_day())";
    ASSERT_TRUE(
        (*engine)->DeclareRule("weekly", "[2]/DAYS:during:WEEKS", action).ok());
    ASSERT_TRUE((*engine)->AdvanceTo(6).ok());  // fires Tue Jan 5 (day 5)
    EXPECT_EQ(CountRows(**engine, "retrieve (l.day) from l in LOG"), 2);
    ASSERT_TRUE((*engine)->Stop().ok());  // checkpoint_on_stop: snapshots
  }
  {
    auto engine = Engine::Create(DurableOptions(dir));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const Engine::RecoveryStats& stats = (*engine)->recovery_stats();
    EXPECT_TRUE(stats.snapshot_loaded);
    EXPECT_EQ(stats.wal_records_replayed, 0);  // everything in the snapshot
    EXPECT_EQ(stats.replay_errors, 0);
    EXPECT_EQ((*engine)->Now(), 6);
    EXPECT_EQ(CountRows(**engine, "retrieve (l.day) from l in LOG"), 2);
    EXPECT_TRUE((*engine)->catalog().Describe("Tuesdays").ok());
    // The rule survived and keeps firing from where it left off.
    ASSERT_TRUE((*engine)->AdvanceTo(13).ok());  // fires Tue Jan 12
    EXPECT_EQ(CountRows(**engine, "retrieve (l.day) from l in LOG"), 3);
  }
}

TEST(EngineRestart, WalReplayRebuildsStateWithoutASnapshot) {
  std::string dir = FreshDataDir("caldb_restart_replay");
  EngineOptions opts = DurableOptions(dir);
  opts.checkpoint_on_stop = false;  // leave everything in the WAL
  {
    auto engine = Engine::Create(opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->Execute("create table LOG (day int)").ok());
    TemporalAction action;
    action.command = "append LOG (day = fire_day())";
    ASSERT_TRUE(
        (*engine)->DeclareRule("weekly", "[2]/DAYS:during:WEEKS", action).ok());
    ASSERT_TRUE((*engine)->AdvanceTo(20).ok());  // fires days 5, 12, 19
    EXPECT_EQ(CountRows(**engine, "retrieve (l.day) from l in LOG"), 3);
    ASSERT_TRUE((*engine)->Stop().ok());
  }
  {
    auto engine = Engine::Create(opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const Engine::RecoveryStats& stats = (*engine)->recovery_stats();
    EXPECT_FALSE(stats.snapshot_loaded);
    // create + declare + advances all replay from the log.
    EXPECT_GE(stats.wal_records_replayed, 3);
    EXPECT_EQ(stats.replay_errors, 0);
    EXPECT_EQ((*engine)->Now(), 20);
    // Replaying the advances re-fired the same three rules — not six: the
    // firings themselves are never logged, so replay cannot double them.
    EXPECT_EQ(CountRows(**engine, "retrieve (l.day) from l in LOG"), 3);
  }
}

TEST(EngineRestart, WalReplayParsesEachDistinctShapeOnce) {
  std::string dir = FreshDataDir("caldb_restart_replay_cache");
  EngineOptions opts = DurableOptions(dir);
  opts.checkpoint_on_stop = false;  // leave everything in the WAL
  {
    auto engine = Engine::Create(opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->Execute("create table LOG (day int)").ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*engine)->Execute("append LOG (day = 7)").ok());
    }
    ASSERT_TRUE((*engine)->Stop().ok());
  }
  {
    auto engine = Engine::Create(opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ((*engine)->recovery_stats().wal_records_replayed, 21);
    EXPECT_EQ(CountRows(**engine, "retrieve (l.day) from l in LOG"), 20);
    // Replay went through the statement cache: two distinct shapes (the
    // create and the append) compiled once each; the 19 repeated appends
    // hit.  The retrieve above added the third miss.
    StatementCache::Stats stats = (*engine)->StatementCacheStats();
    EXPECT_EQ(stats.misses, 3);
    EXPECT_EQ(stats.hits, 19);
  }
}

TEST(EngineRestart, ParameterizedExecutionsReplayWithTheirBoundValues) {
  std::string dir = FreshDataDir("caldb_restart_params");
  EngineOptions opts = DurableOptions(dir);
  opts.checkpoint_on_stop = false;  // leave everything in the WAL
  std::string before_restart;
  {
    auto engine = Engine::Create(opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto session = (*engine)->CreateSession();
    ASSERT_TRUE(session->Execute("create table T (x int, s text)").ok());
    auto insert = session->Prepare("append T (x = $1, s = $2)");
    ASSERT_TRUE(insert.ok()) << insert.status().ToString();
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(insert
                      ->Execute({Value::Int(i),
                                 Value::Text("row " + std::to_string(i))})
                      .ok());
    }
    // A null bind round-trips through the codec too.
    auto odd = session->Prepare("append T (x = $1, s = $2)");
    ASSERT_TRUE(odd.ok());
    ASSERT_TRUE(odd->Execute({Value::Int(100), Value::Null()}).ok());
    Result<QueryResult> rows = (*engine)->Execute(
        "retrieve (t.x, t.s) from t in T order by x");
    ASSERT_TRUE(rows.ok());
    before_restart = rows->ToString();
    ASSERT_TRUE((*engine)->Stop().ok());
  }
  {
    auto engine = Engine::Create(opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const Engine::RecoveryStats& stats = (*engine)->recovery_stats();
    EXPECT_FALSE(stats.snapshot_loaded);
    EXPECT_EQ(stats.replay_errors, 0);
    // create + 13 parameterized appends, all from the log.
    EXPECT_EQ(stats.wal_records_replayed, 14);
    // Byte-identical table contents: every bound value came back through
    // the kParamStatement records' encoded lists.
    Result<QueryResult> rows = (*engine)->Execute(
        "retrieve (t.x, t.s) from t in T order by x");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->ToString(), before_restart);
    // One compiled shape served all 13 appends on replay.
    StatementCache::Stats cache = (*engine)->StatementCacheStats();
    EXPECT_EQ(cache.misses, 3);  // create, append shape, the retrieve above
    EXPECT_EQ(cache.hits, 12);
  }
}

TEST(EngineRestart, LiftedLiteralWritesReplayAsParamStatements) {
  // Literal DML through Execute runs as a lifted shape plus its literals,
  // so each write is logged as one kParamStatement record and replay binds
  // the decoded literals to the shape: floats, negatives and quoted
  // strings (holding digits, '$' and the other quote) come back exactly.
  std::string dir = FreshDataDir("caldb_restart_lifted");
  EngineOptions opts = DurableOptions(dir);
  opts.checkpoint_on_stop = false;  // leave everything in the WAL
  const std::string all_rows =
      "retrieve (t.id, t.f, t.s) from t in T order by id";
  const std::vector<std::string> writes = {
      "append T (id = 1, f = 2.75, s = 'plain')",
      "append T (id = -7, f = -0.1, s = \"it's $1 and 42\")",
      "append T (id = 3, f = 1.25, s = 'say \"hi\"')",
      "append T (id = 4, f = 0.3, s = '')",
      "replace t in T (f = 9.125, s = '  two  spaces ') where t.id = -7",
      "delete t in T where t.id = 3",
      "replace t in T (f = t.f * 3.0) where t.id = 4",
  };
  QueryResult before_restart;
  {
    auto engine = Engine::Create(opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto session = (*engine)->CreateSession();
    ASSERT_TRUE(session->Execute("create table T (id int, f float, s text)")
                    .ok());
    ASSERT_TRUE(session->Execute("create index on T (id)").ok());
    for (const std::string& write : writes) {
      Result<QueryResult> r = session->Execute(write);
      ASSERT_TRUE(r.ok()) << write << ": " << r.status().ToString();
      EXPECT_EQ(r->affected, 1) << write;
    }
    Result<QueryResult> rows = session->Execute(all_rows);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->rows.size(), 3u);
    before_restart = *rows;
    ASSERT_TRUE((*engine)->Stop().ok());
  }
  // The log holds each write's shape, not its literal text.
  Result<storage::WalReadResult> wal = storage::ReadWal(dir + "/wal");
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  std::vector<std::string> shapes;
  for (const storage::WalRecord& record : wal->records) {
    if (record.type == storage::WalRecordType::kParamStatement) {
      shapes.push_back(record.a);
    }
  }
  ASSERT_EQ(shapes.size(), writes.size());
  EXPECT_EQ(shapes[0], "append T (id = $1, f = $2, s = $3)");
  EXPECT_EQ(shapes[4],
            "replace t in T (f = $1, s = $2) where t.id = -7");
  EXPECT_EQ(shapes[5], "delete t in T where t.id = $1");
  {
    auto engine = Engine::Create(opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const Engine::RecoveryStats& stats = (*engine)->recovery_stats();
    EXPECT_FALSE(stats.snapshot_loaded);
    EXPECT_EQ(stats.replay_errors, 0);
    EXPECT_EQ(stats.wal_records_replayed,
              2 + static_cast<int64_t>(writes.size()));
    Result<QueryResult> rows = (*engine)->Execute(all_rows);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->ToString(), before_restart.ToString());
    ASSERT_EQ(rows->rows.size(), before_restart.rows.size());
    for (size_t i = 0; i < rows->rows.size(); ++i) {
      EXPECT_EQ(rows->rows[i][0].AsInt().value(),
                before_restart.rows[i][0].AsInt().value());
      // Bit-exact floats, not just their rendering.
      EXPECT_EQ(rows->rows[i][1].AsFloat().value(),
                before_restart.rows[i][1].AsFloat().value());
      EXPECT_EQ(rows->rows[i][2].AsText().value(),
                before_restart.rows[i][2].AsText().value());
    }
  }
}

TEST(EngineRestart, RejectedBindsWriteNothingToTheWal) {
  // The bind step runs before any lock or WAL append: an execution with
  // the wrong arity or type fails without leaving a redo record, so
  // recovery replays exactly the executions that ran.
  std::string dir = FreshDataDir("caldb_restart_rejected_binds");
  EngineOptions opts = DurableOptions(dir);
  opts.checkpoint_on_stop = false;  // leave everything in the WAL
  {
    auto engine = Engine::Create(opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto session = (*engine)->CreateSession();
    ASSERT_TRUE(session->Execute("create table T (x int)").ok());
    auto insert = session->Prepare("append T (x = $1 + 0)");
    ASSERT_TRUE(insert.ok()) << insert.status().ToString();
    ASSERT_EQ(insert->signature(), "($1:int)");
    ASSERT_TRUE(insert->Execute({Value::Int(1)}).ok());
    for (const ParamList& bad :
         {ParamList{}, ParamList{Value::Int(2), Value::Int(3)},
          ParamList{Value::Text("two")}}) {
      Result<QueryResult> r = insert->Execute(bad);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << r.status().ToString();
    }
    ASSERT_TRUE(insert->Execute({Value::Int(4)}).ok());
    ASSERT_TRUE((*engine)->Stop().ok());
  }
  {
    auto engine = Engine::Create(opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const Engine::RecoveryStats& stats = (*engine)->recovery_stats();
    EXPECT_FALSE(stats.snapshot_loaded);
    EXPECT_EQ(stats.wal_records_replayed, 3);  // create + two appends
    EXPECT_EQ(stats.replay_errors, 0);
    EXPECT_EQ(CountRows(**engine, "retrieve (t.x) from t in T"), 2);
  }
}

TEST(EngineRestart, MissedFiringsHappenExactlyOnceAndAuditShowsTheLag) {
  std::string dir = FreshDataDir("caldb_restart_missed");
  {
    auto engine = Engine::Create(DurableOptions(dir));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->Execute("create table LOG (day int)").ok());
    TemporalAction action;
    action.command = "append LOG (day = fire_day())";
    ASSERT_TRUE(
        (*engine)->DeclareRule("weekly", "[2]/DAYS:during:WEEKS", action).ok());
    ASSERT_TRUE((*engine)->AdvanceTo(6).ok());  // fired day 5 before "crash"
    ASSERT_TRUE((*engine)->Stop().ok());
  }

  // While the engine was down, days 12 and 19 (Tuesdays) went by: restart
  // with a later start_day, as a process coming back after an outage would.
  obs::Audit().Clear();
  EngineOptions late = DurableOptions(dir);
  late.start_day = 21;
  auto engine = Engine::Create(late);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->Now(), 21);
  // Recovery itself does not fire rules; the next advance catches up.
  ASSERT_TRUE((*engine)->AdvanceTo(22).ok());

  Result<QueryResult> rows =
      (*engine)->Execute("retrieve (l.day) from l in LOG");
  ASSERT_TRUE(rows.ok());
  std::vector<int64_t> days;
  for (const Row& row : rows->rows) days.push_back(row[0].AsInt().value());
  // Day 5 from before the restart; 12 and 19 fired late, exactly once.
  EXPECT_EQ(days, (std::vector<int64_t>{5, 12, 19}));

  // The audit trail records the catch-up lag: scheduled day 12/19, fired
  // on day 21 or later ("late N" = fired_day - scheduled_day).
  std::vector<obs::AuditRecord> audit = obs::Audit().Snapshot();
  int late_firings = 0;
  for (const obs::AuditRecord& record : audit) {
    if (record.rule != "weekly") continue;
    if (record.scheduled_day == 12 || record.scheduled_day == 19) {
      ++late_firings;
      EXPECT_GE(record.fired_day, 21);
      EXPECT_GT(record.fired_day - record.scheduled_day, 0);
      EXPECT_EQ(record.outcome, obs::AuditRecord::Outcome::kOk);
    }
  }
  EXPECT_EQ(late_firings, 2);

  // A second restart replays nothing twice: the log still shows exactly
  // three firings.
  ASSERT_TRUE((*engine)->Stop().ok());
  engine->reset();
  auto again = Engine::Create(late);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(CountRows(**again, "retrieve (l.day) from l in LOG"), 3);
}

// A snapshot written before RULE-TIME carried its rule_id index lists only
// next_fire among RULE_TIME's indexed columns.  Recovery adds the missing
// index, and the missed firings still happen exactly once.
TEST(EngineRestart, SnapshotWithoutRuleIdIndexRecovers) {
  std::string dir = FreshDataDir("caldb_restart_old_rule_time");
  {
    auto engine = Engine::Create(DurableOptions(dir));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->Execute("create table LOG (day int)").ok());
    TemporalAction action;
    action.command = "append LOG (day = fire_day())";
    ASSERT_TRUE(
        (*engine)->DeclareRule("weekly", "[2]/DAYS:during:WEEKS", action).ok());
    ASSERT_TRUE((*engine)->AdvanceTo(6).ok());  // fires day 5
    ASSERT_TRUE((*engine)->Stop().ok());        // snapshots
  }
  // Rewrite the snapshot in the older layout.
  const std::string path = dir + "/snapshot";
  Result<storage::SnapshotReadResult> read = storage::ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok() && read->found);
  bool rewrote = false;
  for (auto& table : read->image.tables) {
    if (table.name != "RULE_TIME") continue;
    EXPECT_EQ(table.indexed_columns.size(), 2u);
    table.indexed_columns = {"next_fire"};
    rewrote = true;
  }
  ASSERT_TRUE(rewrote);
  ASSERT_TRUE(storage::WriteSnapshotFile(path, read->image).ok());

  EngineOptions late = DurableOptions(dir);
  late.start_day = 21;  // days 12 and 19 were missed
  auto engine = Engine::Create(late);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->WithDbRead([](const Database& db) {
    return db.GetTable("RULE_TIME").value()->HasIndex("rule_id");
  }));
  ASSERT_TRUE((*engine)->AdvanceTo(22).ok());
  Result<QueryResult> rows =
      (*engine)->Execute("retrieve (l.day) from l in LOG");
  ASSERT_TRUE(rows.ok());
  std::vector<int64_t> days;
  for (const Row& row : rows->rows) days.push_back(row[0].AsInt().value());
  EXPECT_EQ(days, (std::vector<int64_t>{5, 12, 19}));
  // One RULE-TIME row, found through the added index: next Tuesday, 26.
  std::vector<int64_t> next_fires = (*engine)->WithDbRead(
      [](const Database& db) {
        std::vector<int64_t> out;
        const Table* table = db.GetTable("RULE_TIME").value();
        EXPECT_EQ(table->size(), 1);
        EXPECT_TRUE(table
                        ->IndexScan("rule_id", 1, 1,
                                    [&](RowId, const Row& row) {
                                      out.push_back(row[1].AsInt().value());
                                      return true;
                                    })
                        .ok());
        return out;
      });
  EXPECT_EQ(next_fires, (std::vector<int64_t>{26}));
}

TEST(EngineRestart, ManualCheckpointTruncatesTheWal) {
  std::string dir = FreshDataDir("caldb_restart_checkpoint");
  auto engine = Engine::Create(DurableOptions(dir));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->Execute("create table T (x int)").ok());
  ASSERT_TRUE((*engine)->Execute("append T (x = 1)").ok());
  ASSERT_TRUE((*engine)->Checkpoint().ok());
  EXPECT_GT(std::filesystem::file_size(dir + "/snapshot"), 0u);
  EXPECT_EQ(std::filesystem::file_size(dir + "/wal"), 0u);

  // Post-checkpoint statements land in the (fresh) WAL.
  ASSERT_TRUE((*engine)->Execute("append T (x = 2)").ok());
  EXPECT_GT(std::filesystem::file_size(dir + "/wal"), 0u);
}

// A calendar name must be one identifier: "pay day" would be written to
// the checkpoint as a header line the restore cannot split, so it is
// refused at define time, and the engine's checkpoint reopens.
TEST(EngineRestart, UnreferenceableCalendarNamesAreRefusedAndCheckpointsReopen) {
  std::string dir = FreshDataDir("caldb_restart_names");
  {
    auto engine = Engine::Create(DurableOptions(dir));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto session = (*engine)->CreateSession();
    for (const char* bad : {"pay day", "if", "x(y)", ""}) {
      EXPECT_EQ(session->DefineCalendar(bad, "[1]/DAYS:during:MONTHS").code(),
                StatusCode::kInvalidArgument)
          << bad;
    }
    ASSERT_TRUE(session
                    ->DefineCalendar("PAY-DAY", "[1]/DAYS:during:MONTHS",
                                     Interval{1, 60})
                    .ok());
    ASSERT_TRUE((*engine)->Checkpoint().ok());
    ASSERT_TRUE((*engine)->Stop().ok());
  }
  auto engine = Engine::Create(DurableOptions(dir));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->recovery_stats().snapshot_loaded);
  EXPECT_EQ((*engine)->catalog().ListCalendars(),
            std::vector<std::string>{"PAY-DAY"});
  auto session = (*engine)->CreateSession();
  session->SetWindow(Interval{1, 365});
  Result<Calendar> pay_days = session->EvalCalendar("PAY-DAY");
  ASSERT_TRUE(pay_days.ok()) << pay_days.status().ToString();
  // The first days of the months that start inside the lifespan.
  EXPECT_EQ(pay_days->ToString(), "{(1,1),(32,32),(60,60)}");
}

TEST(EngineRestart, InMemoryEngineRejectsCheckpoint) {
  auto engine = Engine::Create(EngineOptions{});
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE((*engine)->durable());
  EXPECT_FALSE((*engine)->Checkpoint().ok());
}

}  // namespace
}  // namespace caldb
