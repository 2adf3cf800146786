#include "engine/engine.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <variant>

#include "catalog/calendar_functions.h"
#include "catalog/catalog_io.h"
#include "common/macros.h"
#include "common/strings.h"
#include "engine/session.h"
#include "obs/obs.h"
#include "storage/snapshot.h"

namespace caldb {

namespace {

struct EngineMetrics {
  obs::Gauge* active_sessions =
      obs::Metrics().gauge("caldb.engine.active_sessions");
  obs::Gauge* active_sessions_max =
      obs::Metrics().gauge("caldb.engine.active_sessions_max");
  obs::Counter* statements = obs::Metrics().counter("caldb.engine.statements");
  obs::Counter* cron_advances =
      obs::Metrics().counter("caldb.engine.cron.advances");
  obs::Counter* recovery_runs = obs::Metrics().counter("caldb.recovery.runs");
  obs::Counter* recovery_snapshots =
      obs::Metrics().counter("caldb.recovery.snapshot_loads");
  obs::Counter* recovery_replayed =
      obs::Metrics().counter("caldb.recovery.replayed_records");
  obs::Counter* recovery_replay_errors =
      obs::Metrics().counter("caldb.recovery.replay_errors");
  obs::Counter* recovery_torn_tails =
      obs::Metrics().counter("caldb.recovery.torn_tails");
  obs::Histogram* recovery_ns =
      obs::Metrics().histogram("caldb.recovery.ns");
  obs::Counter* checkpoints =
      obs::Metrics().counter("caldb.storage.checkpoints");
  obs::Histogram* checkpoint_ns =
      obs::Metrics().histogram("caldb.storage.checkpoint_ns");
};

EngineMetrics& Metrics() {
  static EngineMetrics* m = new EngineMetrics();
  return *m;
}

// Whether executing `compiled` can modify database state, from the
// precomputed write classification.  The one dynamic bit: a plain
// retrieve is a read unless retrieve-event rules are armed at execution
// time (a §4 event rule's action may write) — an atomic flag read, so
// the hot path never re-inspects (let alone re-parses) the statement.
bool StatementWrites(const CompiledStatement& compiled, const Database& db) {
  switch (compiled.write_class) {
    case CompiledStatement::WriteClass::kRead:
      return false;
    case CompiledStatement::WriteClass::kWrite:
      return true;
    case CompiledStatement::WriteClass::kReadUnlessRetrieveRules:
      return db.HasRetrieveRules();
  }
  return true;
}

// Lifespan round-trip for kDefineCalendar records ("" = none, else
// "lo,hi" — the catalog_io.h convention).
std::string FormatLifespan(const std::optional<Interval>& lifespan) {
  if (!lifespan.has_value()) return "";
  return std::to_string(lifespan->lo) + "," + std::to_string(lifespan->hi);
}

Result<std::optional<Interval>> ParseLifespanField(std::string_view text) {
  if (text.empty()) return std::optional<Interval>(std::nullopt);
  std::vector<std::string_view> parts = StrSplit(text, ',');
  if (parts.size() != 2) {
    return Status::ParseError("bad lifespan field '" + std::string(text) + "'");
  }
  CALDB_ASSIGN_OR_RETURN(int64_t lo, ParseInt64(parts[0]));
  CALDB_ASSIGN_OR_RETURN(int64_t hi, ParseInt64(parts[1]));
  CALDB_ASSIGN_OR_RETURN(Interval interval, MakeInterval(lo, hi));
  return std::optional<Interval>(interval);
}

// Whether a lifted shape takes its literals exactly as the parser would
// read them in place: one slot per literal, and no slot typed by a
// constant across an operator (`$1 * -3`, `-($1)`, `$1 = true`), where a
// literal of another type would fail the bind check instead of
// evaluating as written.  Any other slot binds any value, so the bind
// step cannot reject the literals.
bool TakesLiteralsAsWritten(const CompiledStatement& shape,
                            const ParamList& literals) {
  return static_cast<size_t>(shape.param_count) == literals.size() &&
         std::all_of(shape.param_types.begin(), shape.param_types.end(),
                     [](ValueType t) { return t == ValueType::kNull; });
}

}  // namespace

Engine::Engine(EngineOptions opts)
    : opts_(opts),
      catalog_(TimeSystem{opts.epoch}),
      stmt_cache_(opts.stmt_cache_entries),
      clock_(opts.start_day),
      cron_target_(opts.start_day),
      cron_reached_(opts.start_day) {}

Result<std::unique_ptr<Engine>> Engine::Create(EngineOptions opts) {
  opts.pool_threads = std::max(1, opts.pool_threads);
  auto engine = std::unique_ptr<Engine>(new Engine(opts));
  CALDB_RETURN_IF_ERROR(engine->Init());
  return engine;
}

Status Engine::Init() {
  CALDB_RETURN_IF_ERROR(RegisterCalendarFunctions(&db_, &catalog_));
  if (!opts_.data_dir.empty()) {
    // Durable start: snapshot restore + WAL replay build rules_/cron_ and
    // open the writer.  No lock needed — no other thread exists yet.
    CALDB_RETURN_IF_ERROR(Recover());
  } else {
    CALDB_ASSIGN_OR_RETURN(
        rules_, TemporalRuleManager::Create(&catalog_, &db_, opts_.rule_horizon,
                                            opts_.rule_unit));
    cron_ = std::make_unique<DbCron>(rules_.get(), &clock_, opts_.probe_period);
  }
  pool_ = std::make_unique<ThreadPool>(opts_.pool_threads);
  if (opts_.slow_statement_ns >= 0) {
    Database::SetSlowStatementThresholdNs(opts_.slow_statement_ns);
  }
  std::string snapshot_path = opts_.metrics_snapshot_path;
  int snapshot_interval_ms = opts_.metrics_snapshot_interval_ms;
  if (snapshot_path.empty()) {
    const char* env_path = std::getenv("CALDB_METRICS_FILE");
    if (env_path != nullptr && *env_path != '\0') {
      snapshot_path = env_path;
      const char* env_ms = std::getenv("CALDB_METRICS_INTERVAL_MS");
      if (env_ms != nullptr && *env_ms != '\0') {
        snapshot_interval_ms = std::atoi(env_ms);
      }
    }
  }
  if (!snapshot_path.empty()) {
    obs::SnapshotterOptions snap_opts;
    snap_opts.path = snapshot_path;
    snap_opts.interval_ms = snapshot_interval_ms;
    snapshotter_ = std::make_unique<obs::MetricsSnapshotter>(snap_opts);
    CALDB_RETURN_IF_ERROR(snapshotter_->Start());
    obs::LogEvent(obs::LogLevel::kInfo, "engine.snapshotter",
                  {{"path", snapshot_path},
                   {"interval_ms", snapshot_interval_ms}});
  }
  cron_thread_ = std::thread([this] { CronLoop(); });
  return Status::OK();
}

Engine::~Engine() {
  // Flip the liveness token before any teardown: a PreparedStatement
  // executed from here on fails with a clean Status instead of touching a
  // dying engine (engine/session.h).
  alive_->store(false, std::memory_order_release);
  Stop();
  // Stop() is idempotent and only checkpoints on its first call; post-Stop
  // single-threaded statements still append, so push their tail to disk.
  if (wal_ != nullptr) (void)wal_->Sync();
}

std::string Engine::SnapshotPath() const {
  return opts_.data_dir + "/snapshot";
}

std::string Engine::WalPath() const { return opts_.data_dir + "/wal"; }

Status Engine::Recover() {
  const int64_t start_ns = obs::NowNs();
  Metrics().recovery_runs->Increment();
  std::error_code ec;
  std::filesystem::create_directories(opts_.data_dir, ec);
  if (ec) {
    return Status::Internal("cannot create data dir '" + opts_.data_dir +
                            "': " + ec.message());
  }

  // 1. Latest valid snapshot: catalog, tables, clock.
  CALDB_ASSIGN_OR_RETURN(storage::SnapshotReadResult snapshot,
                         storage::ReadSnapshotFile(SnapshotPath()));
  uint64_t snapshot_lsn = 0;
  if (snapshot.found) {
    const storage::SnapshotImage& image = snapshot.image;
    if (!(image.epoch == opts_.epoch)) {
      return Status::InvalidArgument(
          "snapshot epoch " + FormatCivil(image.epoch) +
          " does not match engine epoch " + FormatCivil(opts_.epoch));
    }
    CALDB_RETURN_IF_ERROR(RestoreCatalog(image.catalog_dump, &catalog_));
    CALDB_RETURN_IF_ERROR(storage::RestoreTables(image, &db_));
    clock_.AdvanceTo(image.clock_day);  // clamps: start_day may be later
    snapshot_lsn = image.last_lsn;
    recovery_stats_.snapshot_loaded = true;
    Metrics().recovery_snapshots->Increment();
  }

  // 2. Rule machinery on top of the restored tables (Create skips the
  //    RULE-INFO/RULE-TIME tables when the snapshot already brought them).
  CALDB_ASSIGN_OR_RETURN(
      rules_, TemporalRuleManager::Create(&catalog_, &db_, opts_.rule_horizon,
                                          opts_.rule_unit));
  if (snapshot.found) {
    for (const auto& rule : snapshot.image.temporal_rules) {
      TemporalAction action;
      action.command = rule.command;
      CALDB_RETURN_IF_ERROR(rules_->RestoreRule(rule.id, rule.name,
                                                rule.expression,
                                                std::move(action),
                                                rule.condition_query));
    }
    rules_->SetNextId(snapshot.image.next_rule_id);
    CALDB_RETURN_IF_ERROR(storage::RestoreEventRules(snapshot.image, &db_));
  }
  cron_ = std::make_unique<DbCron>(rules_.get(), &clock_, opts_.probe_period);

  // 3. WAL tail: replay everything past the snapshot, in log order.  A
  //    record that failed originally fails identically on replay — same
  //    state either way — so replay errors are logged, counted, and
  //    skipped rather than aborting recovery.
  CALDB_ASSIGN_OR_RETURN(storage::WalReadResult wal,
                         storage::ReadWal(WalPath()));
  uint64_t max_lsn = snapshot_lsn;
  auto note_replay_error = [&](const Status& st, const storage::WalRecord& r) {
    ++recovery_stats_.replay_errors;
    Metrics().recovery_replay_errors->Increment();
    obs::LogEvent(obs::LogLevel::kWarn, "storage.replay_error",
                  {{"lsn", r.lsn},
                   {"type", static_cast<int64_t>(r.type)},
                   {"error", st.ToString()}});
  };
  for (const storage::WalRecord& record : wal.records) {
    if (record.lsn <= snapshot_lsn) continue;  // superseded by the snapshot
    max_lsn = record.lsn;
    ++recovery_stats_.wal_records_replayed;
    Metrics().recovery_replayed->Increment();
    switch (record.type) {
      case storage::WalRecordType::kStatement: {
        // Through the shared statement cache: replaying thousands of
        // identical statement shapes parses each distinct shape once.
        Result<QueryResult> r = [&]() -> Result<QueryResult> {
          CALDB_ASSIGN_OR_RETURN(CompiledStatementPtr compiled,
                                 stmt_cache_.GetOrCompile(record.a));
          CALDB_ASSIGN_OR_RETURN(EvalScope bound,
                                 BindParams(*compiled, nullptr));
          return db_.Run(*compiled, bound, Database::RunMode::kReplay);
        }();
        if (!r.ok()) note_replay_error(r.status(), record);
        break;
      }
      case storage::WalRecordType::kDeclareRule: {
        TemporalAction action;
        action.command = record.c;
        Result<int64_t> r = rules_->DeclareRule(record.a, record.b,
                                                std::move(action), record.day,
                                                record.d);
        if (!r.ok()) note_replay_error(r.status(), record);
        break;
      }
      case storage::WalRecordType::kDropRule: {
        Status st = rules_->DropRule(record.a);
        if (!st.ok()) note_replay_error(st, record);
        break;
      }
      case storage::WalRecordType::kAdvance: {
        // Re-fires the rules the original advance fired, in the same
        // (fire_day, rule_id) order — the firings themselves were never
        // logged, only the advance that triggered them.
        Status st = cron_->AdvanceTo(record.day);
        if (!st.ok()) note_replay_error(st, record);
        break;
      }
      case storage::WalRecordType::kDefineCalendar: {
        Status st = [&] {
          CALDB_ASSIGN_OR_RETURN(std::optional<Interval> lifespan,
                                 ParseLifespanField(record.c));
          return catalog_.DefineDerived(record.a, record.b, lifespan);
        }();
        if (!st.ok()) note_replay_error(st, record);
        break;
      }
      case storage::WalRecordType::kDropCalendar: {
        Status st = catalog_.Drop(record.a);
        if (!st.ok()) note_replay_error(st, record);
        break;
      }
      case storage::WalRecordType::kParamStatement: {
        // One compiled shape per distinct statement text, one decoded
        // bind list per record: a burst of value-only-varying executions
        // replays with a single parse.
        Result<QueryResult> r = [&]() -> Result<QueryResult> {
          CALDB_ASSIGN_OR_RETURN(CompiledStatementPtr compiled,
                                 stmt_cache_.GetOrCompile(record.a));
          CALDB_ASSIGN_OR_RETURN(ParamList params,
                                 storage::DecodeParamValues(record.b));
          CALDB_ASSIGN_OR_RETURN(EvalScope bound,
                                 BindParams(*compiled, &params));
          return db_.Run(*compiled, bound, Database::RunMode::kReplay);
        }();
        if (!r.ok()) note_replay_error(r.status(), record);
        break;
      }
    }
  }

  // 4. Torn tail: drop the unusable bytes so the appender never writes
  //    after garbage.
  if (wal.torn_tail) {
    obs::LogEvent(obs::LogLevel::kWarn, "storage.torn_tail",
                  {{"path", WalPath()},
                   {"valid_bytes", wal.valid_bytes},
                   {"reason", wal.tail_error}});
    CALDB_RETURN_IF_ERROR(storage::TruncateWal(WalPath(), wal.valid_bytes));
    recovery_stats_.torn_tail_truncated = true;
    Metrics().recovery_torn_tails->Increment();
  }

  // 5. Open the appender past everything replayed, and line the DBCRON
  //    coordination up with the recovered clock (the thread starts later
  //    in Init; overdue RULE-TIME entries fire on the next advance, late,
  //    exactly once — the paper's catch-up contract).
  storage::WalWriter::Options wal_opts;
  wal_opts.fsync = opts_.fsync_policy;
  wal_opts.batch_bytes = std::max<int64_t>(1, opts_.wal_batch_bytes);
  CALDB_ASSIGN_OR_RETURN(wal_,
                         storage::WalWriter::Open(WalPath(), wal_opts,
                                                  max_lsn + 1));
  cron_target_ = cron_reached_ = clock_.NowDay();

  Metrics().recovery_ns->Record(obs::NowNs() - start_ns);
  obs::LogEvent(obs::LogLevel::kInfo, "storage.recovery",
                {{"data_dir", opts_.data_dir},
                 {"snapshot", recovery_stats_.snapshot_loaded},
                 {"replayed", recovery_stats_.wal_records_replayed},
                 {"replay_errors", recovery_stats_.replay_errors},
                 {"torn_tail", recovery_stats_.torn_tail_truncated},
                 {"clock_day", clock_.NowDay()}});
  return Status::OK();
}

std::unique_ptr<Session> Engine::CreateSession() {
  Metrics().active_sessions->Add(1);
  Metrics().active_sessions->SetWithMax(Metrics().active_sessions->value(),
                                        Metrics().active_sessions_max);
  const uint64_t id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Session>(new Session(this, id));
}

void Engine::ReleaseSession() {
  Metrics().active_sessions->Add(-1);
}

Result<QueryResult> Engine::Execute(const std::string& statement) {
  // Slow-statement lines and event-rule audit records name the statement
  // from the thread's LogContext.  Session::Execute has installed this
  // text already; a direct caller (or a pool task) has not, so install it
  // here, keeping the caller's session.
  std::optional<obs::ScopedLogContext> log_scope;
  if (obs::CurrentLogContext().statement != statement) {
    log_scope.emplace(obs::CurrentLogContext().session_id, statement);
  }
  ParamList lifted;
  CALDB_ASSIGN_OR_RETURN(CompiledStatementPtr compiled,
                         Prepare(statement, &lifted));
  return Run(*compiled, lifted.empty() ? nullptr : &lifted, statement);
}

Status Engine::LogDurable(storage::WalRecord record, int64_t* clock_ns) {
  if (wal_ == nullptr) return Status::OK();
  Result<uint64_t> lsn = wal_->Append(std::move(record), clock_ns);
  if (!lsn.ok()) {
    // Effects are applied in memory but not persisted — surface it; the
    // caller turns it into the operation's status.
    return lsn.status().WithContext("WAL append");
  }
  if (opts_.checkpoint_wal_bytes > 0 &&
      wal_->bytes() >= opts_.checkpoint_wal_bytes) {
    checkpoint_due_.store(true, std::memory_order_release);
  }
  return Status::OK();
}

void Engine::MaybeCheckpoint() {
  if (wal_ == nullptr || !checkpoint_due_.load(std::memory_order_acquire)) {
    return;
  }
  bool expected = true;
  if (!checkpoint_due_.compare_exchange_strong(expected, false)) return;
  Status st = Checkpoint();
  if (!st.ok()) {
    obs::LogEvent(obs::LogLevel::kWarn, "storage.checkpoint_error",
                  {{"error", st.ToString()}});
  }
}

Status Engine::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("engine has no data dir to checkpoint to");
  }
  return NoThrow("Checkpoint", [&] {
    LockManager::Guard lock = lock_mgr_.AcquireGlobalExclusive();
    return CheckpointLocked();
  });
}

Status Engine::CheckpointLocked() {
  const int64_t start_ns = obs::NowNs();
  CALDB_ASSIGN_OR_RETURN(
      storage::SnapshotImage image,
      storage::CaptureSnapshot(db_, catalog_, *rules_, clock_.NowDay(),
                               wal_->last_lsn()));
  CALDB_RETURN_IF_ERROR(storage::WriteSnapshotFile(SnapshotPath(), image));
  // A crash before this truncation replays stale frames — harmless, their
  // LSNs are <= the snapshot's and replay skips them.
  CALDB_RETURN_IF_ERROR(wal_->ResetAfterCheckpoint());
  Metrics().checkpoints->Increment();
  Metrics().checkpoint_ns->Record(obs::NowNs() - start_ns);
  obs::LogEvent(obs::LogLevel::kInfo, "storage.checkpoint",
                {{"path", SnapshotPath()},
                 {"last_lsn", static_cast<int64_t>(image.last_lsn)},
                 {"clock_day", image.clock_day}});
  return Status::OK();
}

Status Engine::DefineCalendar(const std::string& name,
                              const std::string& script,
                              std::optional<Interval> lifespan_days) {
  return NoThrow("DefineCalendar", [&]() -> Status {
    // The exclusive lock serializes the WAL append with statement/rule
    // records (lock order: the lock manager before catalog internals).
    LockManager::Guard lock = lock_mgr_.AcquireGlobalExclusive();
    CALDB_RETURN_IF_ERROR(catalog_.DefineDerived(name, script, lifespan_days));
    storage::WalRecord record;
    record.type = storage::WalRecordType::kDefineCalendar;
    record.a = name;
    record.b = script;
    record.c = FormatLifespan(lifespan_days);
    return LogDurable(std::move(record));
  });
}

Status Engine::DropCalendar(const std::string& name) {
  return NoThrow("DropCalendar", [&]() -> Status {
    LockManager::Guard lock = lock_mgr_.AcquireGlobalExclusive();
    CALDB_RETURN_IF_ERROR(catalog_.Drop(name));
    storage::WalRecord record;
    record.type = storage::WalRecordType::kDropCalendar;
    record.a = name;
    return LogDurable(std::move(record));
  });
}

Result<CompiledStatementPtr> Engine::Prepare(const std::string& statement,
                                             ParamList* lifted) {
  return NoThrow("Prepare", [&]() -> Result<CompiledStatementPtr> {
    if (lifted == nullptr) return stmt_cache_.GetOrCompile(statement);
    StatementShape shape = ShapeStatement(statement, /*lift_literals=*/true);
    if (shape.values.empty()) {
      return stmt_cache_.GetOrCompile(shape.key, statement);
    }
    // A shape that does not parse fails with the text's own error: the
    // parser read the text's tokens (CompileStatement with lifting).
    Result<CompiledStatementPtr> compiled = stmt_cache_.GetOrCompile(
        shape.key, statement, /*lift_literals=*/true);
    if (!compiled.ok() || TakesLiteralsAsWritten(**compiled, shape.values)) {
      if (compiled.ok()) *lifted = std::move(shape.values);
      return compiled;
    }
    // The shape would bind differently: compile the text as written.
    return stmt_cache_.GetOrCompile(statement);
  });
}

Result<QueryResult> Engine::Run(const CompiledStatement& compiled,
                                const ParamList* params,
                                std::string_view text) {
  // The facade's no-throw contract (common/result.h): a defect below this
  // frame surfaces as kInternal, never as an exception crossing the API.
  return NoThrow("Execute", [&] {
    Result<QueryResult> result =
        RunImpl(compiled, params, text.empty() ? compiled.text : text);
    MaybeCheckpoint();
    return result;
  });
}

Result<QueryResult> Engine::RunImpl(const CompiledStatement& compiled,
                                    const ParamList* params,
                                    std::string_view text) {
  // The bind step runs before any lock or WAL traffic: a bad arity or
  // type never reaches execution, and an unbound placeholder is an error
  // here rather than deep inside evaluation.  The bound scope reads
  // params in place, so one compiled shape serves every binding.
  CALDB_ASSIGN_OR_RETURN(EvalScope bound, BindParams(compiled, params));
  Metrics().statements->Increment();
  // HasRetrieveRules / HasEventRules are atomic reads, so classification
  // needs no lock; rules armed between classification and acquisition are
  // picked up by the next statement (same guarantee a probing daemon
  // gives) — arming itself is rule DDL, which takes the global exclusive
  // lock and so cannot interleave with a statement already running.
  const bool writes = StatementWrites(compiled, db_);
  // The per-table path needs an exact footprint.  For writes it further
  // needs no armed event rules (a firing's action may touch tables
  // outside the footprint) and no DDL (schema changes must exclude
  // everything).  Note armed *retrieve* rules reclassify the retrieve as
  // a write above, and HasRetrieveRules implies HasEventRules — so that
  // case falls back too, as required.
  const bool per_table = compiled.footprint_exact && !compiled.is_ddl &&
                         (!writes || !db_.HasEventRules());
  // The statement timeline: one clock read at each phase boundary —
  // entry, lock granted (only when the lock had to wait), DB done and,
  // for a durable write, WAL appended.  `clock_ns` holds the latest
  // stamp; the lock manager, Database::Run and the WAL append each take
  // it as their start and hand back their end, so the
  // table_locks.wait_ns, db.statement_ns and wal.append_ns histograms and
  // both spans share the same reads (0: observability off).
  int64_t clock_ns = obs::Enabled() ? obs::NowNs() : 0;
  obs::Tracer::Span span = obs::StartSpan("engine.execute", clock_ns);
  if (!writes) {
    // Shared locks on exactly the retrieve's tables: readers of table A
    // are oblivious to a writer hammering table B.  A read without an
    // exact footprint (hand-built explain, or any shape without exact
    // metadata) may touch tables it cannot name, and only the global
    // exclusive lock excludes per-table writers from all of them.
    span.AddAttr("lock", per_table ? "table-read" : "write");
    LockManager::Guard lock =
        per_table ? lock_mgr_.AcquireTables(compiled.tables, false, &clock_ns)
                  : lock_mgr_.AcquireGlobalExclusive(&clock_ns);
    Result<QueryResult> result = db_.Run(
        compiled, bound, Database::RunMode::kStatement, text, &clock_ns);
    span.End(clock_ns);
    return result;
  }
  span.AddAttr("lock", per_table ? "table-write" : "write");
  const bool bound_values = params != nullptr && !params->empty();
  // Encode the bind list for the redo record before taking the lock
  // (the values are immutable for the duration of the call).
  std::string encoded_params;
  if (wal_ != nullptr && bound_values) {
    CALDB_ASSIGN_OR_RETURN(encoded_params, storage::EncodeParamValues(*params));
  }
  Result<QueryResult> result = [&] {
    // Per-table DML holds exclusive locks on exactly its tables (under
    // the shared intent layer); the fallback holds the global exclusive
    // lock.  Either way the WAL append happens before release, so WAL
    // order matches execution order per table — concurrent appends from
    // disjoint-table writers interleave, but those records commute, and
    // the WalWriter's own mutex keeps each record atomic.
    LockManager::Guard lock =
        per_table ? lock_mgr_.AcquireTables(compiled.tables, true, &clock_ns)
                  : lock_mgr_.AcquireGlobalExclusive(&clock_ns);
    Result<QueryResult> r = db_.Run(
        compiled, bound, Database::RunMode::kStatement, text, &clock_ns);
    // Redo-log the statement whatever its outcome: a failing statement
    // may have applied partial effects, and replaying it fails
    // identically — deterministic either way.  (Not reached for parse or
    // bind errors.)  A bound execution — a prepared handle's, or literal
    // text lifted into a shape — logs kParamStatement (the compiled text +
    // encoded values); recovery recompiles the shape once and replays each
    // record's own bind list.
    storage::WalRecord redo;
    redo.type = bound_values ? storage::WalRecordType::kParamStatement
                             : storage::WalRecordType::kStatement;
    redo.a = compiled.text;
    redo.b = std::move(encoded_params);
    Status logged = LogDurable(std::move(redo), &clock_ns);
    if (!logged.ok() && r.ok()) return Result<QueryResult>(logged);
    return r;
  }();
  span.End(clock_ns);
  // DDL changed schema or rule state: drop cached statements whose
  // precomputed metadata could now be stale.  Outside the db lock (the
  // cache mutex is a leaf); statements racing this drop re-compile on
  // their next miss.  (DDL is never per-table, so the fallback lock
  // covered the execution.)
  if (compiled.is_ddl && result.ok()) {
    stmt_cache_.InvalidateTables(compiled.tables);
  }
  return result;
}

std::future<Result<QueryResult>> Engine::ExecuteAsync(std::string statement) {
  // Capture the submitter's trace and log context so the statement stays
  // one span tree (and one session attribution) across the pool boundary;
  // the pool's own isolating context is swapped out inside the task.
  const obs::TraceContext trace_ctx = obs::Tracer::CurrentContext();
  obs::LogContext log_ctx = obs::CurrentLogContext();
  // Not SubmitTask: when Stop() races the submit, a dropped packaged_task
  // would surface as a broken_promise *exception* from future::get — the
  // rejection has to come back as a Status like every other failure.
  auto task = std::make_shared<std::packaged_task<Result<QueryResult>()>>(
      [this, stmt = std::move(statement), trace_ctx,
       log_ctx = std::move(log_ctx)] {
        obs::ScopedTraceContext trace_scope{trace_ctx};
        obs::ScopedLogContext log_scope{log_ctx};
        return Execute(stmt);
      });
  std::future<Result<QueryResult>> result = task->get_future();
  if (stopped() || !pool_->Submit([task] { (*task)(); })) {
    std::promise<Result<QueryResult>> p;
    p.set_value(Status::InvalidArgument("engine is stopped"));
    return p.get_future();
  }
  return result;
}

std::vector<Result<QueryResult>> Engine::ExecuteBatch(
    const std::vector<std::string>& statements) {
  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(statements.size());
  for (const std::string& stmt : statements) {
    futures.push_back(ExecuteAsync(stmt));
  }
  std::vector<Result<QueryResult>> results;
  results.reserve(statements.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

Result<int64_t> Engine::DeclareRule(const std::string& name,
                                    const std::string& expression,
                                    TemporalAction action,
                                    const std::string& condition_query) {
  return NoThrow("DeclareRule", [&]() -> Result<int64_t> {
    LockManager::Guard lock = lock_mgr_.AcquireGlobalExclusive();
    const TimePoint declared_at = Now();
    const std::string command = action.command;
    const bool has_callback = static_cast<bool>(action.callback);
    CALDB_ASSIGN_OR_RETURN(
        int64_t id, rules_->DeclareRule(name, expression, std::move(action),
                                        declared_at, condition_query));
    if (command.empty() && has_callback) {
      // A callback cannot be redo-logged; the declaration will not survive
      // recovery (docs/DURABILITY.md) — re-register it after restart.
      obs::LogEvent(obs::LogLevel::kWarn, "storage.skip_callback_rule",
                    {{"rule", name}});
      return id;
    }
    storage::WalRecord record;
    record.type = storage::WalRecordType::kDeclareRule;
    record.a = name;
    record.b = expression;
    record.c = command;
    record.d = condition_query;
    record.day = declared_at;
    CALDB_RETURN_IF_ERROR(LogDurable(std::move(record)));
    return id;
  });
}

Status Engine::DropTemporalRule(const std::string& name) {
  return NoThrow("DropTemporalRule", [&]() -> Status {
    LockManager::Guard lock = lock_mgr_.AcquireGlobalExclusive();
    CALDB_RETURN_IF_ERROR(rules_->DropRule(name));
    storage::WalRecord record;
    record.type = storage::WalRecordType::kDropRule;
    record.a = name;
    return LogDurable(std::move(record));
  });
}

Status Engine::AdvanceTo(TimePoint day) {
  if (!IsValidPoint(day)) {
    return Status::InvalidArgument("cannot advance to point 0");
  }
  std::unique_lock<std::mutex> lock(cron_mu_);
  if (cron_stop_) return Status::InvalidArgument("engine is stopped");
  // This call's span is (from, day]: it reports the errors of the chunks
  // overlapping it, and no other.
  const TimePoint from = cron_reached_;
  if (day > cron_target_) {
    cron_target_ = day;
    cron_cv_.notify_one();
  }
  auto waiter = cron_waiters_.insert(from);
  cron_done_cv_.wait(lock,
                     [&] { return cron_reached_ >= day || cron_stop_; });
  cron_waiters_.erase(waiter);
  Status st;
  for (const CronError& error : cron_errors_) {
    if (error.to > from && error.from < day) {
      st = error.status;
      break;
    }
  }
  // Keep only the errors a remaining waiter's span can still reach.
  std::erase_if(cron_errors_, [&](const CronError& error) {
    return cron_waiters_.empty() || error.to <= *cron_waiters_.begin();
  });
  lock.unlock();
  MaybeCheckpoint();
  return st;
}

Status Engine::AdvanceToCivil(const CivilDate& date) {
  return AdvanceTo(time_system().DayPointFromCivil(date));
}

DbCron::CronStats Engine::CronStats() const {
  // Firings mutate the stats under the exclusive lock (CronLoop), so a
  // shared lock makes this snapshot race-free.
  LockManager::Guard lock = lock_mgr_.AcquireGlobalShared();
  return cron_->stats();
}

void Engine::CronLoop() {
  for (;;) {
    TimePoint target;
    {
      std::unique_lock<std::mutex> lock(cron_mu_);
      cron_cv_.wait(lock,
                    [&] { return cron_stop_ || cron_target_ > cron_reached_; });
      if (cron_stop_ && cron_target_ <= cron_reached_) return;
      target = cron_target_;
    }
    // Advance in probe-period chunks so readers interleave with firings
    // instead of stalling behind one long exclusive section.
    TimePoint reached;
    {
      std::unique_lock<std::mutex> lock(cron_mu_);
      reached = cron_reached_;
    }
    while (reached < target) {
      const TimePoint chunk =
          std::min(target, PointAdd(reached, cron_->probe_period_days()));
      Status st;
      {
        // The root of this advance's span tree: cron.probe and cron.fire
        // spans started inside AdvanceTo parent to it, so `\trace` shows
        // one tree per clock advance on the daemon thread.
        obs::Tracer::Span span = obs::StartSpan("cron.advance");
        span.AddAttr("to_day", chunk);
        LockManager::Guard db_lock = lock_mgr_.AcquireGlobalExclusive();
        // A firing that throws (a TemporalAction callback, say) ends this
        // chunk with kInternal, which AdvanceTo reports; the daemon lives.
        st = NoThrow("AdvanceTo", [&] { return cron_->AdvanceTo(chunk); });
        // Redo-log the advance whatever its status: firings before an
        // error already applied, and replaying the advance reproduces
        // them (and the error) deterministically.  The firings themselves
        // are never logged — only the advance that triggers them.
        storage::WalRecord record;
        record.type = storage::WalRecordType::kAdvance;
        record.day = chunk;
        Status logged = LogDurable(std::move(record));
        if (!logged.ok() && st.ok()) st = logged;
      }
      Metrics().cron_advances->Increment();
      const TimePoint reached_before = reached;
      reached = chunk;
      std::unique_lock<std::mutex> lock(cron_mu_);
      cron_reached_ = chunk;
      if (!st.ok()) cron_errors_.push_back({reached_before, chunk, st});
      cron_done_cv_.notify_all();
      // A concurrent AdvanceTo may have raised the target mid-advance.
      target = cron_target_;
      if (cron_stop_ && !st.ok()) break;
    }
  }
}

Status Engine::Stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) {
    return Status::OK();
  }
  {
    std::unique_lock<std::mutex> lock(cron_mu_);
    cron_stop_ = true;
    cron_cv_.notify_all();
    cron_done_cv_.notify_all();
  }
  if (cron_thread_.joinable()) cron_thread_.join();
  {
    // Waiters blocked in AdvanceTo must observe the stop.
    std::unique_lock<std::mutex> lock(cron_mu_);
    cron_done_cv_.notify_all();
  }
  if (pool_ != nullptr) pool_->Shutdown();
  if (snapshotter_ != nullptr) snapshotter_->Stop();
  Status st;
  {
    std::unique_lock<std::mutex> lock(cron_mu_);
    // An error no AdvanceTo has collected: a chunk that failed after its
    // waiters had left (the drain of a pending advance).
    if (!cron_errors_.empty()) st = cron_errors_.front().status;
  }
  if (wal_ != nullptr) {
    if (opts_.checkpoint_on_stop) {
      Status cp = Checkpoint();
      if (!cp.ok()) {
        obs::LogEvent(obs::LogLevel::kWarn, "storage.checkpoint_error",
                      {{"error", cp.ToString()}});
        if (st.ok()) st = cp;
      }
    } else {
      Status sync = wal_->Sync();
      if (!sync.ok() && st.ok()) st = sync;
    }
  }
  // Telemetry sinks drain last, so the checkpoint's own log events make
  // it out too: the logger's buffered file sink (the snapshotter flushed
  // its final delta in Stop() above).
  obs::Log().Flush();
  return st;
}

}  // namespace caldb
