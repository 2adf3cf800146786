// caldb::Engine — the concurrent run-time of the §4 architecture.
//
// The paper assumes DBCRON runs as a daemon *concurrent with* user
// sessions probing RULE-TIME.  The Engine realizes that: it owns the
// database, the CALENDARS catalog, the temporal-rule manager and DBCRON
// behind one thread-safe object, hands out per-client Session handles
// (see session.h), and executes statements from any number of threads:
//
//  - Database statements run under a per-table lock manager
//    (engine/lock_manager.h): a statement with an exact compiled
//    footprint locks just its tables — shared for retrieves, exclusive
//    for DML — so writers on disjoint tables proceed in parallel.
//    Statements whose footprint is unknowable (DDL, retrieve-into, rule
//    definitions, any DML while event rules are armed, rule firings,
//    checkpoints) fall back to a global exclusive lock that excludes
//    every footprint statement at once.
//  - The CALENDARS catalog carries its own internal locks (readers
//    scale; DefineDerived/DefineValues/Drop are exclusive), so calendar
//    evaluation never contends with table scans.
//  - DBCRON runs on a background thread that sleeps on a condition
//    variable until the virtual clock is advanced; rule firings happen
//    under the exclusive database lock, serialized against conflicting
//    writes.  Stop() drains the pending advance and joins.
//  - A fixed-size ThreadPool backs ExecuteAsync/ExecuteBatch for
//    parallel query execution.
//
// Construction of Database / DbCron / TemporalRuleManager directly is
// deprecated for servers: embed an Engine and use its accessors (the
// parts remain public for single-threaded library use and tests).
//
// Lock ordering (to stay deadlock-free): the lock manager's intent
// layer, then per-table mutexes in sorted-name order, then any catalog
// internal mutex.  The catalog never calls into the database, so the
// reverse edge cannot occur.
//
// Observability: "caldb.engine.*" (docs/OBSERVABILITY.md) — active
// session count, pool queue depth, the lock manager's acquisition
// counters and wait histogram (caldb.engine.table_locks.*),
// statement/script counters.

#ifndef CALDB_ENGINE_ENGINE_H_
#define CALDB_ENGINE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "catalog/calendar_catalog.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "db/database.h"
#include "engine/lock_manager.h"
#include "engine/statement_cache.h"
#include "obs/snapshot.h"
#include "rules/clock.h"
#include "rules/dbcron.h"
#include "rules/temporal_rules.h"
#include "storage/wal.h"

namespace caldb {

class Session;

struct EngineOptions {
  /// Day 1 of the engine's time system.
  CivilDate epoch{1993, 1, 1};
  /// The virtual clock's starting day.
  TimePoint start_day = 1;
  /// Worker threads backing ExecuteAsync / ExecuteBatch (>= 1).
  int pool_threads = 4;
  /// DBCRON probe period T, in rule-unit granules.
  int64_t probe_period = 7;
  /// Rule scheduling horizon, in rule-unit granules.
  TimePoint rule_horizon = 20000;
  /// Granularity of rule time points (DAYS; HOURS for process control).
  Granularity rule_unit = Granularity::kDays;
  /// Default gen-cache budget handed to each new Session's evaluator.
  size_t session_gen_cache_entries = 64;
  size_t session_gen_cache_bytes = 16u << 20;
  /// Capacity of the shared compiled-statement cache (LRU entries; every
  /// session, rule firing and WAL replay share it).  0 disables caching —
  /// each execution compiles fresh.  See engine/statement_cache.h.
  size_t stmt_cache_entries = 512;

  // --- durability -----------------------------------------------------------

  /// When nonempty, the engine is durable: construction recovers from
  /// `<data_dir>/snapshot` + `<data_dir>/wal` (replaying the WAL tail and
  /// truncating a torn final record), every mutating operation appends a
  /// WAL record, and Stop() checkpoints.  Empty (the default) keeps the
  /// engine purely in-memory.  See docs/DURABILITY.md.
  std::string data_dir;
  /// When WAL appends reach disk (storage/wal.h): kAlways fsyncs before
  /// the statement is acknowledged, kBatch every `wal_batch_bytes`, kOff
  /// only at checkpoints.
  storage::FsyncPolicy fsync_policy = storage::FsyncPolicy::kBatch;
  /// kBatch: fsync once this many unsynced bytes accumulate.
  int64_t wal_batch_bytes = 64 * 1024;
  /// Auto-checkpoint once the WAL grows past this many bytes (0 disables;
  /// Stop() and the shell's \checkpoint still snapshot).
  int64_t checkpoint_wal_bytes = 8 << 20;
  /// Whether Stop() writes a snapshot and truncates the WAL.  Crash tests
  /// turn this off to exercise the replay path on a clean shutdown.
  bool checkpoint_on_stop = true;

  // --- telemetry ------------------------------------------------------------

  /// Slow-statement threshold, ns.  < 0 keeps the process-wide default
  /// (CALDB_SLOW_STMT_MS, else 20ms); 0 disables the slow-statement log.
  int64_t slow_statement_ns = -1;
  /// When nonempty (or CALDB_METRICS_FILE is set), the engine runs a
  /// MetricsSnapshotter appending one metrics-delta JSON line to this
  /// file every `metrics_snapshot_interval_ms` (see obs/snapshot.h).
  std::string metrics_snapshot_path;
  /// Snapshot period, ms (clamped to >= 10; CALDB_METRICS_INTERVAL_MS
  /// overrides when the path came from the environment).
  int metrics_snapshot_interval_ms = 1000;
};

class Engine {
 public:
  /// Builds the catalog, database (with the calendar operators of §5
  /// registered), temporal-rule manager and DBCRON, and starts the
  /// background threads.
  static Result<std::unique_ptr<Engine>> Create(EngineOptions opts = {});

  /// Stops the engine (see Stop) and tears the parts down.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// A new client session.  Sessions are cheap, single-threaded handles;
  /// create one per thread.  The Engine must outlive it.
  std::unique_ptr<Session> CreateSession();

  // --- statements -----------------------------------------------------------

  /// Runs one database statement through the shared StatementCache.  The
  /// literals of a retrieve/append/replace/delete are lifted into $n slots
  /// first (ShapeStatement, db/compiled_statement.h): every spelling of
  /// one shape shares a cache entry and runs with its own literals as the
  /// bind list (see Run).  Prepared execution goes through
  /// Session::Prepare and PreparedStatement::Execute.  Never throws; never
  /// lets a callee's exception escape.
  Result<QueryResult> Execute(const std::string& statement);

  /// Point-in-time accounting of the shared statement cache.
  StatementCache::Stats StatementCacheStats() const {
    return stmt_cache_.stats();
  }

  /// The cached entries themselves (MRU first), each with its live
  /// compiled handle — the shell's \stmtcache renders normalized text and
  /// parameter signature per row from this.
  std::vector<StatementCache::EntryInfo> StatementCacheEntries() const {
    return stmt_cache_.Entries();
  }

  /// Enqueues a statement on the pool; the future carries its result.
  std::future<Result<QueryResult>> ExecuteAsync(std::string statement);

  /// Executes a batch on the pool, preserving order of results.
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<std::string>& statements);

  // --- temporal rules / clock -----------------------------------------------

  /// Declares a temporal rule ("On <expr> do <action>", §4) as of the
  /// current virtual day, under the exclusive lock.
  Result<int64_t> DeclareRule(const std::string& name,
                              const std::string& expression,
                              TemporalAction action,
                              const std::string& condition_query = "");

  /// Drops a temporal rule, under the exclusive lock.
  Status DropTemporalRule(const std::string& name);

  /// The current day on the engine's virtual clock.
  TimePoint Now() const { return clock_.NowDay(); }

  /// Plays the virtual clock forward to `day`, firing due temporal rules
  /// from the DBCRON thread.  Blocks until time has reached `day`; rules
  /// fire under the exclusive database lock, interleaved with (not inside)
  /// concurrent statements.  Returns the first firing error between the
  /// clock at the call and `day`, if any: an error is reported by the
  /// advance it happened in, never by later ones.
  Status AdvanceTo(TimePoint day);
  Status AdvanceToCivil(const CivilDate& date);

  /// Snapshot of DBCRON's probe/fire counters (taken under a shared lock,
  /// so it is consistent with respect to firings).
  DbCron::CronStats CronStats() const;

  // --- durability -----------------------------------------------------------

  /// Whether this engine persists to a data directory.
  bool durable() const { return wal_ != nullptr; }

  /// Defines a derived calendar through the durable path: the definition
  /// is WAL-logged (and so survives recovery).  Equivalent to
  /// catalog().DefineDerived for an in-memory engine.
  Status DefineCalendar(const std::string& name, const std::string& script,
                        std::optional<Interval> lifespan_days = std::nullopt);
  /// Drops a calendar through the durable path.
  Status DropCalendar(const std::string& name);

  /// Writes a snapshot of the full engine state and truncates the WAL,
  /// under the exclusive lock (the shell's \checkpoint).  InvalidArgument
  /// for an in-memory engine.
  Status Checkpoint();

  struct RecoveryStats {
    bool snapshot_loaded = false;
    int64_t wal_records_replayed = 0;
    int64_t replay_errors = 0;
    bool torn_tail_truncated = false;
  };
  /// What recovery did at construction (zeros for an in-memory engine or
  /// a cold start).
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Drains the DBCRON thread's pending advance and the pool, then joins
  /// both.  Idempotent; called by the destructor.  After Stop, Execute
  /// keeps working single-threaded but AdvanceTo / ExecuteAsync fail.
  Status Stop();

  // --- locked access to the parts -------------------------------------------

  /// Runs `fn(const Database&)` with every writer excluded.  Under the
  /// per-table scheme this is the global exclusive lock: a whole-database
  /// read has no statement footprint, and the global *shared* layer alone
  /// would not exclude per-table writers.
  template <typename F>
  auto WithDbRead(F&& fn) const {
    LockManager::Guard lock = lock_mgr_.AcquireGlobalExclusive();
    return fn(static_cast<const Database&>(db_));
  }

  /// Runs `fn(Database&)` under the global exclusive lock.
  template <typename F>
  auto WithDbWrite(F&& fn) {
    LockManager::Guard lock = lock_mgr_.AcquireGlobalExclusive();
    return fn(db_);
  }

  /// Runs `fn(const TemporalRuleManager&)` under the global shared lock
  /// (rule metadata lives both in the manager and in RULE-INFO/RULE-TIME
  /// rows; it is only ever mutated under the global exclusive lock, so
  /// the shared intent layer suffices).
  template <typename F>
  auto WithRulesRead(F&& fn) const {
    LockManager::Guard lock = lock_mgr_.AcquireGlobalShared();
    return fn(static_cast<const TemporalRuleManager&>(*rules_));
  }

  // --- accessors ------------------------------------------------------------

  const TimeSystem& time_system() const { return catalog_.time_system(); }
  /// The catalog is internally thread-safe; use it directly.
  CalendarCatalog& catalog() { return catalog_; }
  const CalendarCatalog& catalog() const { return catalog_; }
  const EngineOptions& options() const { return opts_; }
  ThreadPool& pool() { return *pool_; }
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

 private:
  explicit Engine(EngineOptions opts);
  Status Init();
  // Bookkeeping for the active_sessions gauge (called by ~Session).
  void ReleaseSession();

  /// Compiles `statement` through the shared StatementCache: preparing
  /// the same (whitespace-normalized) text twice returns the same handle
  /// without re-parsing.  With `lifted`, the statement's literals are
  /// lifted first when its shape takes them as written: the handle is the
  /// shape's and `*lifted` receives the literals, its bind list (left
  /// empty when the text compiles as written).  Never throws.
  Result<CompiledStatementPtr> Prepare(const std::string& statement,
                                       ParamList* lifted = nullptr);

  /// The one statement path (Execute, Session::Prepare'd handles): binds
  /// `params` (nullable) to the handle's $n placeholders before any lock
  /// or WAL traffic, classifies the lock from the compiled metadata, runs
  /// Database::Run under it, WAL-logs writes (a bound execution as one
  /// kParamStatement record), and invalidates the statement cache after
  /// DDL.  `text` is the statement as its sender wrote it, which log lines
  /// and audit records name (empty: compiled.text).  Never throws.
  Result<QueryResult> Run(const CompiledStatement& compiled,
                          const ParamList* params, std::string_view text = {});
  Result<QueryResult> RunImpl(const CompiledStatement& compiled,
                              const ParamList* params, std::string_view text);
  void CronLoop();

  // --- durability internals -------------------------------------------------

  std::string SnapshotPath() const;
  std::string WalPath() const;
  /// Builds rules_/cron_ from the data dir: snapshot restore, WAL replay,
  /// torn-tail truncation.  Called from Init instead of the in-memory
  /// construction when opts_.data_dir is set.
  Status Recover();
  /// Appends one WAL record (no-op for an in-memory engine; callers hold
  /// the exclusive lock so log order matches execution order).  Flags an
  /// auto-checkpoint when the log outgrows the threshold.  `clock_ns`: a
  /// statement timeline's stamp, as WalWriter::Append takes it.
  Status LogDurable(storage::WalRecord record, int64_t* clock_ns = nullptr);
  /// Snapshot + WAL truncation; caller holds the exclusive lock.
  Status CheckpointLocked();
  /// Runs a due auto-checkpoint, if flagged.  Must be called lock-free.
  void MaybeCheckpoint();

  EngineOptions opts_;
  CalendarCatalog catalog_;
  Database db_;
  // The shared compiled-statement cache.  Internally locked; its mutex is
  // a leaf (never held while acquiring a lock_mgr_ lock or any catalog
  // mutex).
  StatementCache stmt_cache_;
  VirtualClock clock_;
  std::unique_ptr<TemporalRuleManager> rules_;
  std::unique_ptr<DbCron> cron_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<obs::MetricsSnapshotter> snapshotter_;
  // Durability (null for an in-memory engine).  Appends happen under the
  // statement's lock_mgr_ lock; the writer's own mutex keeps each record
  // atomic and covers Sync from Stop().
  std::unique_ptr<storage::WalWriter> wal_;
  RecoveryStats recovery_stats_;
  std::atomic<bool> checkpoint_due_{false};

  // Two-layer lock over the database (engine/lock_manager.h): per-table
  // shared_mutexes under a global intent layer.  Footprint statements
  // lock just their tables; DDL, rule firings and checkpoints take the
  // global exclusive fallback.  mutable: const snapshot methods take the
  // shared intent side.
  mutable LockManager lock_mgr_;

  // Liveness token shared with PreparedStatement handles: flipped false
  // at the top of ~Engine, so a handle executed after destruction fails
  // with a clean Status instead of dereferencing a dangling Engine*.
  // (A *concurrent* destruction is still the caller's race to lose; the
  // token makes sequential misuse safe and diagnosable.)
  std::shared_ptr<std::atomic<bool>> alive_ =
      std::make_shared<std::atomic<bool>>(true);

  // DBCRON thread coordination.  cron_target_ only grows; cron_reached_
  // trails it; both are guarded by cron_mu_.
  std::thread cron_thread_;
  mutable std::mutex cron_mu_;
  std::condition_variable cron_cv_;       // wakes the DBCRON thread
  std::condition_variable cron_done_cv_;  // wakes AdvanceTo waiters
  TimePoint cron_target_ = 1;
  TimePoint cron_reached_ = 1;
  // The failed chunks (from, to] of the daemon's advances, kept while an
  // AdvanceTo whose span they overlap may still be waiting; each
  // AdvanceTo reports the first that overlaps its own span.
  struct CronError {
    TimePoint from;
    TimePoint to;
    Status status;
  };
  std::vector<CronError> cron_errors_;
  // The span start (`from`) of each waiting AdvanceTo.
  std::multiset<TimePoint> cron_waiters_;
  bool cron_stop_ = false;

  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> next_session_id_{1};

  friend class Session;
  friend class PreparedStatement;
};

}  // namespace caldb

#endif  // CALDB_ENGINE_ENGINE_H_
