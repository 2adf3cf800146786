// ledger_durable: a durable engine (data_dir) holding 20k accounts and a
// fixed-size history log.  One client runs a closed loop where every
// statement is prepared by text through the engine's statement cache
// (always a hit) and executed with bound values: 50% point reads (the
// light op) and 50% transfers (the heavy op): replace one balance, append
// a history row, delete the oldest history row.  The storage layer does
// most of the work: a WAL record per write, two auto-checkpoints per round
// of 150k ops, and at the end a restart that replays a fixed WAL tail.
//
// The WAL runs with FsyncPolicy::kOff: fsync only at checkpoints.  Per
// statement (kAlways) or per 64 KiB (kBatch, the default), fsync time on
// the shared disk this was built on swung throughput between 66k and 98k
// ops/s in back-to-back runs while the per-op p50s held, so any fsync in
// the loop makes throughput measure the neighbours.  The device's fsync
// cost is reported on its own, as storage.fsync_us.

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "storage/wal.h"

namespace perfbench {
namespace {

constexpr int kRecoveries = 3;

constexpr const char* kRead =
    "retrieve (a.balance) from a in accounts where a.id = $1";
constexpr const char* kDebit =
    "replace a in accounts (balance = $2) where a.id = $1";
constexpr const char* kLog = "append history (seq = $1, id = $2, amount = $3)";
constexpr const char* kTrim = "delete h in history where h.seq = $1";

struct Sizes {
  int accounts;
  int history;
  int tail_ops;   // ops between the final checkpoint and the restart
  int round_ops;  // ops per round (see RunPhase)
  // WAL bytes that trigger an auto-checkpoint; 0 keeps the engine default
  // (8 MiB, two checkpoints per round).  Smoke lowers it so that its tiny
  // rounds checkpoint too.
  int64_t checkpoint_wal_bytes;
};

caldb::EngineOptions LedgerOptions(const std::string& dir,
                                   const Sizes& sizes) {
  caldb::EngineOptions o;
  o.data_dir = dir;
  o.fsync_policy = caldb::storage::FsyncPolicy::kOff;
  // Keep the WAL tail on shutdown so the restart replays it.
  o.checkpoint_on_stop = false;
  if (sizes.checkpoint_wal_bytes > 0) {
    o.checkpoint_wal_bytes = sizes.checkpoint_wal_bytes;
  }
  return o;
}

struct Fixture {
  std::unique_ptr<caldb::Engine> engine;
  std::unique_ptr<caldb::Session> session;
  std::vector<int64_t> balances;  // shadow copy of accounts.balance
  int64_t next_seq = 0;           // seq of the next history row
  int64_t oldest_seq = 0;         // seq of the oldest live history row
};

std::unique_ptr<Fixture> Setup(const std::string& dir, uint64_t seed,
                               const Sizes& sizes) {
  std::filesystem::remove_all(dir);
  auto fx = std::make_unique<Fixture>();
  fx->engine =
      Must(caldb::Engine::Create(LedgerOptions(dir, sizes)), "create engine");
  fx->session = fx->engine->CreateSession();
  caldb::Session& s = *fx->session;
  Must(s.Execute("create table accounts (id int, balance int)"), "accounts");
  Must(s.Execute("create index on accounts (id)"), "accounts index");
  Must(s.Execute("create table history (seq int, id int, amount int)"),
       "history");
  Must(s.Execute("create index on history (seq)"), "history index");
  Rng rng(seed ^ 0x1ED6u);
  caldb::PreparedStatement load = Must(
      s.Prepare("append accounts (id = $1, balance = $2)"), "prepare load");
  fx->balances.resize(sizes.accounts);
  for (int id = 0; id < sizes.accounts; ++id) {
    fx->balances[id] = static_cast<int64_t>(rng.Uniform(1000000));
    Must(load.Execute({caldb::Value::Int(id),
                       caldb::Value::Int(fx->balances[id])}),
         "load account");
  }
  caldb::PreparedStatement log = Must(s.Prepare(kLog), "prepare log");
  for (; fx->next_seq < sizes.history; ++fx->next_seq) {
    Must(log.Execute({caldb::Value::Int(fx->next_seq),
                      caldb::Value::Int(static_cast<int64_t>(
                          rng.Uniform(sizes.accounts))),
                      caldb::Value::Int(1)}),
         "load history");
  }
  Must(fx->engine->Checkpoint(), "checkpoint");
  return fx;
}

// Prepare-by-text (a statement-cache hit) then execute with `params`; one
// failed op when the call fails or touches other than one row.
bool PrepareAndRun(caldb::Session* s, const char* text,
                   const caldb::ParamList& params, Tracer* tracer,
                   const char* span_name, caldb::QueryResult* out,
                   Report* report) {
  caldb::Result<caldb::PreparedStatement> stmt =
      caldb::Status::Internal("not run");
  {
    ScopedSpan span(tracer, "engine.prepare");
    stmt = s->Prepare(text);
  }
  if (!stmt.ok()) {
    report->Fail(std::string(text) + ": " + stmt.status().ToString());
    return false;
  }
  caldb::Result<caldb::QueryResult> result = caldb::Status::Internal("not run");
  {
    ScopedSpan span(tracer, span_name);
    result = stmt->Execute(params);
  }
  if (!result.ok()) {
    report->Fail(std::string(text) + ": " + result.status().ToString());
    return false;
  }
  if (result->affected != 1) {
    report->Fail(std::string(text) + ": affected " +
                 std::to_string(result->affected));
    return false;
  }
  *out = std::move(*result);
  return true;
}

// One op: a checked point read or a transfer.  Returns false on failure.
bool Op(Fixture* fx, Rng* rng, Tracer* tracer, bool* was_read,
        Report* report) {
  using caldb::Value;
  const int64_t id =
      static_cast<int64_t>(rng->Uniform(fx->balances.size()));
  *was_read = rng->Uniform(2) == 0;
  caldb::QueryResult r;
  caldb::Session* s = fx->session.get();
  if (*was_read) {
    ScopedSpan op(tracer, "op.read");
    if (!PrepareAndRun(s, kRead, {Value::Int(id)}, tracer, "engine.execute",
                       &r, report)) {
      return false;
    }
    caldb::Result<int64_t> got = r.rows.size() == 1 && r.rows[0].size() == 1
                                     ? r.rows[0][0].AsInt()
                                     : caldb::Status::Internal("shape");
    if (!got.ok() || *got != fx->balances[id]) {
      report->Fail("read of account " + std::to_string(id) + ": wrong row");
      return false;
    }
    return true;
  }
  ScopedSpan op(tracer, "op.transfer");
  int64_t amount = static_cast<int64_t>(rng->Uniform(1001)) - 500;
  if (amount == 0) amount = 1;
  const int64_t balance = fx->balances[id] + amount;
  if (!PrepareAndRun(s, kDebit, {Value::Int(id), Value::Int(balance)},
                     tracer, "engine.execute.replace", &r, report) ||
      !PrepareAndRun(
          s, kLog,
          {Value::Int(fx->next_seq), Value::Int(id), Value::Int(amount)},
          tracer, "engine.execute.append", &r, report) ||
      !PrepareAndRun(s, kTrim, {Value::Int(fx->oldest_seq)}, tracer,
                     "engine.execute.delete", &r, report)) {
    return false;
  }
  fx->balances[id] = balance;
  ++fx->next_seq;
  ++fx->oldest_seq;
  return true;
}

// The timed ops of every round, and the counter deltas they caused.
struct Phase {
  Windows windows;  // one per round; reads light, transfers heavy
  int64_t ops = 0;
  int64_t elapsed_ns = 0;
  int rounds = 0;
  std::vector<double> setup_s;
  CounterSums counters;
  int64_t checkpoint_ns = 0;
  int64_t cache_hits = 0, cache_lookups = 0, cache_evictions = 0;
};

// Rounds of a fixed op count, each on a freshly loaded engine, until
// `seconds` of ops are used (at least one round).  A transfer's delete
// leaves a tombstone in `history`, so one engine driven for a fixed time
// would give a faster build more garbage to carry; fixed rounds keep the
// work, and the memory, the same for every build.  Leaves `fx` on the
// last round's engine.
Phase RunPhase(const std::string& dir, uint64_t seed, const Sizes& sizes,
               Rng* rng, double seconds, Tracer* tracer,
               std::unique_ptr<Fixture>* fx, Report* report) {
  Phase phase;
  const int64_t budget = static_cast<int64_t>(seconds * 1e9);
  while (phase.rounds == 0 || phase.elapsed_ns < budget) {
    fx->reset();
    ReleaseFreedMemory();
    const int64_t s0 = NowNs();
    *fx = Setup(dir, seed, sizes);
    phase.setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);
    ++phase.rounds;
    caldb::obs::MetricRegistry::Global().ResetAll();
    const caldb::StatementCache::Stats before =
        (*fx)->engine->StatementCacheStats();
    const int64_t start = NowNs();
    phase.windows.Begin();
    for (int i = 0; i < sizes.round_ops; ++i) {
      ++report->attempted;
      ++phase.ops;
      if (tracer) tracer->SetOp(phase.ops);
      bool was_read = false;
      const int64_t t0 = NowNs();
      if (!Op(fx->get(), rng, tracer, &was_read, report)) continue;
      phase.windows.Add(was_read ? Windows::kLight : Windows::kHeavy,
                        NowNs() - t0);
    }
    phase.elapsed_ns += NowNs() - start;
    phase.windows.End();
    const caldb::StatementCache::Stats after =
        (*fx)->engine->StatementCacheStats();
    phase.cache_hits += after.hits - before.hits;
    phase.cache_lookups +=
        after.hits - before.hits + after.misses - before.misses;
    phase.cache_evictions += after.evictions - before.evictions;
    phase.counters.Add();
    phase.checkpoint_ns += HistogramSum("caldb.storage.checkpoint_ns");
  }
  return phase;
}

// Checks the recovered engine against the shadow state: no replay errors,
// the same balance sum, the same history size.
void CheckRecovered(Fixture* fx, int history, Report* report) {
  const caldb::Engine::RecoveryStats& rs = fx->engine->recovery_stats();
  ++report->attempted;
  if (rs.replay_errors != 0 || !rs.snapshot_loaded) {
    report->Fail("recovery: " + std::to_string(rs.replay_errors) +
                 " replay errors");
  }
  int64_t want_sum = 0;
  for (int64_t b : fx->balances) want_sum += b;
  ++report->attempted;
  auto accounts =
      fx->session->Execute("retrieve (a.balance) from a in accounts");
  int64_t sum = 0;
  if (accounts.ok()) {
    for (const caldb::Row& row : accounts->rows) {
      caldb::Result<int64_t> balance = row[0].AsInt();
      sum += balance.ok() ? *balance : 0;
    }
  }
  if (!accounts.ok() || accounts->rows.size() != fx->balances.size() ||
      sum != want_sum) {
    report->Fail("recovery: balance sum mismatch");
  }
  ++report->attempted;
  auto log = fx->session->Execute("retrieve (h.seq) from h in history");
  if (!log.ok() || static_cast<int>(log->rows.size()) != history) {
    report->Fail("recovery: history count mismatch");
  }
}

struct Recovery {
  std::vector<double> seconds;
  int64_t replayed = 0;
};

// Checkpoints, runs a fixed tail of ops, shuts down without a checkpoint
// and restarts kRecoveries times on the same directory (recovery only
// reads the log, so every restart replays the same tail).  Leaves `fx` on
// the last recovered engine.
Recovery RestartAndCheck(Fixture* fx, const std::string& dir,
                         const Sizes& sizes, Rng* rng, Report* report) {
  Must(fx->engine->Checkpoint(), "checkpoint before tail");
  for (int i = 0; i < sizes.tail_ops; ++i) {
    ++report->attempted;
    bool was_read = false;
    Op(fx, rng, nullptr, &was_read, report);
  }
  Recovery rec;
  for (int i = 0; i < kRecoveries; ++i) {
    fx->session.reset();
    fx->engine.reset();
    const int64_t t0 = NowNs();
    fx->engine =
        Must(caldb::Engine::Create(LedgerOptions(dir, sizes)), "recover");
    rec.seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    fx->session = fx->engine->CreateSession();
    const int64_t replayed = fx->engine->recovery_stats().wal_records_replayed;
    if (i > 0 && replayed != rec.replayed) {
      report->Fail("recovery: replayed record count changed between restarts");
    }
    rec.replayed = replayed;
    CheckRecovered(fx, sizes.history, report);
  }
  return rec;
}

// Median Sync time of a WalWriter on a scratch file, one record of the
// workload's size appended before each sync: the fsync cost of whatever
// storage stack the benchmark runs on, not of any particular device.
double FsyncUs(const std::string& dir) {
  const std::string path = dir + "/fsync-probe.wal";
  std::filesystem::remove(path);
  caldb::storage::WalWriter::Options o;
  o.fsync = caldb::storage::FsyncPolicy::kOff;
  auto writer = Must(caldb::storage::WalWriter::Open(path, o, 1), "open wal");
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    caldb::storage::WalRecord record;
    record.type = caldb::storage::WalRecordType::kParamStatement;
    record.a = kDebit;
    record.b = std::string(18, static_cast<char>('a' + i % 26));
    Must(writer->Append(std::move(record)), "append");
    const int64_t t0 = NowNs();
    Must(writer->Sync(), "sync");
    us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
  }
  writer.reset();
  std::filesystem::remove(path);
  return Median(us);
}

}  // namespace

void RunLedgerDurable(const Options& opts, Report* report) {
  const Sizes sizes = opts.smoke ? Sizes{500, 200, 200, 2000, 128 << 10}
                                 : Sizes{20000, 10000, 20000, 150000, 0};
  const std::string dir = opts.out_dir + "/ledger-data";
  report->meta["accounts"] = std::to_string(sizes.accounts);
  report->meta["history"] = std::to_string(sizes.history);
  report->meta["tail_ops"] = std::to_string(sizes.tail_ops);
  report->meta["round_ops"] = std::to_string(sizes.round_ops);
  report->meta["fsync_policy"] = "off";
  report->meta["engine_options"] =
      "data_dir=<out>/ledger-data fsync_policy=kOff checkpoint_on_stop=false" +
      (sizes.checkpoint_wal_bytes > 0
           ? " checkpoint_wal_bytes=" +
                 std::to_string(sizes.checkpoint_wal_bytes)
           : std::string());
  Rng rng(opts.seed);
  std::unique_ptr<Fixture> fx;

  Phase plain = RunPhase(dir, opts.seed, sizes, &rng,
                         opts.trace ? opts.seconds / 2 : opts.seconds, nullptr,
                         &fx, report);
  // Histograms are read from the last round only.
  const int64_t append_p50 = HistogramPercentile("caldb.wal.append_ns", 50);
  const int64_t lock_wait_p99 =
      HistogramPercentile("caldb.engine.table_locks.wait_ns", 99);
  Recovery rec = RestartAndCheck(fx.get(), dir, sizes, &rng, report);
  report->meta["rounds"] = std::to_string(plain.rounds);
  report->meta["recovery_s"] = std::to_string(Median(rec.seconds));

  if (!opts.trace) {
    ReportEndToEnd(report, plain.setup_s, plain.windows);
    fx.reset();
    std::filesystem::remove_all(dir);
    return;
  }

  const double ops = static_cast<double>(plain.ops);
  const double checkpoints = plain.counters["caldb.storage.checkpoints"];
  report->Set("engine.stmt_cache.hit_ratio",
              Ratio(plain.cache_hits, plain.cache_lookups), "ratio");
  report->Set("engine.stmt_cache.evictions_per_op",
              Ratio(plain.cache_evictions, ops), "count/op");
  report->Set("engine.table_lock_wait_ns_p99", lock_wait_p99, "ns");
  ReportDbCounters(report, plain.counters, ops);
  report->Set("storage.wal_bytes_per_op",
              Ratio(plain.counters["caldb.wal.bytes"], ops), "B/op");
  report->Set("storage.wal_syncs_per_op",
              Ratio(plain.counters["caldb.wal.syncs"], ops), "count/op");
  report->Set("storage.wal_append_us_p50", append_p50 / 1000.0, "us");
  report->Set("storage.checkpoints_per_round",
              Ratio(checkpoints, plain.rounds), "count");
  report->Set("storage.checkpoint_ms",
              Ratio(plain.checkpoint_ns / 1e6, checkpoints), "ms");
  report->Set("storage.replayed_records", rec.replayed, "count");
  report->Set("storage.recovery_s", Median(rec.seconds), "s");
  report->Set("storage.fsync_us", FsyncUs(opts.out_dir), "us");

  Tracer tracer;
  Phase traced = RunPhase(dir, opts.seed, sizes, &rng, opts.seconds / 2,
                          &tracer, &fx, report);
  std::map<std::string, double> self = tracer.MedianSelfUs();
  report->Set("engine.prepare_us", self["engine.prepare"], "us");
  report->Set("engine.execute_us", self["engine.execute"], "us");
  report->Set("obs.trace_overhead_pct",
              OverheadPct(Ratio(ops * 1e9, plain.elapsed_ns),
                          Ratio(traced.ops * 1e9, traced.elapsed_ns)),
              "%");
  tracer.Dump(opts.out_dir + "/ledger_durable.spans.csv", 100000);
  fx.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
