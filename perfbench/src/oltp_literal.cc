// oltp_literal: an in-memory engine holding accounts(id, balance), indexed
// on id.  One client runs a closed loop of Session::Execute on literal
// text: 90% point retrieves (the light op) and 10% point replaces (the
// heavy op), keys uniform from the seed.  Every text is distinct, so the
// working set dwarfs the 512-entry statement cache: this measures parse
// plus cache miss/evict on every call (ROADMAP item 3's target).  The run
// is kRounds rounds, each on a freshly loaded engine.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

struct Fixture {
  std::unique_ptr<caldb::Engine> engine;
  std::unique_ptr<caldb::Session> session;
  std::vector<int64_t> balances;  // shadow copy of accounts.balance
};

std::unique_ptr<Fixture> Setup(uint64_t seed, int rows) {
  auto fx = std::make_unique<Fixture>();
  fx->engine = Must(caldb::Engine::Create(), "create engine");
  fx->session = fx->engine->CreateSession();
  Must(fx->session->Execute("create table accounts (id int, balance int)"),
       "create table");
  Must(fx->session->Execute("create index on accounts (id)"), "create index");
  caldb::PreparedStatement load = Must(
      fx->session->Prepare("append accounts (id = $1, balance = $2)"),
      "prepare load");
  Rng rng(seed ^ 0xACC0u);
  fx->balances.resize(rows);
  for (int id = 0; id < rows; ++id) {
    fx->balances[id] = static_cast<int64_t>(rng.Uniform(1000000));
    Must(load.Execute({caldb::Value::Int(id),
                       caldb::Value::Int(fx->balances[id])}),
         "load row");
  }
  return fx;
}

struct Phase {
  Windows windows;  // reads are the light op, writes the heavy one
  int64_t ops = 0;
  int64_t elapsed_ns = 0;
  std::vector<double> setup_s;
  CounterSums counters;
  int64_t cache_hits = 0, cache_lookups = 0, cache_evictions = 0;
};

// One round: a closed loop of `seconds` on `fx`.  With a tracer,
// Session::Execute is split into its layers: Session::Prepare (engine:
// statement cache + compile) and PreparedStatement::Execute (engine: lock
// + db execute), plus Database::Prepare on the same text (db: the parse
// alone).
void RunRound(Fixture* fx, Rng* rng, double seconds, Tracer* tracer,
              Phase* phase, Report* report) {
  const int rows = static_cast<int>(fx->balances.size());
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t windows = std::max<int64_t>(1, (deadline - start) / kWindowNs);
  const int64_t window_ns = (deadline - start) / windows;
  int64_t window_end = start + window_ns;
  phase->windows.Begin();
  for (int64_t now = start; now < deadline; now = NowNs()) {
    if (now >= window_end) {
      phase->windows.End();
      phase->windows.Begin();
      window_end += window_ns;
    }
    const int64_t id = static_cast<int64_t>(rng->Uniform(rows));
    const bool write = rng->Uniform(10) == 0;
    const int64_t balance = static_cast<int64_t>(rng->Uniform(1000000));
    std::string text =
        write ? "replace a in accounts (balance = " + std::to_string(balance) +
                    ") where a.id = " + std::to_string(id)
              : "retrieve (a.balance) from a in accounts where a.id = " +
                    std::to_string(id);
    ++report->attempted;
    ++phase->ops;
    if (tracer) tracer->SetOp(phase->ops);
    caldb::Result<caldb::QueryResult> result =
        caldb::Status::Internal("not run");
    const int64_t t0 = NowNs();
    if (tracer == nullptr) {
      result = fx->session->Execute(text);
    } else {
      ScopedSpan op(tracer, write ? "op.write" : "op.read");
      caldb::Result<caldb::PreparedStatement> stmt =
          caldb::Status::Internal("not run");
      {
        ScopedSpan span(tracer, "engine.prepare");
        stmt = fx->session->Prepare(text);
      }
      if (stmt.ok()) {
        ScopedSpan span(tracer, "engine.execute");
        result = stmt->Execute();
      } else {
        result = stmt.status();
      }
      ScopedSpan span(tracer, "db.parse");
      if (!caldb::Database::Prepare(text).ok()) report->Fail("db parse");
    }
    const int64_t ns = NowNs() - t0;
    if (!result.ok()) {
      report->Fail(text + ": " + result.status().ToString());
      continue;
    }
    if (write) {
      if (result->affected != 1) {
        report->Fail(text + ": affected " + std::to_string(result->affected));
        continue;
      }
      fx->balances[id] = balance;
      phase->windows.Add(Windows::kHeavy, ns);
    } else {
      caldb::Result<int64_t> got =
          result->rows.size() == 1 && result->rows[0].size() == 1
              ? result->rows[0][0].AsInt()
              : caldb::Result<int64_t>(caldb::Status::Internal("shape"));
      if (!got.ok() || *got != fx->balances[id]) {
        report->Fail(text + ": wrong row");
        continue;
      }
      phase->windows.Add(Windows::kLight, ns);
    }
  }
  phase->elapsed_ns += NowNs() - start;
  phase->windows.End();
}

// `rounds` rounds sharing `seconds`, each on a freshly set-up engine (the
// previous one torn down first, so peak RSS is one engine's).
Phase RunPhase(uint64_t seed, int rows, Rng* rng, double seconds, int rounds,
               Tracer* tracer, Report* report) {
  Phase phase;
  std::unique_ptr<Fixture> fx;
  for (int r = 0; r < rounds; ++r) {
    fx.reset();
    ReleaseFreedMemory();
    const int64_t s0 = NowNs();
    fx = Setup(seed, rows);
    phase.setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);
    caldb::obs::MetricRegistry::Global().ResetAll();
    const caldb::StatementCache::Stats before =
        fx->engine->StatementCacheStats();
    RunRound(fx.get(), rng, seconds / rounds, tracer, &phase, report);
    const caldb::StatementCache::Stats after =
        fx->engine->StatementCacheStats();
    phase.counters.Add();
    phase.cache_hits += after.hits - before.hits;
    phase.cache_lookups +=
        after.hits - before.hits + after.misses - before.misses;
    phase.cache_evictions += after.evictions - before.evictions;
  }
  return phase;
}

}  // namespace

void RunOltpLiteral(const Options& opts, Report* report) {
  const int rows = opts.smoke ? 2000 : 100000;
  report->meta["rows"] = std::to_string(rows);
  report->meta["engine_options"] = "default (in-memory)";
  Rng rng(opts.seed);

  if (!opts.trace) {
    Phase p = RunPhase(opts.seed, rows, &rng, opts.seconds, kRounds, nullptr,
                       report);
    ReportEndToEnd(report, p.setup_s, p.windows);
    return;
  }

  // Trace mode: an untraced half gives the counter deltas and the
  // throughput the overhead is measured against; a traced half gives the
  // spans.
  Phase plain = RunPhase(opts.seed, rows, &rng, opts.seconds / 2,
                         kRounds / 2, nullptr, report);
  const double ops = static_cast<double>(plain.ops);
  report->Set("engine.stmt_cache.hit_ratio",
              Ratio(plain.cache_hits, plain.cache_lookups), "ratio");
  report->Set("engine.stmt_cache.evictions_per_op",
              Ratio(plain.cache_evictions, ops), "count/op");
  // Histograms are read from the last round only.
  report->Set("engine.table_lock_wait_ns_p99",
              HistogramPercentile("caldb.engine.table_locks.wait_ns", 99),
              "ns");
  ReportDbCounters(report, plain.counters, ops);

  Tracer tracer;
  Phase traced = RunPhase(opts.seed, rows, &rng, opts.seconds / 2,
                          kRounds / 2, &tracer, report);
  std::map<std::string, double> self = tracer.MedianSelfUs();
  report->Set("engine.prepare_us", self["engine.prepare"], "us");
  report->Set("engine.execute_us", self["engine.execute"], "us");
  report->Set("db.parse_us", self["db.parse"], "us");
  report->Set("obs.trace_overhead_pct",
              OverheadPct(Ratio(ops * 1e9, plain.elapsed_ns),
                          Ratio(traced.ops * 1e9, traced.elapsed_ns)),
              "%");
  tracer.Dump(opts.out_dir + "/oltp_literal.spans.csv", 100000);
}

}  // namespace perfbench
