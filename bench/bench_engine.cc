// PERF-9: multi-threaded engine throughput — queries/sec through
// caldb::Engine at 1/2/4/8 client threads, read-heavy and mixed
// workloads.
//
// Read-heavy: indexed point retrieves only; every statement takes the
// shared side of the engine's reader/writer lock, so throughput should
// scale with cores (the ISSUE-4 acceptance bar: >= 2.5x from 1 -> 4
// threads on hardware with >= 4 cores; on a single-core host the curve
// is necessarily flat).
//
// Mixed: 90% indexed point retrieves + 10% point replaces, so one in ten
// statements takes the exclusive lock.  The spread between the two curves
// is the cost of writer serialization.
//
// Cal-script: each thread evaluates calendar scripts on its own Session
// (private evaluator + gen-cache); after the first iteration everything
// hits the session cache, so this curve measures the catalog's shared
// read path.
//
// Multi-table mixed: N tables, each thread owning a disjoint write set —
// 50% replaces into its own table, 50% range reads of it.  Writers never
// collide, so this measures what the LockManager's per-table footprint
// locking buys; the single-global-mutex baseline it was measured against
// is frozen in EXPERIMENTS.md (PERF-9).
//
// Google Benchmark's ->Threads(t) runs the loop in t OS threads; each
// thread holds its own Session, as a real client would.  qps counters are
// rates summed across threads.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "caldb.h"

namespace caldb {
namespace {

constexpr int kRows = 1000;

// One engine per process, built on first use and shared by every
// benchmark thread (sessions are per-thread; the engine is the shared
// thread-safe object under test).
Engine& SharedEngine() {
  static Engine* engine = [] {
    EngineOptions opts;
    opts.pool_threads = 4;
    auto owned = Engine::Create(opts).value();
    auto session = owned->CreateSession();
    auto must = [](const Result<QueryResult>& r) {
      if (!r.ok()) {
        std::fprintf(stderr, "bench setup failed: %s\n",
                     r.status().ToString().c_str());
        std::abort();
      }
    };
    must(session->Execute("create table accounts (id int, balance int)"));
    must(session->Execute("create index on accounts (id)"));
    for (int i = 0; i < kRows; ++i) {
      must(session->Execute("append accounts (id = " + std::to_string(i) +
                            ", balance = " + std::to_string(100 * i) + ")"));
    }
    must(session->Execute(
        "define calendar BenchTuesdays as [2]/DAYS:during:WEEKS"));
    return owned.release();
  }();
  return *engine;
}

constexpr int kTables = 8;
constexpr int kRowsPerTable = 200;

// Builds an engine with kTables identical indexed tables
// wset_0..wset_{N-1}.
Engine* MakeMultiTableEngine() {
  EngineOptions opts;
  opts.pool_threads = 4;
  auto owned = Engine::Create(opts).value();
  auto session = owned->CreateSession();
  for (int t = 0; t < kTables; ++t) {
    std::string table = "wset_" + std::to_string(t);
    auto created = session->Execute("create table " + table + " (id int, v int)");
    if (!created.ok()) std::abort();
    auto indexed = session->Execute("create index on " + table + " (id)");
    if (!indexed.ok()) std::abort();
    for (int i = 0; i < kRowsPerTable; ++i) {
      auto appended = session->Execute("append " + table +
                                       " (id = " + std::to_string(i) +
                                       ", v = 0)");
      if (!appended.ok()) std::abort();
    }
  }
  return owned.release();
}

// 50% indexed point replaces + 50% half-table range retrieves, each
// thread confined to its own table (table index = thread index mod
// kTables), so write sets — and whole footprints — are disjoint by
// construction.  Both statements are prepared once and bound per call,
// so the loop measures lock scheduling, not parsing.  The range read is
// deliberately scan-heavy: under a global mutex it would hold the shared
// side long enough that every other thread's replace blocks behind it
// (the classic convoy); under per-table locks disjoint threads never
// touch the same lock word beyond the shared intent layer, so nobody
// ever sleeps.
void BM_EngineMultiTableMixed(benchmark::State& state) {
  static Engine* engine = MakeMultiTableEngine();
  auto session = engine->CreateSession();
  const std::string table =
      "wset_" + std::to_string(state.thread_index() % kTables);
  auto read = session->Prepare("retrieve (w.v) from w in " + table +
                               " where w.id < $1");
  auto write = session->Prepare("replace w in " + table +
                                " (v = $1) where w.id = $2");
  if (!read.ok() || !write.ok()) {
    state.SkipWithError("prepare failed");
    return;
  }
  int key = state.thread_index() * 17;
  int64_t i = 0;
  for (auto _ : state) {
    key = (key + 13) % kRowsPerTable;
    Result<QueryResult> r =
        (++i % 2 == 0)
            ? write->Execute({Value::Int(i), Value::Int(key)})
            : read->Execute({Value::Int(kRowsPerTable / 2)});
    if (!r.ok()) {
      state.SkipWithError("multi-table statement failed");
      break;
    }
    benchmark::DoNotOptimize(r->message);
  }
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_EngineReadHeavy(benchmark::State& state) {
  Engine& engine = SharedEngine();
  auto session = engine.CreateSession();
  int key = state.thread_index() * 37;  // de-correlate threads
  for (auto _ : state) {
    key = (key + 13) % kRows;
    auto rows = session->Execute(
        "retrieve (a.balance) from a in accounts where a.id = " +
        std::to_string(key));
    if (!rows.ok() || rows->rows.size() != 1) {
      state.SkipWithError("point read failed");
      break;
    }
    benchmark::DoNotOptimize(rows->rows);
  }
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_EngineMixed(benchmark::State& state) {
  Engine& engine = SharedEngine();
  auto session = engine.CreateSession();
  int key = state.thread_index() * 41;
  int64_t i = 0;
  for (auto _ : state) {
    key = (key + 13) % kRows;
    // Every 10th statement is a point replace: same row population, but
    // the statement classifies as a write and takes the exclusive lock.
    Result<QueryResult> r =
        (++i % 10 == 0)
            ? session->Execute(
                  "replace a in accounts (balance = " + std::to_string(i) +
                  ") where a.id = " + std::to_string(key))
            : session->Execute(
                  "retrieve (a.balance) from a in accounts where a.id = " +
                  std::to_string(key));
    if (!r.ok()) {
      state.SkipWithError("mixed statement failed");
      break;
    }
    benchmark::DoNotOptimize(r->message);
  }
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_EngineCalScript(benchmark::State& state) {
  Engine& engine = SharedEngine();
  auto session = engine.CreateSession();
  for (auto _ : state) {
    auto value = session->Execute("cal BenchTuesdays:intersects:MONTHS");
    if (!value.ok()) {
      state.SkipWithError("cal script failed");
      break;
    }
    benchmark::DoNotOptimize(value->message);
  }
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_EngineExecuteBatch(benchmark::State& state) {
  // The pool path: one client shipping a 64-statement read batch to the
  // engine's worker pool (pool_threads = 4).
  Engine& engine = SharedEngine();
  std::vector<std::string> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back("retrieve (a.balance) from a in accounts where a.id = " +
                    std::to_string((i * 13) % kRows));
  }
  for (auto _ : state) {
    auto results = engine.ExecuteBatch(batch);
    for (const auto& r : results) {
      if (!r.ok()) {
        state.SkipWithError("batch statement failed");
        return;
      }
    }
    benchmark::DoNotOptimize(results);
  }
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * batch.size(),
      benchmark::Counter::kIsRate);
}

BENCHMARK(BM_EngineReadHeavy)->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_EngineMixed)->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_EngineCalScript)->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_EngineExecuteBatch)->UseRealTime();
BENCHMARK(BM_EngineMultiTableMixed)->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();

}  // namespace
}  // namespace caldb
