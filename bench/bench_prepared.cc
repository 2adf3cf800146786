// The parse-once pipeline's dividend: cached / prepared execution versus
// parse-per-call.
//
//  - BM_CompileStatement: raw CompileStatement cost per statement shape —
//    the price every cache miss pays, and what the old pipeline paid on
//    EVERY execution.
//  - BM_ExecuteUncached: Engine::Execute with the statement cache
//    disabled (stmt_cache_entries = 0): the pre-refactor behaviour,
//    parse + classify + execute per call.
//  - BM_ExecuteCached: the same statement through the shared cache —
//    steady state is a hash lookup returning the shared handle.
//  - BM_ExecuteLiteral: a distinct literal text per call with the cache
//    on — the literals are lifted into $n slots, so every call hits one
//    shape entry and binds its own values (no parse per literal).
//  - BM_ExecutePrepared: Session::Prepare once, handle.Execute() in the
//    loop — no text, no lookup, the floor of the pipeline.
//  - BM_ExecuteParameterized: the same prepared handle with a $1
//    placeholder, a fresh bind list per call — what binding costs over
//    the constant-text floor; BM_ExecuteLiteral minus this rung is what
//    the text path adds: lifting, the session verbs and the lookup.
//  - BM_RuleFireThroughput: DBCRON firings per second with the action
//    pre-compiled at declaration (firings never parse).
//
// The claim: cached, literal and prepared execution beat parse-per-call
// on the same statement; the gap is the parse cost that the cache
// amortizes to zero.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "caldb.h"

namespace caldb {
namespace {

constexpr int kRows = 256;

std::unique_ptr<Engine> MakeEngine(size_t cache_entries) {
  EngineOptions opts;
  opts.pool_threads = 1;
  opts.stmt_cache_entries = cache_entries;
  auto engine = Engine::Create(opts).value();
  auto session = engine->CreateSession();
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
  return engine;
}

const std::string kPointRead =
    "retrieve (a.balance) from a in accounts where a.id = 37";

void BM_CompileStatement(benchmark::State& state) {
  for (auto _ : state) {
    auto compiled = CompileStatement(kPointRead);
    if (!compiled.ok()) {
      state.SkipWithError("compile failed");
      break;
    }
    benchmark::DoNotOptimize(compiled);
  }
  state.counters["compiles_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_ExecuteUncached(benchmark::State& state) {
  auto engine = MakeEngine(/*cache_entries=*/0);
  auto session = engine->CreateSession();
  for (auto _ : state) {
    auto rows = session->Execute(kPointRead);
    if (!rows.ok() || rows->rows.size() != 1) {
      state.SkipWithError("uncached read failed");
      break;
    }
    benchmark::DoNotOptimize(rows->rows);
  }
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_ExecuteCached(benchmark::State& state) {
  auto engine = MakeEngine(/*cache_entries=*/512);
  auto session = engine->CreateSession();
  for (auto _ : state) {
    auto rows = session->Execute(kPointRead);
    if (!rows.ok() || rows->rows.size() != 1) {
      state.SkipWithError("cached read failed");
      break;
    }
    benchmark::DoNotOptimize(rows->rows);
  }
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_ExecuteLiteral(benchmark::State& state) {
  auto engine = MakeEngine(/*cache_entries=*/512);
  auto session = engine->CreateSession();
  // The balance bound differs on every call (and always holds), so no
  // text repeats, as in a client that formats its values into the text.
  int64_t i = 0;
  for (auto _ : state) {
    auto rows = session->Execute(
        "retrieve (a.balance) from a in accounts where a.id = " +
        std::to_string(i % kRows) + " and a.balance < " +
        std::to_string(1000000 + i));
    ++i;
    if (!rows.ok() || rows->rows.size() != 1) {
      state.SkipWithError("literal read failed");
      break;
    }
    benchmark::DoNotOptimize(rows->rows);
  }
  state.counters["stmt_cache_size"] =
      static_cast<double>(engine->StatementCacheStats().size);
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_ExecutePrepared(benchmark::State& state) {
  auto engine = MakeEngine(/*cache_entries=*/512);
  auto session = engine->CreateSession();
  auto prepared = session->Prepare(kPointRead);
  if (!prepared.ok()) {
    state.SkipWithError("prepare failed");
    return;
  }
  for (auto _ : state) {
    auto rows = prepared->Execute();
    if (!rows.ok() || rows->rows.size() != 1) {
      state.SkipWithError("prepared read failed");
      break;
    }
    benchmark::DoNotOptimize(rows->rows);
  }
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_ExecuteParameterized(benchmark::State& state) {
  auto engine = MakeEngine(/*cache_entries=*/512);
  auto session = engine->CreateSession();
  auto prepared = session->Prepare(
      "retrieve (a.balance) from a in accounts where a.id = $1");
  if (!prepared.ok()) {
    state.SkipWithError("prepare failed");
    return;
  }
  int64_t i = 0;
  for (auto _ : state) {
    auto rows = prepared->Execute({Value::Int(i++ % kRows)});
    if (!rows.ok() || rows->rows.size() != 1) {
      state.SkipWithError("parameterized read failed");
      break;
    }
    benchmark::DoNotOptimize(rows->rows);
  }
  // One statement shape no matter how many distinct values ran.
  state.counters["stmt_cache_size"] =
      static_cast<double>(engine->StatementCacheStats().size);
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_RuleFireThroughput(benchmark::State& state) {
  // A daily rule whose action was compiled at declaration; each iteration
  // advances the clock one day = one parse-free firing.
  auto engine = MakeEngine(/*cache_entries=*/512);
  auto session = engine->CreateSession();
  auto declared = session->Execute(
      "declare rule tick on DAYS do append accounts (id = 999, balance = 0)");
  if (!declared.ok()) {
    state.SkipWithError("declare failed");
    return;
  }
  TimePoint day = engine->Now();
  for (auto _ : state) {
    if (!engine->AdvanceTo(++day).ok()) {
      state.SkipWithError("advance failed");
      break;
    }
  }
  state.counters["fires_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

BENCHMARK(BM_CompileStatement);
BENCHMARK(BM_ExecuteUncached);
BENCHMARK(BM_ExecuteCached);
BENCHMARK(BM_ExecuteLiteral);
BENCHMARK(BM_ExecutePrepared);
BENCHMARK(BM_ExecuteParameterized);
BENCHMARK(BM_RuleFireThroughput);

}  // namespace
}  // namespace caldb
