// PERF-11: the per-call cost of telemetry.
//
//   BM_ClockRead          one obs::NowNs() (steady_clock) read
//   BM_Span/threads:T     start and finish one empty span on the global
//                         tracer, T threads at once (each its own spans)
//   BM_SpanWithAttr       the same with the one attribute engine.execute
//                         carries ("lock")
//   BM_PointRead/obs:B    an indexed point retrieve through
//                         Session::Execute with telemetry on (1) or off
//                         (0, obs::SetEnabled(false)); the difference is
//                         what one statement's timeline costs
//
// Run with the global tracer as a server runs it: enabled, ring full
// after the first few thousand iterations.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "caldb.h"
#include "obs/obs.h"

namespace caldb {
namespace {

void BM_ClockRead(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(obs::NowNs());
}

void BM_Span(benchmark::State& state) {
  for (auto _ : state) {
    obs::Tracer::Span span = obs::StartSpan("bench.span");
    benchmark::DoNotOptimize(span.id());
  }
}

void BM_SpanWithAttr(benchmark::State& state) {
  for (auto _ : state) {
    obs::Tracer::Span span = obs::StartSpan("bench.span");
    span.AddAttr("lock", "table-read");
    benchmark::DoNotOptimize(span.id());
  }
}

constexpr int kRows = 1000;

Engine& PointReadEngine() {
  static Engine* engine = [] {
    auto owned = Engine::Create().value();
    auto session = owned->CreateSession();
    bool ok = session->Execute("create table accounts (id int, balance int)")
                  .ok() &&
              session->Execute("create index on accounts (id)").ok();
    for (int i = 0; ok && i < kRows; ++i) {
      ok = session
               ->Execute("append accounts (id = " + std::to_string(i) +
                         ", balance = " + std::to_string(100 * i) + ")")
               .ok();
    }
    if (!ok) std::abort();
    return owned.release();
  }();
  return *engine;
}

void BM_PointRead(benchmark::State& state) {
  const bool obs_on = state.range(0) != 0;
  auto session = PointReadEngine().CreateSession();
  obs::SetEnabled(obs_on);
  int key = 0;
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
  obs::SetEnabled(true);
}

BENCHMARK(BM_ClockRead);
BENCHMARK(BM_Span)->Threads(1)->Threads(4)->Threads(8);
BENCHMARK(BM_SpanWithAttr);
BENCHMARK(BM_PointRead)->ArgName("obs")->Arg(1)->Arg(0);

}  // namespace
}  // namespace caldb
