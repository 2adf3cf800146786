// PERF-4: the sweep kernels against the quadratic reference join on dense
// DAYS-scale operands (10k..1M intervals).  BM_SweepJoin*/BM_NaiveJoin* at
// the same arg are the before/after pair for the listop rewrite; the naive
// side is capped at 100k (beyond that the quadratic loop takes minutes).
// BM_WindowSlice/BM_WindowCopy pair the zero-copy window filter with a
// copy of the same range.  Counter deltas (caldb.sweep.*) ride along in
// the BENCH JSON lines.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/algebra.h"
#include "core/generate.h"
#include "core/sweep.h"

namespace caldb {
namespace {

// n day-point singletons (1,1),(2,2),... — the dense lhs.
std::vector<Interval> DayPoints(int64_t n) {
  std::vector<Interval> v;
  v.reserve(n);
  for (int64_t i = 1; i <= n; ++i) v.push_back({i, i});
  return v;
}

// Consecutive 30-day blocks covering the same span — the grouping rhs.
std::vector<Interval> Blocks(int64_t n, int64_t width) {
  std::vector<Interval> v;
  for (int64_t lo = 1; lo + width - 1 <= n; lo += width) {
    v.push_back({lo, lo + width - 1});
  }
  return v;
}

void BM_SweepJoinDuring(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<Interval> days = DayPoints(n);
  std::vector<Interval> blocks = Blocks(n, 30);
  for (auto _ : state) {
    int64_t emits = 0;
    SweepJoin(days, ListOp::kDuring, blocks, /*lhs_hi_monotone=*/true,
              [&](size_t b, size_t e, size_t) { emits += e - b; });
    benchmark::DoNotOptimize(emits);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SweepJoinDuring)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_NaiveJoinDuring(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<Interval> days = DayPoints(n);
  std::vector<Interval> blocks = Blocks(n, 30);
  for (auto _ : state) {
    int64_t emits = 0;
    naive::Join(days, ListOp::kDuring, blocks,
                [&](size_t, size_t) { ++emits; });
    benchmark::DoNotOptimize(emits);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NaiveJoinDuring)->Arg(10000)->Arg(100000);

void BM_SweepJoinOverlaps(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<Interval> days = DayPoints(n);
  std::vector<Interval> weeks = Blocks(n, 7);
  for (auto _ : state) {
    int64_t emits = 0;
    SweepJoin(days, ListOp::kOverlaps, weeks, /*lhs_hi_monotone=*/true,
              [&](size_t b, size_t e, size_t) { emits += e - b; });
    benchmark::DoNotOptimize(emits);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SweepJoinOverlaps)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_NaiveJoinOverlaps(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<Interval> days = DayPoints(n);
  std::vector<Interval> weeks = Blocks(n, 7);
  for (auto _ : state) {
    int64_t emits = 0;
    naive::Join(days, ListOp::kOverlaps, weeks,
                [&](size_t, size_t) { ++emits; });
    benchmark::DoNotOptimize(emits);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NaiveJoinOverlaps)->Arg(10000)->Arg(100000);

// `<` has a gallop fast path: the whole prefix is emitted per rhs element.
void BM_SweepJoinBefore(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<Interval> days = DayPoints(n);
  std::vector<Interval> probes = {{n - 100, n - 50}};
  for (auto _ : state) {
    int64_t emits = 0;
    SweepJoin(days, ListOp::kBefore, probes, /*lhs_hi_monotone=*/true,
              [&](size_t b, size_t e, size_t) { emits += e - b; });
    benchmark::DoNotOptimize(emits);
  }
}
BENCHMARK(BM_SweepJoinBefore)->Arg(100000)->Arg(1000000);

// Full library path at the acceptance scale: foreach over an order-1 rhs
// (one sweep for all children) on 100k-interval operands.
void BM_ForEachDuringDense(benchmark::State& state) {
  const int64_t n = state.range(0);
  Calendar days = Calendar::Order1(Granularity::kDays, DayPoints(n));
  Calendar blocks = Calendar::Order1(Granularity::kDays, Blocks(n, 30));
  for (auto _ : state) {
    auto r = ForEach(days, ListOp::kDuring, blocks, true);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ForEachDuringDense)->Arg(10000)->Arg(100000)->Arg(1000000);

// The evaluator's window filter on a stored value calendar: 30 years of
// DAYS values against a 2-year window in the middle.  The relaxed
// overlaps filter on a hi-monotone operand is a zero-copy slice (two
// binary searches, no sweep); BM_WindowCopy materializes the same range
// into a fresh rep, the cost the slice removes.
Calendar ThirtyYearsOfDays() {
  return Calendar::Order1(Granularity::kDays, DayPoints(30 * 365));
}

// Years 15 and 16 of `days`.
Interval TwoYearWindow(const Calendar& days) {
  const TimePoint first = days.intervals().front().lo;
  return Interval{first + 14 * 365, first + 16 * 365 - 1};
}

void BM_WindowSlice(benchmark::State& state) {
  const Calendar days = ThirtyYearsOfDays();
  const Interval window = TwoYearWindow(days);
  for (auto _ : state) {
    auto r = ForEachInterval(days, ListOp::kOverlaps, window, false);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WindowSlice);

void BM_WindowCopy(benchmark::State& state) {
  const Calendar days = ThirtyYearsOfDays();
  const Interval window = TwoYearWindow(days);
  for (auto _ : state) {
    auto slice = ForEachInterval(days, ListOp::kOverlaps, window, false);
    IntervalSpan v = slice->intervals();
    auto r = Calendar::Order1(Granularity::kDays,
                              std::vector<Interval>(v.begin(), v.end()));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WindowCopy);

void BM_SweepUnionDense(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<Interval> a;
  std::vector<Interval> b;
  for (int64_t i = 1; i <= n; i += 2) {
    a.push_back({i, i});
    b.push_back({i + 1, i + 1});
  }
  for (auto _ : state) {
    auto r = SweepUnion(a, b);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SweepUnionDense)->Arg(100000)->Arg(1000000);

void BM_SweepDifferenceDense(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<Interval> a = DayPoints(n);
  std::vector<Interval> b;
  for (int64_t i = 6; i <= n; i += 7) b.push_back({i, i});  // drop every 7th
  for (auto _ : state) {
    auto r = SweepDifference(a, b);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SweepDifferenceDense)->Arg(100000)->Arg(1000000);

void BM_SweepGroupDense(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<Interval> days = DayPoints(n);
  for (auto _ : state) {
    auto r = SweepGroup(days, std::nullopt, {7});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SweepGroupDense)->Arg(100000)->Arg(1000000);

}  // namespace
}  // namespace caldb
