// Differential harness for the sweep kernels: every listop / set operator /
// grouping application is run through both the library (sweep-based) path
// and a naive quadratic reference written straight from the paper's
// definitions, over seeded random calendars — outputs must be bit-identical
// (Calendar::operator==, which compares granularity, order, and every
// interval).  Plus regression cases for the epoch-straddling skip-zero
// audit and the selection out-of-range contract.

#include "core/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

#include "core/algebra.h"
#include "core/generate.h"

namespace caldb {
namespace {

Calendar Days(std::vector<Interval> v) {
  return Calendar::Order1(Granularity::kDays, std::move(v));
}

// --- naive reference operators (kept deliberately dumb) ---------------------

Calendar NaiveForEachOne(const Calendar& c, ListOp op, const Interval& r,
                         bool strict) {
  const bool clip = strict && ListOpClipsUnderStrict(op);
  std::vector<Interval> out;
  for (const Interval& ci : c.intervals()) {
    if (!EvalListOp(op, ci, r)) continue;
    if (clip) {
      std::optional<Interval> x = Intersect(ci, r);
      if (!x) continue;
      out.push_back(*x);
    } else {
      out.push_back(ci);
    }
  }
  return Calendar::Order1(c.granularity(), std::move(out));
}

Calendar NaiveForEachImpl(const Calendar& c, ListOp op, const Calendar& rhs,
                          bool strict, bool collapse_singleton) {
  if (rhs.order() == 1) {
    if (collapse_singleton && rhs.IsSingleton()) {
      return NaiveForEachOne(c, op, rhs.intervals().front(), strict);
    }
    std::vector<Calendar> children;
    for (const Interval& i : rhs.intervals()) {
      children.push_back(NaiveForEachOne(c, op, i, strict));
    }
    return Calendar::Nested(c.granularity(), std::move(children), 2);
  }
  std::vector<Calendar> children;
  for (const Calendar& rc : rhs.children()) {
    children.push_back(NaiveForEachImpl(c, op, rc, strict, false));
  }
  return Calendar::Nested(c.granularity(), std::move(children),
                          rhs.order() + 1);
}

Calendar NaiveForEach(const Calendar& c, ListOp op, const Calendar& rhs,
                      bool strict) {
  if (op == ListOp::kIntersects) {
    Calendar flat = rhs.order() == 1 ? rhs : rhs.Flattened();
    std::vector<Interval> out;
    if (strict) {
      for (const Interval& ci : c.intervals()) {
        for (const Interval& ri : flat.intervals()) {
          if (std::optional<Interval> x = Intersect(ci, ri)) out.push_back(*x);
        }
      }
    } else {
      for (const Interval& ci : c.intervals()) {
        for (const Interval& ri : flat.intervals()) {
          if (IntervalOverlaps(ci, ri)) {
            out.push_back(ci);
            break;
          }
        }
      }
    }
    return Calendar::Order1(c.granularity(), std::move(out));
  }
  return NaiveForEachImpl(c, op, rhs, strict, true);
}

// The seed's union: concatenate, sort, merge overlapping (adjacent kept).
Calendar NaiveUnion(const Calendar& a, const Calendar& b) {
  std::vector<Interval> merged(a.intervals().begin(), a.intervals().end());
  merged.insert(merged.end(), b.intervals().begin(), b.intervals().end());
  std::sort(merged.begin(), merged.end(),
            [](const Interval& x, const Interval& y) {
              return x.lo != y.lo ? x.lo < y.lo : x.hi < y.hi;
            });
  std::vector<Interval> out;
  for (const Interval& i : merged) {
    if (!out.empty() && i.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, i.hi);
    } else {
      out.push_back(i);
    }
  }
  return Calendar::Order1(a.granularity(), std::move(out));
}

// Per-minuend full scan of the subtrahend, remainder in offset space.
Calendar NaiveDifference(const Calendar& a, const Calendar& b) {
  std::vector<Interval> out;
  for (const Interval& ai : a.intervals()) {
    int64_t lo_off = PointToOffset(ai.lo);
    const int64_t hi_off = PointToOffset(ai.hi);
    bool consumed = false;
    for (const Interval& bi : b.intervals()) {
      const int64_t blo = PointToOffset(bi.lo);
      const int64_t bhi = PointToOffset(bi.hi);
      if (bhi < lo_off || blo > hi_off) continue;
      if (blo > lo_off) {
        out.push_back(Interval{OffsetToPoint(lo_off), OffsetToPoint(blo - 1)});
      }
      lo_off = bhi + 1;
      if (lo_off > hi_off) {
        consumed = true;
        break;
      }
    }
    if (!consumed) {
      out.push_back(Interval{OffsetToPoint(lo_off), OffsetToPoint(hi_off)});
    }
  }
  return Calendar::Order1(a.granularity(), std::move(out));
}

Calendar NaiveIntersection(const Calendar& a, const Calendar& b) {
  std::vector<Interval> out;
  for (const Interval& ai : a.intervals()) {
    for (const Interval& bi : b.intervals()) {
      if (std::optional<Interval> x = Intersect(ai, bi)) out.push_back(*x);
    }
  }
  return Calendar::Order1(a.granularity(), std::move(out));
}

// The seed's caloperate grouping loop, verbatim.
Calendar NaiveCalOperate(const Calendar& c, std::optional<TimePoint> te,
                         const std::vector<int64_t>& groups) {
  std::vector<Interval> out;
  size_t i = 0;
  size_t group_idx = 0;
  IntervalSpan src = c.intervals();
  while (i < src.size()) {
    if (te && src[i].hi > *te) break;
    const int64_t want = groups[group_idx % groups.size()];
    ++group_idx;
    const Interval first = src[i];
    Interval last = first;
    int64_t taken = 0;
    while (i < src.size() && taken < want) {
      if (te && src[i].hi > *te) break;
      last = src[i];
      ++i;
      ++taken;
    }
    if (taken == 0) break;
    out.push_back(Interval{first.lo, last.hi});
  }
  return Calendar::Order1(c.granularity(), std::move(out));
}

// --- seeded random calendar generators --------------------------------------

using Rng = std::mt19937_64;

int64_t Uniform(Rng& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

// Disjoint sorted run (possibly adjacent intervals), offset-space cursor so
// runs can straddle the epoch gap.
std::vector<Interval> RandomDisjoint(Rng& rng, int count, int64_t start_off) {
  std::vector<Interval> v;
  int64_t off = start_off;
  for (int i = 0; i < count; ++i) {
    const int64_t lo = off + Uniform(rng, 0, 3);
    const int64_t hi = lo + Uniform(rng, 0, 4);
    v.push_back({OffsetToPoint(lo), OffsetToPoint(hi)});
    off = hi + 1;
  }
  return v;
}

// Arbitrarily overlapping intervals (still sorted by Calendar::Order1).
std::vector<Interval> RandomMessy(Rng& rng, int count, int64_t start_off,
                                  int64_t span) {
  std::vector<Interval> v;
  for (int i = 0; i < count; ++i) {
    const int64_t lo = start_off + Uniform(rng, 0, span);
    const int64_t hi = lo + Uniform(rng, 0, 8);
    v.push_back({OffsetToPoint(lo), OffsetToPoint(hi)});
  }
  return v;
}

Calendar RandomOrder1(Rng& rng, int max_count) {
  const int count = static_cast<int>(Uniform(rng, 0, max_count));
  const int64_t start = Uniform(rng, -40, 40);  // often straddles the epoch
  if (Uniform(rng, 0, 1) == 0) {
    return Days(RandomDisjoint(rng, count, start));
  }
  return Days(RandomMessy(rng, count, start, 60));
}

Calendar RandomRhs(Rng& rng) {
  switch (Uniform(rng, 0, 3)) {
    case 0:  // singleton — exercises the order-collapse path
      return Days(RandomDisjoint(rng, 1, Uniform(rng, -30, 30)));
    case 1:
    case 2:
      return RandomOrder1(rng, 8);
    default: {  // order-2
      std::vector<Calendar> children;
      const int nchild = static_cast<int>(Uniform(rng, 1, 3));
      for (int i = 0; i < nchild; ++i) children.push_back(RandomOrder1(rng, 5));
      return Calendar::Nested(Granularity::kDays, std::move(children), 2);
    }
  }
}

constexpr ListOp kForeachOps[] = {ListOp::kOverlaps, ListOp::kDuring,
                                  ListOp::kMeets, ListOp::kBefore,
                                  ListOp::kBeforeEq};

// --- the differential sweep --------------------------------------------------

TEST(SweepDifferentialTest, AllOperatorsMatchNaiveReference) {
  Rng rng(0xCA1DB5EEDull);  // fixed seed: fully deterministic
  int64_t applications = 0;
  for (int trial = 0; trial < 700; ++trial) {
    const Calendar lhs = RandomOrder1(rng, 25);
    const Calendar rhs = RandomRhs(rng);
    const Interval probe{OffsetToPoint(Uniform(rng, -30, 30)),
                         OffsetToPoint(Uniform(rng, 31, 70))};

    for (ListOp op : kForeachOps) {
      for (bool strict : {true, false}) {
        auto got = ForEach(lhs, op, rhs, strict);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        Calendar want = NaiveForEach(lhs, op, rhs, strict);
        ASSERT_TRUE(*got == want)
            << "op=" << ListOpName(op) << " strict=" << strict
            << "\nlhs=" << lhs.ToString() << "\nrhs=" << rhs.ToString()
            << "\ngot=" << got->ToString() << "\nwant=" << want.ToString();
        ++applications;
        auto got_i = ForEachInterval(lhs, op, probe, strict);
        ASSERT_TRUE(got_i.ok());
        Calendar want_i = NaiveForEachOne(lhs, op, probe, strict);
        ASSERT_TRUE(*got_i == want_i)
            << "op=" << ListOpName(op) << " strict=" << strict
            << "\nlhs=" << lhs.ToString() << "\nprobe=" << FormatInterval(probe)
            << "\ngot=" << got_i->ToString() << "\nwant=" << want_i.ToString();
        ++applications;
      }
    }

    // Relaxed `intersects` is an overlap semi-join — correct for arbitrary
    // sorted operands, so it gets the messy inputs too.
    {
      auto got = ForEach(lhs, ListOp::kIntersects, rhs, /*strict=*/false);
      ASSERT_TRUE(got.ok());
      Calendar want = NaiveForEach(lhs, ListOp::kIntersects, rhs, false);
      ASSERT_TRUE(*got == want)
          << "relaxed intersects\nlhs=" << lhs.ToString()
          << "\nrhs=" << rhs.ToString() << "\ngot=" << got->ToString()
          << "\nwant=" << want.ToString();
      ++applications;
    }

    // Set operators and strict `intersects`: point-set operands (disjoint
    // runs — the documented normal form for the set layer).
    const Calendar a = Days(RandomDisjoint(
        rng, static_cast<int>(Uniform(rng, 0, 20)), Uniform(rng, -30, 10)));
    const Calendar b = Days(RandomDisjoint(
        rng, static_cast<int>(Uniform(rng, 0, 20)), Uniform(rng, -30, 10)));
    {
      auto got = ForEach(a, ListOp::kIntersects, b, /*strict=*/true);
      ASSERT_TRUE(got.ok());
      Calendar want = NaiveForEach(a, ListOp::kIntersects, b, true);
      ASSERT_TRUE(*got == want)
          << "strict intersects\na=" << a.ToString() << "\nb=" << b.ToString()
          << "\ngot=" << got->ToString() << "\nwant=" << want.ToString();
      ++applications;
    }
    auto u = Union(a, b);
    ASSERT_TRUE(u.ok());
    ASSERT_TRUE(*u == NaiveUnion(a, b))
        << "a=" << a.ToString() << " b=" << b.ToString()
        << "\ngot=" << u->ToString();
    auto d = Difference(a, b);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(*d == NaiveDifference(a, b))
        << "a=" << a.ToString() << " b=" << b.ToString()
        << "\ngot=" << d->ToString();
    auto x = Intersection(a, b);
    ASSERT_TRUE(x.ok());
    ASSERT_TRUE(*x == NaiveIntersection(a, b))
        << "a=" << a.ToString() << " b=" << b.ToString()
        << "\ngot=" << x->ToString();
    applications += 3;

    // caloperate grouping, sometimes with a te cutoff at/near the epoch.
    std::vector<int64_t> groups;
    const int ngroups = static_cast<int>(Uniform(rng, 1, 3));
    for (int i = 0; i < ngroups; ++i) groups.push_back(Uniform(rng, 1, 5));
    std::optional<TimePoint> te;
    if (Uniform(rng, 0, 2) == 0) te = OffsetToPoint(Uniform(rng, -10, 40));
    auto g = CalOperate(a, te, groups);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(*g == NaiveCalOperate(a, te, groups))
        << "a=" << a.ToString() << "\ngot=" << g->ToString();
    ++applications;
  }
  // Acceptance floor: >= 10k randomized operator applications per run.
  EXPECT_GE(applications, 10000);
}

// Kernel-level differential: SweepJoin emits exactly the pairs the naive
// join emits, in the same order, for every op and both monotonicity modes.
TEST(SweepDifferentialTest, SweepJoinPairStreamMatchesNaive) {
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const bool disjoint = Uniform(rng, 0, 1) == 0;
    std::vector<Interval> lhs =
        disjoint ? RandomDisjoint(rng, 20, Uniform(rng, -30, 0))
                 : RandomMessy(rng, 20, Uniform(rng, -30, 0), 50);
    std::sort(lhs.begin(), lhs.end(), [](const Interval& p, const Interval& q) {
      return p.lo != q.lo ? p.lo < q.lo : p.hi < q.hi;
    });
    std::vector<Interval> rhs = RandomDisjoint(rng, 10, Uniform(rng, -20, 10));
    bool hi_mono = true;
    for (size_t i = 1; i < lhs.size(); ++i) {
      hi_mono = hi_mono && lhs[i].hi >= lhs[i - 1].hi;
    }
    for (ListOp op : {ListOp::kOverlaps, ListOp::kDuring, ListOp::kMeets,
                      ListOp::kBefore, ListOp::kBeforeEq,
                      ListOp::kIntersects}) {
      std::vector<std::pair<size_t, size_t>> got;
      std::vector<std::pair<size_t, size_t>> want;
      SweepJoin(lhs, op, rhs, hi_mono, [&](size_t b, size_t e, size_t j) {
        ASSERT_LT(b, e);
        for (size_t i = b; i < e; ++i) got.emplace_back(i, j);
      });
      naive::Join(lhs, op, rhs,
                  [&](size_t i, size_t j) { want.emplace_back(i, j); });
      ASSERT_EQ(got, want) << "op=" << ListOpName(op)
                           << " disjoint=" << disjoint;
    }
  }
}

// The per-pair assembly the foreach operators used before run emission:
// one naive::Join pair at a time, clipped under strict overlap ops, pushed
// into one vector per rhs leaf, each vector sorted, then rebuilt in rhs's
// shape through Calendar::Nested.
Calendar PerPairForEach(const Calendar& c, ListOp op, const Calendar& rhs,
                        bool strict) {
  const bool clip = strict && ListOpClipsUnderStrict(op);
  IntervalSpan v = c.intervals();
  IntervalSpan r = rhs.Leaves();
  std::vector<std::vector<Interval>> outs(r.size());
  naive::Join(v, op, r, [&](size_t i, size_t j) {
    if (!clip) {
      outs[j].push_back(v[i]);
    } else if (std::optional<Interval> x = Intersect(v[i], r[j])) {
      outs[j].push_back(*x);
    }
  });
  for (std::vector<Interval>& grp : outs) {
    std::sort(grp.begin(), grp.end(), IntervalLess);
  }
  if (rhs.IsSingleton()) return Days(outs.front());
  size_t next = 0;
  std::function<Calendar(const Calendar&)> mirror = [&](const Calendar& s) {
    std::vector<Calendar> children;
    if (s.order() == 1) {
      for (size_t k = 0; k < s.size(); ++k) {
        children.push_back(Days(outs[next++]));
      }
      return Calendar::Nested(Granularity::kDays, std::move(children), 2);
    }
    for (const Calendar& ch : s.children()) children.push_back(mirror(ch));
    return Calendar::Nested(Granularity::kDays, std::move(children),
                            s.order() + 1);
  };
  return mirror(rhs);
}

// Run emission: ForEach's one-block group copies must build exactly what
// the per-pair path built — non-hi-monotone lhs, strict clipping, unsorted
// rhs leaf buffers (the per-group sweep) and runs straddling the epoch
// included.  With a hi-monotone lhs every op but `meets` hands the sink at
// most one run per rhs element.
TEST(SweepDifferentialTest, RunEmissionMatchesPerPairPath) {
  Rng rng(0x5EEDF00Dull);
  for (int trial = 0; trial < 400; ++trial) {
    const Calendar lhs = RandomOrder1(rng, 30);
    const Calendar rhs = RandomRhs(rng);
    for (ListOp op : kForeachOps) {
      for (bool strict : {true, false}) {
        auto got = ForEach(lhs, op, rhs, strict);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        Calendar want = PerPairForEach(lhs, op, rhs, strict);
        ASSERT_TRUE(*got == want)
            << "op=" << ListOpName(op) << " strict=" << strict
            << "\nlhs=" << lhs.ToString() << "\nrhs=" << rhs.ToString()
            << "\ngot=" << got->ToString() << "\nwant=" << want.ToString();
        // Metadata kept from run ends (or a slice's parent) agrees with a
        // full scan of the same leaves.
        ASSERT_EQ(got->LeavesSorted(), want.LeavesSorted()) << got->ToString();
        ASSERT_EQ(got->HiMonotone(), want.HiMonotone()) << got->ToString();
        ASSERT_EQ(got->Span(), want.Span()) << got->ToString();
      }
      if (!lhs.HiMonotone() || op == ListOp::kMeets) continue;
      const Calendar flat = rhs.Flattened();
      std::vector<int> runs(flat.size(), 0);
      SweepJoin(lhs.intervals(), op, flat.intervals(), true,
                [&](size_t, size_t, size_t j) { ++runs[j]; });
      for (int count : runs) ASSERT_LE(count, 1) << ListOpName(op);
    }
  }
}

// The window filter (relaxed overlaps/intersects against one interval) on a
// hi-monotone calendar is a slice: a view of the operand's own buffer that
// must hold exactly the elements the naive filter and the per-pair sweep
// keep — for empty windows, windows outside the span and windows and runs
// on both sides of the skip-zero epoch.
TEST(SweepSliceTest, WindowSliceMatchesNaiveAndPerPairPath) {
  Rng rng(0x511CEull);
  int slices = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const Calendar lhs = RandomOrder1(rng, 40);
    const int64_t lo = Uniform(rng, -80, 80);
    Interval window{OffsetToPoint(lo), OffsetToPoint(lo + Uniform(rng, 0, 30))};
    switch (Uniform(rng, 0, 3)) {
      case 0:  // entirely before the span
        if (!lhs.IsNull()) {
          const int64_t first = PointToOffset(lhs.intervals().front().lo);
          window = {OffsetToPoint(first - 20), OffsetToPoint(first - 1)};
        }
        break;
      case 1:  // entirely after the span
        if (!lhs.IsNull()) {
          const int64_t last = PointToOffset(lhs.Span()->hi);
          window = {OffsetToPoint(last + 1), OffsetToPoint(last + 5)};
        }
        break;
      default:
        break;
    }
    for (ListOp op : {ListOp::kOverlaps, ListOp::kIntersects}) {
      for (bool strict : {true, false}) {
        auto got = ForEachInterval(lhs, op, window, strict);
        ASSERT_TRUE(got.ok());
        const Calendar want = NaiveForEachOne(lhs, op, window, strict);
        const Calendar per_pair = PerPairForEach(
            lhs, op, Calendar::Singleton(Granularity::kDays, window), strict);
        ASSERT_TRUE(*got == want && *got == per_pair)
            << "op=" << ListOpName(op) << " strict=" << strict
            << "\nlhs=" << lhs.ToString()
            << "\nwindow=" << FormatInterval(window)
            << "\ngot=" << got->ToString() << "\nwant=" << want.ToString();
        EXPECT_EQ(got->Span(), want.Span());
        if (!strict && lhs.HiMonotone() && !got->IsNull()) {
          // A view into lhs's buffer, not a copy.
          const Interval* base = lhs.Leaves().data();
          ASSERT_GE(got->Leaves().data(), base);
          ASSERT_LE(got->Leaves().data() + got->size(), base + lhs.size());
          ++slices;
        }
      }
    }
  }
  EXPECT_GT(slices, 200);
}

// The kernel must do asymptotically less work than the naive join on
// disjoint runs: comparisons scale with n + m + k, not n * m.
TEST(SweepKernelTest, ComparisonsBeatNaiveOnDisjointRuns) {
  std::vector<Interval> days;
  for (int64_t i = 1; i <= 2000; ++i) days.push_back({i, i});
  std::vector<Interval> blocks;
  for (int64_t i = 1; i + 29 <= 2000; i += 30) blocks.push_back({i, i + 29});
  SweepStats sweep = SweepJoin(days, ListOp::kDuring, blocks, true,
                               [](size_t, size_t, size_t) {});
  SweepStats naive =
      naive::Join(days, ListOp::kDuring, blocks, [](size_t, size_t) {});
  EXPECT_EQ(sweep.emits, naive.emits);
  EXPECT_LT(sweep.comparisons, naive.comparisons / 5);
}

TEST(SweepKernelTest, GallopSkipsEngageOnBeforePredicates) {
  std::vector<Interval> days;
  for (int64_t i = 1; i <= 5000; ++i) days.push_back({i, i});
  // A single probe far to the right: the prefix boundary is found by
  // galloping, not by touching all 5000 elements one comparison at a time.
  const std::vector<Interval> probe = {{4900, 4950}};
  SweepStats st = SweepJoin(days, ListOp::kBefore, probe, true,
                            [](size_t, size_t, size_t) {});
  EXPECT_EQ(st.emits, 4900);
  EXPECT_GT(st.gallop_skips, 4000);
  EXPECT_LT(st.comparisons, 100);
}

// --- order-contract regression (satellite 3) --------------------------------

TEST(SweepForEachOrderContractTest, SingletonVsOneElementOrder2Differ) {
  Calendar c = Days({{1, 5}, {6, 10}, {11, 15}});
  // Order-1 singleton rhs: treated as a plain interval -> order 1.
  Calendar singleton = Calendar::Singleton(Granularity::kDays, {1, 12});
  auto flat = ForEach(c, ListOp::kDuring, singleton, true);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->order(), 1);
  EXPECT_EQ(flat->ToString(), "{(1,5),(6,10)}");
  // A 1-element order-2 rhs holding the same interval: foreach maps over
  // its children -> order 3, per the header contract (order k -> k+1).
  Calendar nested =
      Calendar::Nested(Granularity::kDays, {Days({{1, 12}})}, 2);
  ASSERT_EQ(nested.order(), 2);
  auto deep = ForEach(c, ListOp::kDuring, nested, true);
  ASSERT_TRUE(deep.ok());
  EXPECT_EQ(deep->order(), 3);
  ASSERT_EQ(deep->children().size(), 1u);
  EXPECT_EQ(deep->children()[0].order(), 2);
  EXPECT_EQ(deep->children()[0].ToString(), "{{(1,5),(6,10)}}");
  // And an order-1 rhs with one interval reached per-element (not top
  // level) keeps its child slot: 2-element order-1 -> order 2, 2 children.
  auto mid = ForEach(c, ListOp::kDuring, Days({{1, 12}, {13, 20}}), true);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->order(), 2);
  EXPECT_EQ(mid->size(), 2u);
}

// --- epoch / skip-zero regressions (satellite 2) ----------------------------

TEST(SweepEpochTest, IntervalNeverContainsZero) {
  Interval straddle{-3, 2};
  EXPECT_FALSE(straddle.Contains(0));
  EXPECT_TRUE(straddle.Contains(-1));
  EXPECT_TRUE(straddle.Contains(1));
  // 5 points: -3,-2,-1,1,2 — the zero gap is not counted.
  EXPECT_EQ(straddle.length(), 5);
  EXPECT_EQ(PointDistance(-1, 1), 1);
  EXPECT_FALSE(MakeInterval(0, 4).ok());
  EXPECT_FALSE(MakeInterval(-2, 0).ok());
  ASSERT_TRUE(MakeInterval(-2, 3).ok());
}

TEST(SweepEpochTest, CalOperateGroupStraddlingEpoch) {
  // Seven day-points around the epoch, grouped in pairs: the group that
  // straddles the gap covers (-1,1) — exactly 2 points, never point 0.
  Calendar days = Days({{-3, -3}, {-2, -2}, {-1, -1}, {1, 1}, {2, 2}, {3, 3},
                        {4, 4}});
  auto grouped = CalOperate(days, std::nullopt, {2});
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->ToString(), "{(-3,-2),(-1,1),(2,3),(4,4)}");
  const Interval& straddle = grouped->intervals()[1];
  EXPECT_EQ(straddle.length(), 2);
  EXPECT_FALSE(straddle.Contains(0));
  EXPECT_FALSE(grouped->ContainsPoint(0));
  // A te cutoff on the negative side stops before the epoch group.
  auto cut = CalOperate(days, TimePoint{-1}, {2});
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->ToString(), "{(-3,-2),(-1,-1)}");
}

TEST(SweepEpochTest, JoinsAcrossTheEpochGap) {
  // Meets across the gap: (-3,-1) does NOT meet (1,4) — there is no shared
  // endpoint, the points are merely consecutive.
  EXPECT_FALSE(IntervalMeets({-3, -1}, {1, 4}));
  auto met = ForEachInterval(Days({{-3, -1}}), ListOp::kMeets, {1, 4}, false);
  ASSERT_TRUE(met.ok());
  EXPECT_TRUE(met->IsNull());
  // Union keeps runs that merely touch across the gap distinct.
  auto u = Union(Days({{-2, -1}}), Days({{1, 3}}));
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->ToString(), "{(-2,-1),(1,3)}");
  // Difference splitting across the gap (also covered in algebra_test).
  auto d = Difference(Days({{-3, 3}}), Days({{-1, 1}}));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->ToString(), "{(-3,-2),(2,3)}");
}

// --- selection out-of-range contract (satellite 1) --------------------------

TEST(SweepSelectionContractTest, NegativeOutOfRangeSelectsNothingNeverWraps) {
  Calendar c = Days({{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}});
  auto r = Select({SelectionItem::Index(-8)}, c);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsNull());
  // -5 is exactly in range on 5 elements: first element, no off-by-one.
  auto edge = Select({SelectionItem::Index(-5)}, c);
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge->ToString(), "{(1,1)}");
  auto past = Select({SelectionItem::Index(-6)}, c);
  ASSERT_TRUE(past.ok());
  EXPECT_TRUE(past->IsNull());
  // Same per-child on order 2: short children contribute nothing.
  Calendar nested = Calendar::Nested(
      Granularity::kDays, {Days({{1, 1}}), Days({{2, 2}, {3, 3}})});
  auto spliced = Select({SelectionItem::Index(-2)}, nested);
  ASSERT_TRUE(spliced.ok());
  EXPECT_EQ(spliced->ToString(), "{(2,2)}");
}

TEST(SweepSelectionContractTest, MalformedPredicatesRejected) {
  Calendar c = Days({{1, 1}, {2, 2}});
  EXPECT_FALSE(Select({SelectionItem::Index(0)}, c).ok());
  EXPECT_FALSE(Select({SelectionItem::Range(0, SelectionItem::kLastMarker)}, c)
                   .ok());
  EXPECT_FALSE(Select({SelectionItem::Range(-3, 2)}, c).ok());
  EXPECT_FALSE(Select({SelectionItem::Range(3, 2)}, c).ok());
}

TEST(SweepSelectionContractTest, OverLongRangeClampsToElementCount) {
  Calendar c = Days({{1, 1}, {2, 2}, {3, 3}});
  // Must answer instantly (clamped to n), selecting the whole calendar.
  auto r = Select({SelectionItem::Range(2, 4000000000000LL)}, c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "{(2,2),(3,3)}");
}

}  // namespace
}  // namespace caldb
