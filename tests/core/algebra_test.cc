#include "core/algebra.h"

#include <random>

#include <gtest/gtest.h>

namespace caldb {
namespace {

Calendar Days(std::vector<Interval> v) {
  return Calendar::Order1(Granularity::kDays, std::move(v));
}

// --- foreach ---------------------------------------------------------------

TEST(ForEachTest, LeftOperandMustBeOrder1) {
  Calendar nested = Calendar::Nested(Granularity::kDays, {Days({{1, 5}})});
  EXPECT_FALSE(ForEachInterval(nested, ListOp::kDuring, {1, 9}, true).ok());
}

TEST(ForEachTest, GranularityMismatchRejected) {
  Calendar weeks = Calendar::Order1(Granularity::kWeeks, {{1, 4}});
  EXPECT_FALSE(
      ForEach(Days({{1, 5}}), ListOp::kDuring, weeks, /*strict=*/true).ok());
}

TEST(ForEachTest, StrictBeforeKeepsWholeIntervals) {
  // Non-overlapping ops keep elements whole even under the strict foreach
  // (matches the paper's AM_BUS_DAYS:<:LDOM_HOL example).
  Calendar c = Days({{1, 1}, {2, 2}, {5, 5}});
  auto r = ForEachInterval(c, ListOp::kBefore, {3, 3}, /*strict=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "{(1,1),(2,2)}");
}

TEST(ForEachTest, SingletonRhsCollapsesToOrder1) {
  Calendar c = Days({{1, 5}, {6, 10}, {11, 15}});
  Calendar rhs = Calendar::Singleton(Granularity::kDays, {6, 12});
  auto r = ForEach(c, ListOp::kDuring, rhs, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->order(), 1);
  EXPECT_EQ(r->ToString(), "{(6,10)}");
}

TEST(ForEachTest, MultiIntervalRhsYieldsOrder2) {
  Calendar c = Days({{1, 5}, {6, 10}, {11, 15}});
  Calendar rhs = Days({{1, 10}, {11, 20}});
  auto r = ForEach(c, ListOp::kDuring, rhs, true);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->order(), 2);
  EXPECT_EQ(r->ToString(), "{{(1,5),(6,10)},{(11,15)}}");
}

TEST(ForEachTest, EmptyChildrenAreKept) {
  Calendar c = Days({{1, 5}});
  Calendar rhs = Days({{1, 10}, {11, 20}});
  auto r = ForEach(c, ListOp::kDuring, rhs, true);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->order(), 2);
  EXPECT_EQ(r->size(), 2u);
  EXPECT_TRUE(r->children()[1].IsNull());
}

TEST(ForEachTest, Order2RhsYieldsOrder3) {
  Calendar c = Days({{1, 5}, {6, 10}});
  Calendar rhs = Calendar::Nested(Granularity::kDays,
                                  {Days({{1, 10}}), Days({{1, 5}, {6, 10}})});
  auto r = ForEach(c, ListOp::kDuring, rhs, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->order(), 3);
  // Even a single-interval child stays nested (rectangularity).
  EXPECT_EQ(r->children()[0].order(), 2);
}

TEST(ForEachTest, StrictIntersectsIsSetIntersection) {
  Calendar ldom = Days({{31, 31}, {59, 59}, {90, 90}});
  Calendar holidays = Days({{31, 31}, {90, 90}});
  auto r = ForEach(ldom, ListOp::kIntersects, holidays, /*strict=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->order(), 1);
  EXPECT_EQ(r->ToString(), "{(31,31),(90,90)}");
}

TEST(ForEachTest, StrictIntersectsClipsPartialOverlap) {
  auto r = ForEach(Days({{1, 10}}), ListOp::kIntersects, Days({{5, 20}}), true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "{(5,10)}");
}

TEST(ForEachTest, RelaxedIntersectsKeepsWholeElements) {
  auto r = ForEach(Days({{1, 10}, {15, 20}}), ListOp::kIntersects,
                   Days({{5, 8}}), /*strict=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "{(1,10)}");
}

TEST(ForEachTest, IntersectsFlattensNestedRhs) {
  Calendar rhs = Calendar::Nested(Granularity::kDays,
                                  {Days({{1, 3}}), Days({{8, 9}})});
  auto r = ForEach(Days({{2, 2}, {5, 5}, {8, 8}}), ListOp::kIntersects, rhs, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "{(2,2),(8,8)}");
}

// --- selection --------------------------------------------------------------

TEST(SelectTest, IndexFromFront) {
  Calendar c = Days({{1, 3}, {4, 10}, {11, 17}, {18, 24}, {25, 31}});
  auto r = Select({SelectionItem::Index(3)}, c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "{(11,17)}");
}

TEST(SelectTest, NegativeIndexFromEnd) {
  Calendar c = Days({{1, 1}, {2, 2}, {3, 3}, {4, 4}});
  auto r = Select({SelectionItem::Index(-2)}, c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "{(3,3)}");
}

TEST(SelectTest, LastElement) {
  Calendar c = Days({{1, 1}, {2, 2}, {3, 3}});
  auto r = Select({SelectionItem::Last()}, c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "{(3,3)}");
}

TEST(SelectTest, ListAndRange) {
  Calendar c = Days({{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}});
  auto list = Select({SelectionItem::Index(1), SelectionItem::Index(4)}, c);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->ToString(), "{(1,1),(4,4)}");
  auto range = Select({SelectionItem::Range(2, 4)}, c);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->ToString(), "{(2,2),(3,3),(4,4)}");
  auto open = Select({SelectionItem::Range(3, SelectionItem::kLastMarker)}, c);
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->ToString(), "{(3,3),(4,4),(5,5)}");
}

TEST(SelectTest, OutOfRangeSelectsNothing) {
  Calendar c = Days({{1, 1}, {2, 2}});
  auto r = Select({SelectionItem::Index(5)}, c);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsNull());
  auto neg = Select({SelectionItem::Index(-5)}, c);
  ASSERT_TRUE(neg.ok());
  EXPECT_TRUE(neg->IsNull());
}

TEST(SelectTest, Order2SplicesPerChild) {
  Calendar nested = Calendar::Nested(
      Granularity::kDays, {Days({{1, 3}, {4, 10}}), Days({{32, 38}, {39, 45}})});
  auto r = Select({SelectionItem::Index(2)}, nested);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->order(), 1);
  EXPECT_EQ(r->ToString(), "{(4,10),(39,45)}");
}

TEST(SelectTest, Order2SkipsShortChildren) {
  Calendar nested = Calendar::Nested(
      Granularity::kDays, {Days({{1, 1}}), Days({{2, 2}, {3, 3}})});
  auto r = Select({SelectionItem::Index(2)}, nested);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "{(3,3)}");
}

TEST(SelectTest, Order3ReducesToOrder2) {
  Calendar leaf1 = Days({{1, 1}});
  Calendar leaf2 = Days({{2, 2}});
  Calendar mid1 = Calendar::Nested(Granularity::kDays, {leaf1, leaf2});
  Calendar mid2 = Calendar::Nested(Granularity::kDays, {leaf2, leaf1});
  Calendar top = Calendar::Nested(Granularity::kDays, {mid1, mid2});
  ASSERT_EQ(top.order(), 3);
  auto r = Select({SelectionItem::Index(1)}, top);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->order(), 2);
  EXPECT_EQ(r->ToString(), "{{(1,1)},{(2,2)}}");
}

// The single-position arithmetic of a lone [k], [-k] or [n] against the
// general resolve, on random calendars of order 1 to 3 whose groups are
// often empty or shorter than the index: out-of-range positions are
// skipped on both paths, never wrapped.
TEST(SelectTest, SinglePositionMatchesGeneralResolve) {
  std::mt19937_64 rng(0x5E1EC7ULL);
  auto rand = [&](int bound) { return static_cast<int>(rng() % bound); };
  auto group = [&] {
    std::vector<Interval> v;
    const int n = rand(4) == 0 ? 0 : rand(6);
    for (int i = 0; i < n; ++i) {
      const TimePoint lo = rand(2) == 0 ? -40 + rand(30) : 1 + rand(60);
      v.push_back({lo, lo + rand(5)});
    }
    return Days(std::move(v));
  };
  auto order2 = [&] {
    std::vector<Calendar> children;
    for (int i = rand(5); i > 0; --i) children.push_back(group());
    return Calendar::Nested(Granularity::kDays, std::move(children));
  };
  for (int trial = 0; trial < 400; ++trial) {
    Calendar c;
    switch (rand(3)) {
      case 0:
        c = group();
        break;
      case 1:
        c = order2();
        break;
      default: {
        std::vector<Calendar> children;
        for (int i = rand(4); i > 0; --i) children.push_back(order2());
        c = Calendar::Nested(Granularity::kDays, std::move(children), 3);
        break;
      }
    }
    const int k = 1 + rand(7);
    for (const SelectionItem& item :
         {SelectionItem::Index(k), SelectionItem::Index(-k),
          SelectionItem::Last()}) {
      auto fast = Select({item}, c);
      auto general = naive::Select({item}, c);
      ASSERT_TRUE(fast.ok() && general.ok());
      EXPECT_EQ(*fast, *general) << c.ToString() << " k=" << k;
      EXPECT_EQ(fast->order(), general->order());
    }
  }
}

TEST(SelectTest, EmptyPredicateRejected) {
  EXPECT_FALSE(Select({}, Days({{1, 1}})).ok());
}

// --- set operators ----------------------------------------------------------

TEST(SetOpsTest, UnionMergesOverlapsKeepsAdjacent) {
  auto r = Union(Days({{1, 5}, {10, 12}}), Days({{3, 8}, {13, 14}}));
  ASSERT_TRUE(r.ok());
  // (1,5) and (3,8) overlap -> (1,8); (10,12) and (13,14) are adjacent but
  // kept distinct.
  EXPECT_EQ(r->ToString(), "{(1,8),(10,12),(13,14)}");
}

TEST(SetOpsTest, UnionOfPointLists) {
  // The EMP-DAYS combination: (LDOM - LDOM_HOL) + LAST_BUS_DAY.
  auto diff = Difference(Days({{31, 31}, {59, 59}, {90, 90}}),
                         Days({{31, 31}, {90, 90}}));
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->ToString(), "{(59,59)}");
  auto uni = Union(*diff, Days({{30, 30}, {88, 88}}));
  ASSERT_TRUE(uni.ok());
  EXPECT_EQ(uni->ToString(), "{(30,30),(59,59),(88,88)}");
}

TEST(SetOpsTest, DifferenceSplitsIntervals) {
  auto r = Difference(Days({{1, 10}}), Days({{4, 6}}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "{(1,3),(7,10)}");
}

TEST(SetOpsTest, DifferenceAcrossZeroGap) {
  // Subtracting (-1,-1) from (-3,3) must yield (-3,-2) and (1,3): no
  // interval may contain the nonexistent point 0.
  auto r = Difference(Days({{-3, 3}}), Days({{-1, -1}}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "{(-3,-2),(1,3)}");
}

TEST(SetOpsTest, DifferenceConsumesAll) {
  auto r = Difference(Days({{3, 5}}), Days({{1, 9}}));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsNull());
}

TEST(SetOpsTest, IntersectionClips) {
  auto r = Intersection(Days({{1, 5}, {8, 12}}), Days({{4, 9}}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "{(4,5),(8,9)}");
}

TEST(SetOpsTest, RequireOrder1AndMatchingGranularity) {
  Calendar nested = Calendar::Nested(Granularity::kDays, {Days({{1, 1}})});
  EXPECT_FALSE(Union(nested, Days({{1, 1}})).ok());
  Calendar weeks = Calendar::Order1(Granularity::kWeeks, {{1, 1}});
  EXPECT_FALSE(Union(weeks, Days({{1, 1}})).ok());
  EXPECT_FALSE(Difference(weeks, Days({{1, 1}})).ok());
  EXPECT_FALSE(Intersection(weeks, Days({{1, 1}})).ok());
}

// Property sweep: for random-ish interval lists, difference and
// intersection partition the left operand.
class SetOpsProperty : public ::testing::TestWithParam<int> {};

TEST_P(SetOpsProperty, DiffAndIntersectPartitionLeft) {
  // Deterministic pseudo-random lists seeded by the parameter.
  uint64_t seed = static_cast<uint64_t>(GetParam()) * 2654435761u + 1;
  auto next = [&seed]() {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return (seed >> 33) % 40 + 1;
  };
  std::vector<Interval> av;
  std::vector<Interval> bv;
  int64_t pos = 1;
  for (int i = 0; i < 8; ++i) {
    int64_t lo = pos + static_cast<int64_t>(next() % 5);
    int64_t hi = lo + static_cast<int64_t>(next() % 7);
    av.push_back({lo, hi});
    pos = hi + 2;
  }
  pos = 1;
  for (int i = 0; i < 8; ++i) {
    int64_t lo = pos + static_cast<int64_t>(next() % 6);
    int64_t hi = lo + static_cast<int64_t>(next() % 9);
    bv.push_back({lo, hi});
    pos = hi + 2;
  }
  Calendar a = Days(av);
  Calendar b = Days(bv);
  auto diff = Difference(a, b);
  auto inter = Intersection(a, b);
  ASSERT_TRUE(diff.ok());
  ASSERT_TRUE(inter.ok());
  // Every point of a is in exactly one of diff/inter; no point outside a.
  auto span = a.Span();
  ASSERT_TRUE(span.has_value());
  for (TimePoint p = span->lo; p <= span->hi; p = PointAdd(p, 1)) {
    bool in_a = a.ContainsPoint(p);
    bool in_b = b.ContainsPoint(p);
    EXPECT_EQ(diff->ContainsPoint(p), in_a && !in_b) << "point " << p;
    EXPECT_EQ(inter->ContainsPoint(p), in_a && in_b) << "point " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetOpsProperty, ::testing::Range(1, 25));

// Property: strict result is always covered by the relaxed result's
// elements, per child.
class ForEachProperty : public ::testing::TestWithParam<int> {};

TEST_P(ForEachProperty, StrictIsSubsetOfRelaxedPointwise) {
  uint64_t seed = static_cast<uint64_t>(GetParam()) * 0x9e3779b9u + 7;
  auto next = [&seed]() {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return (seed >> 33);
  };
  std::vector<Interval> cv;
  int64_t pos = 1;
  for (int i = 0; i < 12; ++i) {
    int64_t lo = pos;
    int64_t hi = lo + static_cast<int64_t>(next() % 5);
    cv.push_back({lo, hi});
    pos = hi + 1 + static_cast<int64_t>(next() % 3);
  }
  Calendar c = Days(cv);
  Interval rhs{static_cast<int64_t>(next() % 20 + 1),
               static_cast<int64_t>(next() % 20 + 21)};
  for (ListOp op : {ListOp::kOverlaps, ListOp::kDuring, ListOp::kMeets,
                    ListOp::kBefore, ListOp::kBeforeEq}) {
    auto strict = ForEachInterval(c, op, rhs, true);
    auto relaxed = ForEachInterval(c, op, rhs, false);
    ASSERT_TRUE(strict.ok());
    ASSERT_TRUE(relaxed.ok());
    // Same number of kept elements; strict elements are covered by relaxed.
    ASSERT_EQ(strict->size(), relaxed->size()) << ListOpName(op);
    for (size_t i = 0; i < strict->size(); ++i) {
      EXPECT_TRUE(relaxed->intervals()[i].Covers(strict->intervals()[i]))
          << ListOpName(op);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForEachProperty, ::testing::Range(1, 25));

}  // namespace
}  // namespace caldb
