// Regression surface for the shared CalendarRep (CSR nesting + COW
// handles): deep orders, empty-order preservation, structural equality
// across rep-shared and freshly-built values, and the set_granularity
// aliasing contract.  See calendar_rep.h for the layout.

#include "core/calendar_rep.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/algebra.h"
#include "core/calendar.h"
#include "obs/obs.h"

namespace caldb {
namespace {

Calendar O1(std::vector<Interval> v) {
  return Calendar::Order1(Granularity::kDays, std::move(v));
}

// {{{(1,2),(3,4)},{(5,6)}},{{(7,8)}}} plus one more wrap: order 4.
Calendar DeepCalendar() {
  Calendar o2a = Calendar::Nested(Granularity::kDays,
                                  {O1({{1, 2}, {3, 4}}), O1({{5, 6}})});
  Calendar o2b = Calendar::Nested(Granularity::kDays, {O1({{7, 8}})});
  Calendar o3 = Calendar::Nested(Granularity::kDays, {o2a, o2b});
  return Calendar::Nested(Granularity::kDays, {o3});
}

TEST(CalendarRepTest, Order4Navigation) {
  Calendar c = DeepCalendar();
  EXPECT_EQ(c.order(), 4);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.TotalIntervals(), 4);
  EXPECT_FALSE(c.IsNull());
  EXPECT_EQ(c.ToString(), "{{{{(1,2),(3,4)},{(5,6)}},{{(7,8)}}}}");

  Calendar o3 = c.child(0);
  EXPECT_EQ(o3.order(), 3);
  EXPECT_EQ(o3.size(), 2u);
  Calendar o2a = o3.child(0);
  EXPECT_EQ(o2a.order(), 2);
  EXPECT_EQ(o2a.size(), 2u);
  Calendar inner = o2a.child(0);
  EXPECT_EQ(inner.order(), 1);
  ASSERT_EQ(inner.intervals().size(), 2u);
  EXPECT_EQ(inner.intervals()[0], (Interval{1, 2}));
  EXPECT_EQ(o3.child(1).child(0).ToString(), "{(7,8)}");

  // Child views share the parent's rep: no interval data is copied.
  EXPECT_EQ(inner.intervals().data(), c.Leaves().data());
}

TEST(CalendarRepTest, Order4SpanFlattenAndContains) {
  Calendar c = DeepCalendar();
  ASSERT_TRUE(c.Span().has_value());
  EXPECT_EQ(*c.Span(), (Interval{1, 8}));
  Calendar flat = c.Flattened();
  EXPECT_EQ(flat.order(), 1);
  EXPECT_EQ(flat.ToString(), "{(1,2),(3,4),(5,6),(7,8)}");
  // The deep build concatenates already-sorted leaves, so flattening is a
  // zero-copy view of the same buffer.
  EXPECT_TRUE(c.LeavesSorted());
  EXPECT_EQ(flat.intervals().data(), c.Leaves().data());
  EXPECT_TRUE(c.ContainsPoint(5));
  EXPECT_FALSE(c.ContainsPoint(9));
}

TEST(CalendarRepTest, EmptyOrderKPreserved) {
  for (int k = 2; k <= 5; ++k) {
    Calendar empty = Calendar::Nested(Granularity::kDays, {}, k);
    EXPECT_EQ(empty.order(), k) << "order_if_empty=" << k;
    EXPECT_TRUE(empty.IsNull());
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(empty.TotalIntervals(), 0);
    EXPECT_FALSE(empty.Span().has_value());
  }
  // Distinct empty orders are not equal.
  EXPECT_FALSE(Calendar::Nested(Granularity::kDays, {}, 2) ==
               Calendar::Nested(Granularity::kDays, {}, 3));
}

TEST(CalendarRepTest, NestedOfEmptyChildrenKeepsShape) {
  // {{}..{}}: two empty order-1 children — order 2, size 2, null.
  Calendar c = Calendar::Nested(Granularity::kDays, {O1({}), O1({})});
  EXPECT_EQ(c.order(), 2);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_TRUE(c.IsNull());
  EXPECT_EQ(c.ToString(), "{{},{}}");
  EXPECT_TRUE(c.child(0).IsNull());
}

TEST(CalendarRepTest, EqualityAcrossSharedAndFreshReps) {
  Calendar built = DeepCalendar();
  Calendar shared = built;          // same rep
  Calendar rebuilt = DeepCalendar();  // fresh rep, same structure
  EXPECT_TRUE(built == shared);
  EXPECT_TRUE(built == rebuilt);
  EXPECT_NE(built.Leaves().data(), rebuilt.Leaves().data());

  // A view and an equivalent freshly-built calendar compare equal too.
  Calendar view = built.child(0);
  Calendar fresh_o3 = Calendar::Nested(
      Granularity::kDays,
      {Calendar::Nested(Granularity::kDays,
                        {O1({{1, 2}, {3, 4}}), O1({{5, 6}})}),
       Calendar::Nested(Granularity::kDays, {O1({{7, 8}})})});
  EXPECT_TRUE(view == fresh_o3);

  // Different leaves, same shape: unequal.
  Calendar other = Calendar::Nested(
      Granularity::kDays,
      {Calendar::Nested(
          Granularity::kDays,
          {Calendar::Nested(Granularity::kDays,
                            {O1({{1, 2}, {3, 9}}), O1({{5, 6}})}),
           Calendar::Nested(Granularity::kDays, {O1({{7, 8}})})})});
  EXPECT_FALSE(built == other);
}

TEST(CalendarRepTest, SetGranularityDoesNotAliasAcrossHandles) {
  Calendar a = DeepCalendar();
  Calendar b = a;
  // The two handles genuinely share one rep...
  ASSERT_EQ(a.Leaves().data(), b.Leaves().data());
  // ...yet mutating one's granularity leaves the other untouched.
  b.set_granularity(Granularity::kMonths);
  EXPECT_EQ(b.granularity(), Granularity::kMonths);
  EXPECT_EQ(a.granularity(), Granularity::kDays);
  // Still sharing: set_granularity is O(1), not a rebuild.
  EXPECT_EQ(a.Leaves().data(), b.Leaves().data());
  // Equality is granularity-sensitive.
  EXPECT_FALSE(a == b);
  b.set_granularity(Granularity::kDays);
  EXPECT_TRUE(a == b);
}

TEST(CalendarRepTest, ChildViewsInheritHandleGranularity) {
  Calendar c = DeepCalendar();
  c.set_granularity(Granularity::kWeeks);
  EXPECT_EQ(c.child(0).granularity(), Granularity::kWeeks);
  EXPECT_EQ(c.children()[0].granularity(), Granularity::kWeeks);
  EXPECT_EQ(c.Flattened().granularity(), Granularity::kWeeks);
}

TEST(CalendarRepTest, CopySharesRepNotCopies) {
  Calendar c = DeepCalendar();
  obs::Counter* copies = obs::Metrics().counter("caldb.cal.rep_copies");
  const int64_t copies_before = copies->value();
  Calendar copy = c;
  Calendar assigned;
  assigned = c;
  // Both handles view the very leaf buffer of the original rep.
  EXPECT_EQ(copy.Leaves().data(), c.Leaves().data());
  EXPECT_EQ(assigned.Leaves().data(), c.Leaves().data());
  EXPECT_EQ(copy.child(0).child(1).Leaves().data(),
            c.child(0).child(1).Leaves().data());
  EXPECT_TRUE(copy == c);
  EXPECT_TRUE(assigned == c);
  EXPECT_EQ(copies->value(), copies_before);
}

TEST(CalendarRepTest, ForEachLeafGroupWalksTreeOrder) {
  Calendar c = DeepCalendar();
  std::vector<size_t> offsets;
  std::vector<size_t> sizes;
  c.ForEachLeafGroup([&](size_t off, IntervalSpan group) {
    offsets.push_back(off);
    sizes.push_back(group.size());
  });
  EXPECT_EQ(offsets, (std::vector<size_t>{0, 2, 3}));
  EXPECT_EQ(sizes, (std::vector<size_t>{2, 1, 1}));
}

TEST(CalendarRepTest, NestedLikeMirrorsShape) {
  Calendar shape = Calendar::Nested(Granularity::kDays,
                                    {O1({{1, 5}, {10, 15}}), O1({{20, 25}})});
  // One group per leaf of `shape` — {(3,4),(1,2)}, {(11,12)}, {} — the
  // first deliberately unsorted.
  CalendarRep leaves;
  leaves.leaves = {{3, 4}, {1, 2}, {11, 12}};
  Calendar out = Calendar::NestedLike(shape, Granularity::kDays,
                                      std::move(leaves), {0, 2, 3, 3});
  EXPECT_EQ(out.order(), 3);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out.ToString(), "{{{(1,2),(3,4)},{(11,12)}},{{}}}");
}

TEST(CalendarRepTest, TransformLeavesKeepsStructure) {
  Calendar c = DeepCalendar();
  obs::Counter* rebuilds = obs::Metrics().counter("caldb.cal.cow_rebuilds");
  const int64_t before = rebuilds->value();
  Result<Calendar> shifted = c.TransformLeaves(
      Granularity::kDays, [](const Interval& i) -> Result<Interval> {
        return Interval{i.lo + 100, i.hi + 100};
      });
  ASSERT_TRUE(shifted.ok());
  EXPECT_EQ(rebuilds->value(), before + 1);
  EXPECT_EQ(shifted->order(), 4);
  EXPECT_EQ(shifted->ToString(), "{{{{(101,102),(103,104)},{(105,106)}},{{(107,108)}}}}");
  // The source is untouched (rebuild-on-write, not in-place).
  EXPECT_EQ(c.ToString(), "{{{{(1,2),(3,4)},{(5,6)}},{{(7,8)}}}}");
}

TEST(CalendarRepTest, SliceSharesTheParentBuffer) {
  Calendar days = O1({{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}});
  obs::Counter* copies = obs::Metrics().counter("caldb.cal.rep_copies");
  const int64_t copies_before = copies->value();
  Calendar mid = days.Slice(1, 4);
  EXPECT_EQ(mid.ToString(), "{(2,2),(3,3),(4,4)}");
  EXPECT_EQ(mid.Leaves().data(), days.Leaves().data() + 1);
  // A slice of a slice, and the window filter's result, are views too.
  EXPECT_EQ(mid.Slice(1, 2).Leaves().data(), days.Leaves().data() + 2);
  Result<Calendar> window =
      ForEachInterval(days, ListOp::kOverlaps, {3, 5}, /*strict=*/false);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(window->Leaves().data(), days.Leaves().data() + 2);
  EXPECT_TRUE(*window == O1({{3, 3}, {4, 4}, {5, 5}}));
  EXPECT_TRUE(days.Slice(3, 3).IsNull());
  EXPECT_EQ(copies->value(), copies_before);
  // Slices of a child view stay inside that child.
  Calendar nested = Calendar::Nested(
      Granularity::kDays, {O1({{1, 2}, {3, 4}}), O1({{5, 6}, {7, 8}})});
  Calendar second = nested.child(1).Slice(1, 2);
  EXPECT_EQ(second.ToString(), "{(7,8)}");
  EXPECT_EQ(second.Leaves().data(), nested.Leaves().data() + 3);
  EXPECT_EQ(*second.Span(), (Interval{7, 8}));
}

TEST(CalendarRepTest, SliceObeysTheCowContract) {
  Calendar slice;
  {
    Calendar days = O1({{1, 2}, {3, 4}, {5, 6}});
    slice = days.Slice(1, 3);
    slice.set_granularity(Granularity::kWeeks);
    // The parent handle keeps its own granularity...
    EXPECT_EQ(days.granularity(), Granularity::kDays);
    EXPECT_EQ(days.ToString(), "{(1,2),(3,4),(5,6)}");
  }
  // ...and the slice keeps the shared rep alive after the parent is gone.
  EXPECT_EQ(slice.granularity(), Granularity::kWeeks);
  EXPECT_EQ(slice.ToString(), "{(3,4),(5,6)}");
  EXPECT_TRUE(slice == Calendar::Order1(Granularity::kWeeks, {{3, 4}, {5, 6}}));
  EXPECT_EQ(*slice.Span(), (Interval{3, 6}));
}

TEST(CalendarRepTest, HiMonotoneComputedOnFinalize) {
  EXPECT_TRUE(O1({}).HiMonotone());
  EXPECT_TRUE(O1({{1, 3}, {2, 5}, {6, 6}}).HiMonotone());
  // Sorted by lo, yet an upper endpoint falls: (1,10) then (2,5).
  Calendar messy = O1({{2, 5}, {1, 10}, {3, 12}});
  EXPECT_EQ(messy.ToString(), "{(1,10),(2,5),(3,12)}");
  EXPECT_FALSE(messy.HiMonotone());
  EXPECT_EQ(*messy.Span(), (Interval{1, 12}));
  EXPECT_EQ(*messy.Slice(0, 2).Span(), (Interval{1, 10}));
  // Nested: the flag covers the whole buffer in tree order.
  EXPECT_TRUE(DeepCalendar().HiMonotone());
  Calendar falls = Calendar::Nested(Granularity::kDays,
                                    {O1({{5, 6}, {7, 9}}), O1({{1, 2}})});
  EXPECT_FALSE(falls.HiMonotone());
  EXPECT_FALSE(falls.LeavesSorted());
  // A child of a buffer that is not hi-monotone as a whole is conservative
  // false; its Span() still scans correctly.
  EXPECT_FALSE(falls.child(0).HiMonotone());
  EXPECT_EQ(*falls.child(0).Span(), (Interval{5, 9}));
  EXPECT_EQ(*falls.Span(), (Interval{1, 9}));
}

}  // namespace
}  // namespace caldb
