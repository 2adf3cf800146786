// Regression surface for the shared CalendarRep (CSR nesting + COW
// handles): deep orders, empty-order preservation, structural equality
// across rep-shared and freshly-built values, and the set_granularity
// aliasing contract.  See calendar_rep.h for the layout.

#include "core/calendar_rep.h"

#include <gtest/gtest.h>

#include <vector>

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
  // One group per leaf of `shape`, deliberately unsorted within a group.
  std::vector<std::vector<Interval>> groups = {
      {{3, 4}, {1, 2}}, {{11, 12}}, {}};
  Calendar out =
      Calendar::NestedLike(shape, Granularity::kDays, std::move(groups));
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

}  // namespace
}  // namespace caldb
