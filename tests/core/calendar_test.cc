#include "core/calendar.h"

#include <gtest/gtest.h>

namespace caldb {
namespace {

TEST(CalendarTest, DefaultIsEmptyOrder1) {
  Calendar c;
  EXPECT_EQ(c.order(), 1);
  EXPECT_TRUE(c.IsNull());
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.ToString(), "{}");
}

TEST(CalendarTest, Order1SortsIntervals) {
  Calendar c = Calendar::Order1(Granularity::kDays, {{11, 17}, {4, 10}, {-4, 3}});
  EXPECT_EQ(c.ToString(), "{(-4,3),(4,10),(11,17)}");
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.granularity(), Granularity::kDays);
}

TEST(CalendarTest, MakeOrder1RejectsBadIntervals) {
  EXPECT_FALSE(Calendar::MakeOrder1(Granularity::kDays, {{0, 5}}).ok());
  EXPECT_FALSE(Calendar::MakeOrder1(Granularity::kDays, {{5, 1}}).ok());
  EXPECT_TRUE(Calendar::MakeOrder1(Granularity::kDays, {{-4, 3}}).ok());
}

TEST(CalendarTest, NestedOrder) {
  Calendar a = Calendar::Order1(Granularity::kDays, {{4, 10}});
  Calendar b = Calendar::Order1(Granularity::kDays, {{32, 38}, {39, 45}});
  Calendar nested = Calendar::Nested(Granularity::kDays, {a, b});
  EXPECT_EQ(nested.order(), 2);
  EXPECT_EQ(nested.size(), 2u);
  EXPECT_EQ(nested.ToString(), "{{(4,10)},{(32,38),(39,45)}}");
  Calendar deeper = Calendar::Nested(Granularity::kDays, {nested});
  EXPECT_EQ(deeper.order(), 3);
}

TEST(CalendarTest, IsNullRecurses) {
  Calendar empty_child = Calendar::Order1(Granularity::kDays, {});
  Calendar nested = Calendar::Nested(Granularity::kDays, {empty_child});
  EXPECT_TRUE(nested.IsNull());
  Calendar nonempty =
      Calendar::Nested(Granularity::kDays,
                       {empty_child, Calendar::Order1(Granularity::kDays, {{1, 1}})});
  EXPECT_FALSE(nonempty.IsNull());
}

TEST(CalendarTest, SingletonDetection) {
  EXPECT_TRUE(Calendar::Singleton(Granularity::kDays, {1, 31}).IsSingleton());
  EXPECT_FALSE(
      Calendar::Order1(Granularity::kDays, {{1, 5}, {7, 9}}).IsSingleton());
  EXPECT_FALSE(Calendar::Order1(Granularity::kDays, {}).IsSingleton());
}

TEST(CalendarTest, FlattenedConcatenatesLeaves) {
  Calendar a = Calendar::Order1(Granularity::kDays, {{11, 17}});
  Calendar b = Calendar::Order1(Granularity::kDays, {{4, 10}});
  Calendar nested = Calendar::Nested(Granularity::kDays, {a, b});
  Calendar flat = nested.Flattened();
  EXPECT_EQ(flat.order(), 1);
  EXPECT_EQ(flat.ToString(), "{(4,10),(11,17)}");
  EXPECT_EQ(nested.TotalIntervals(), 2);
}

TEST(CalendarTest, Span) {
  Calendar c = Calendar::Order1(Granularity::kDays, {{-4, 3}, {25, 31}});
  auto span = c.Span();
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(*span, (Interval{-4, 31}));
  EXPECT_FALSE(Calendar().Span().has_value());
}

TEST(CalendarTest, ContainsPoint) {
  Calendar c = Calendar::Order1(Granularity::kDays, {{-4, 3}, {25, 31}});
  EXPECT_TRUE(c.ContainsPoint(-2));
  EXPECT_TRUE(c.ContainsPoint(31));
  EXPECT_FALSE(c.ContainsPoint(10));
  Calendar nested = Calendar::Nested(Granularity::kDays, {c});
  EXPECT_TRUE(nested.ContainsPoint(25));
  EXPECT_FALSE(nested.ContainsPoint(24));
}

TEST(CalendarTest, SetGranularityRecurses) {
  Calendar a = Calendar::Order1(Granularity::kDays, {{1, 7}});
  Calendar nested = Calendar::Nested(Granularity::kDays, {a});
  nested.set_granularity(Granularity::kWeeks);
  EXPECT_EQ(nested.granularity(), Granularity::kWeeks);
  EXPECT_EQ(nested.children()[0].granularity(), Granularity::kWeeks);
}

TEST(CalendarTest, Equality) {
  Calendar a = Calendar::Order1(Granularity::kDays, {{1, 7}});
  Calendar b = Calendar::Order1(Granularity::kDays, {{1, 7}});
  Calendar c = Calendar::Order1(Granularity::kWeeks, {{1, 7}});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);  // granularity differs
}

}  // namespace
}  // namespace caldb

namespace caldb {
namespace {

// ToString as it was composed before it rendered into one buffer: a
// FormatInterval string per interval and a child view per element.
std::string ComposedToString(const Calendar& c) {
  std::string out = "{";
  if (c.order() == 1) {
    for (size_t i = 0; i < c.size(); ++i) {
      if (i > 0) out += ",";
      out += FormatInterval(c.intervals()[i]);
    }
  } else {
    for (size_t i = 0; i < c.size(); ++i) {
      if (i > 0) out += ",";
      out += ComposedToString(c.child(i));
    }
  }
  return out + "}";
}

TEST(CalendarTest, ToStringMatchesTheComposedRendering) {
  const Calendar pre_epoch = Calendar::Order1(
      Granularity::kDays, {{-9223372036854775807LL, -400}, {-31, -1}});
  const Calendar straddling =
      Calendar::Order1(Granularity::kDays, {{-3, 4}, {-1, 1}, {5, 9}});
  const Calendar late = Calendar::Order1(
      Granularity::kDays, {{1, 1}, {100000, 9223372036854775807LL}});
  const Calendar order2 =
      Calendar::Nested(Granularity::kDays, {pre_epoch, straddling, late});
  const Calendar order3 = Calendar::Nested(
      Granularity::kDays,
      {order2, Calendar::Nested(Granularity::kDays, {straddling}),
       Calendar::Nested(Granularity::kDays, {}, 2)});
  for (const Calendar& c :
       {Calendar(), pre_epoch, straddling, late, order2, order3,
        order3.child(0), order3.child(0).child(1), order2.child(2).Slice(1, 2),
        Calendar::Nested(Granularity::kDays, {}, 3)}) {
    EXPECT_EQ(c.ToString(), ComposedToString(c));
  }
  EXPECT_EQ(straddling.ToString(), "{(-3,4),(-1,1),(5,9)}");
  EXPECT_EQ(order3.child(1).ToString(), "{{(-3,4),(-1,1),(5,9)}}");
}

}  // namespace
}  // namespace caldb
