// CalendarCatalog::NextFireDay — the primitive filling RULE-TIME (§4).

#include <gtest/gtest.h>

#include "catalog/calendar_catalog.h"
#include "core/generate.h"

namespace caldb {
namespace {

class NextFireTest : public ::testing::Test {
 protected:
  NextFireTest() : catalog_(TimeSystem{CivilDate{1993, 1, 1}}) {}

  TimePoint Next(const std::string& name, TimePoint after,
                 TimePoint limit = 4000) {
    auto r = catalog_.NextFireDay(name, after, limit);
    EXPECT_TRUE(r.ok()) << r.status();
    if (!r.ok() || !r->has_value()) return 0;
    return **r;
  }

  CalendarCatalog catalog_;
};

TEST_F(NextFireTest, DerivedCalendarSteps) {
  ASSERT_TRUE(catalog_.DefineDerived("Tuesdays", "[2]/DAYS:during:WEEKS").ok());
  // Jan 1 1993 is Friday; Tuesdays fall on 5, 12, 19, ...
  EXPECT_EQ(Next("Tuesdays", 1), 5);
  EXPECT_EQ(Next("Tuesdays", 5), 12);
  EXPECT_EQ(Next("Tuesdays", 4), 5);
  // Day -10 is Tue Dec 22 1992; the next Tuesday is Dec 29 = point -3.
  EXPECT_EQ(Next("Tuesdays", -10), -3);
}

TEST_F(NextFireTest, CrossesYearBoundary) {
  ASSERT_TRUE(catalog_.DefineDerived("MonthEnds", "[n]/DAYS:during:MONTHS").ok());
  EXPECT_EQ(Next("MonthEnds", 365), 396);  // Dec 31 1993 -> Jan 31 1994
  EXPECT_EQ(Next("MonthEnds", 364), 365);
}

TEST_F(NextFireTest, ValueCalendar) {
  ASSERT_TRUE(catalog_
                  .DefineValues("H", Calendar::Order1(Granularity::kDays,
                                                      {{31, 31}, {90, 90}}))
                  .ok());
  EXPECT_EQ(Next("H", 1), 31);
  EXPECT_EQ(Next("H", 31), 90);
  auto none = catalog_.NextFireDay("H", 90, 4000);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());
}

TEST_F(NextFireTest, BaseCalendarGranulesMapToStartDays) {
  // MONTHS: the next month strictly after day 1 begins Feb 1 (day 32) —
  // day 2 is *within* the current month, so the first day after 1 covered
  // by MONTHS is day 2.
  EXPECT_EQ(Next("MONTHS", 1), 2);
  EXPECT_EQ(Next("DAYS", 10), 11);
}

TEST_F(NextFireTest, IntervalCalendarsFireEachCoveredDay) {
  // A run interval covers every day inside it.
  ASSERT_TRUE(catalog_
                  .DefineValues("RUN", Calendar::Order1(Granularity::kDays,
                                                        {{10, 13}}))
                  .ok());
  EXPECT_EQ(Next("RUN", 1), 10);
  EXPECT_EQ(Next("RUN", 10), 11);
  EXPECT_EQ(Next("RUN", 12), 13);
  auto after = catalog_.NextFireDay("RUN", 13, 4000);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->has_value());
}

TEST_F(NextFireTest, LimitBoundsTheSearch) {
  ASSERT_TRUE(catalog_
                  .DefineValues("FAR", Calendar::Order1(Granularity::kDays,
                                                        {{3000, 3000}}))
                  .ok());
  auto within = catalog_.NextFireDay("FAR", 1, 3500);
  ASSERT_TRUE(within.ok());
  ASSERT_TRUE(within->has_value());
  EXPECT_EQ(**within, 3000);
  auto beyond = catalog_.NextFireDay("FAR", 1, 2000);
  ASSERT_TRUE(beyond.ok());
  EXPECT_FALSE(beyond->has_value());
}

TEST_F(NextFireTest, TodayReaderFollowsTheSearchDay) {
  // THISWEEK reads `today`, which NextFireDay sets to after + 1: the answer
  // is the next day of the week containing it, never a cached week.
  ASSERT_TRUE(catalog_.DefineDerived("THISWEEK", "WEEKS:overlaps:today").ok());
  EXPECT_EQ(Next("THISWEEK", 252), 253);  // 1993-09-10, week 37
  // Week 37 (days 249..255) served again would answer 249 here.
  EXPECT_EQ(Next("THISWEEK", 68), 69);    // 1993-03-10, week 11
}

TEST_F(NextFireTest, UnknownCalendar) {
  EXPECT_FALSE(catalog_.NextFireDay("NoSuch", 1, 100).ok());
}

TEST(FormatCalendarCivilTest, RendersDates) {
  TimeSystem ts{CivilDate{1993, 1, 1}};
  Calendar c = Calendar::Order1(Granularity::kDays, {{5, 5}, {11, 17}});
  auto text = FormatCalendarCivil(ts, c);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "{1993-01-05, [1993-01-11..1993-01-17]}");

  Calendar months = Calendar::Order1(Granularity::kMonths, {{2, 2}});
  auto month_text = FormatCalendarCivil(ts, months);
  ASSERT_TRUE(month_text.ok());
  EXPECT_EQ(*month_text, "{[1993-02-01..1993-02-28]}");

  Calendar nested = Calendar::Nested(Granularity::kDays, {c});
  EXPECT_FALSE(FormatCalendarCivil(ts, nested).ok());

  Calendar empty = Calendar::Order1(Granularity::kDays, {});
  EXPECT_EQ(FormatCalendarCivil(ts, empty).value(), "{}");
}

}  // namespace
}  // namespace caldb
