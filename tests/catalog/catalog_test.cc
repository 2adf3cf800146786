// EX-E: the CALENDARS table and its Figure 1 example row (Tuesdays).

#include "catalog/calendar_catalog.h"

#include <gtest/gtest.h>

namespace caldb {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : catalog_(TimeSystem{CivilDate{1993, 1, 1}}) {}
  CalendarCatalog catalog_;
};

TEST_F(CatalogTest, Figure1TuesdaysRow) {
  // Figure 1: Tuesdays is derived by {[2]/DAYS:during:WEEKS} — "the 2nd day
  // of every week" (Monday is 1).
  auto lifespan = catalog_.YearWindow(1985, 2010);
  ASSERT_TRUE(lifespan.ok());
  ASSERT_TRUE(
      catalog_.DefineDerived("Tuesdays", "[2]/DAYS:during:WEEKS", *lifespan).ok());

  auto row = catalog_.Describe("Tuesdays");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->name, "Tuesdays");
  EXPECT_EQ(row->derivation_script, "[2]/DAYS:during:WEEKS");
  EXPECT_EQ(row->granularity, Granularity::kDays);  // inferred from the script
  ASSERT_TRUE(row->eval_plan != nullptr);
  EXPECT_GT(row->eval_plan->steps.size(), 0u);
  EXPECT_FALSE(row->values.has_value());

  std::string rendered = catalog_.FormatRow("Tuesdays").value_or("");
  EXPECT_NE(rendered.find("Tuesdays"), std::string::npos);
  EXPECT_NE(rendered.find("[2]/DAYS:during:WEEKS"), std::string::npos);
  EXPECT_NE(rendered.find("set of procedural statements"), std::string::npos);
  EXPECT_NE(rendered.find("DAYS"), std::string::npos);
}

TEST_F(CatalogTest, TuesdaysEvaluate) {
  ASSERT_TRUE(catalog_.DefineDerived("Tuesdays", "[2]/DAYS:during:WEEKS").ok());
  EvalOptions opts;
  opts.window_days = Interval{1, 31};
  auto cal = catalog_.EvaluateCalendar("Tuesdays", opts);
  ASSERT_TRUE(cal.ok()) << cal.status();
  // Tuesdays of January 1993: Jan 5, 12, 19, 26 (and Dec 29 1992 = -3 from
  // the week overlapping the window).
  EXPECT_EQ(cal->ToString(), "{(-3,-3),(5,5),(12,12),(19,19),(26,26)}");
}

TEST_F(CatalogTest, BaseCalendarsResolveWithoutRows) {
  for (const char* name : {"SECONDS", "MINUTES", "HOURS", "DAYS", "WEEKS",
                           "MONTHS", "YEARS", "DECADES", "CENTURY"}) {
    EXPECT_TRUE(catalog_.Contains(name)) << name;
    auto resolved = catalog_.Resolve(name);
    ASSERT_TRUE(resolved.ok()) << name;
    EXPECT_EQ(resolved->kind, ResolvedCalendar::Kind::kBase);
    EXPECT_FALSE(catalog_.Describe(name).ok()) << name;  // no catalog row
  }
}

TEST_F(CatalogTest, EvaluateBaseCalendar) {
  EvalOptions opts;
  opts.window_days = Interval{1, 90};
  auto months = catalog_.EvaluateCalendar("MONTHS", opts);
  ASSERT_TRUE(months.ok());
  EXPECT_EQ(months->granularity(), Granularity::kMonths);
  EXPECT_EQ(months->ToString(), "{(1,1),(2,2),(3,3)}");
}

TEST_F(CatalogTest, ValueCalendarRoundTrip) {
  Calendar holidays = Calendar::Order1(Granularity::kDays, {{31, 31}, {90, 90}});
  ASSERT_TRUE(catalog_.DefineValues("HOLIDAYS", holidays).ok());
  auto row = catalog_.Describe("HOLIDAYS");
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->values.has_value());
  EXPECT_EQ(row->values->ToString(), "{(31,31),(90,90)}");
  EXPECT_EQ(row->granularity, Granularity::kDays);

  EvalOptions opts;
  opts.window_days = Interval{1, 60};
  auto filtered = catalog_.EvaluateCalendar("HOLIDAYS", opts);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->ToString(), "{(31,31)}");
}

TEST_F(CatalogTest, NameCollisions) {
  ASSERT_TRUE(catalog_.DefineDerived("Mondays", "[1]/DAYS:during:WEEKS").ok());
  EXPECT_EQ(catalog_.DefineDerived("Mondays", "[1]/DAYS:during:WEEKS")
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog_.DefineDerived("DAYS", "[1]/DAYS:during:WEEKS").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog_.DefineDerived("today", "[1]/DAYS:during:WEEKS").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(
      catalog_.DefineValues("weeks", Calendar::Order1(Granularity::kDays, {}))
          .code(),
      StatusCode::kAlreadyExists);
}

TEST_F(CatalogTest, DefinitionErrorsSurfaceContext) {
  Status bad_parse = catalog_.DefineDerived("Broken", "a:nosuchop:b");
  EXPECT_EQ(bad_parse.code(), StatusCode::kParseError);
  EXPECT_NE(bad_parse.message().find("Broken"), std::string::npos);
  Status bad_ref = catalog_.DefineDerived("Dangling", "NoSuch:during:MONTHS");
  EXPECT_EQ(bad_ref.code(), StatusCode::kNotFound);
}

TEST_F(CatalogTest, DropAndList) {
  ASSERT_TRUE(catalog_.DefineDerived("A", "[1]/DAYS:during:WEEKS").ok());
  ASSERT_TRUE(catalog_.DefineDerived("B", "[2]/DAYS:during:WEEKS").ok());
  EXPECT_EQ(catalog_.ListCalendars(), (std::vector<std::string>{"A", "B"}));
  ASSERT_TRUE(catalog_.Drop("A").ok());
  EXPECT_EQ(catalog_.ListCalendars(), (std::vector<std::string>{"B"}));
  EXPECT_EQ(catalog_.Drop("A").code(), StatusCode::kNotFound);
}

TEST_F(CatalogTest, DerivedCalendarsCompose) {
  ASSERT_TRUE(catalog_.DefineDerived("Mondays", "[1]/DAYS:during:WEEKS").ok());
  ASSERT_TRUE(
      catalog_.DefineDerived("FirstMondays", "[1]/Mondays:during:MONTHS").ok());
  EvalOptions opts;
  opts.window_days = Interval{1, 59};
  auto cal = catalog_.EvaluateCalendar("FirstMondays", opts);
  ASSERT_TRUE(cal.ok()) << cal.status();
  // First Monday of Jan 1993 is Jan 4 (day 4); of Feb 1993 is Feb 1 (day 32).
  EXPECT_EQ(cal->ToString(), "{(4,4),(32,32)}");
}

TEST_F(CatalogTest, CyclicDerivationsRejected) {
  // Self-reference is caught at definition time (the name doesn't resolve
  // yet), and indirect cycles cannot form because definitions bind names
  // eagerly.
  Status self = catalog_.DefineDerived("Selfish", "[1]/Selfish:during:WEEKS");
  EXPECT_EQ(self.code(), StatusCode::kNotFound);
}

TEST_F(CatalogTest, TodayReadersAreNotServedFromTheEvalCache) {
  // The eval-cache key has no `today`, so a calendar that reads it must
  // not be cached: a later evaluation with another today is fresh.
  ASSERT_TRUE(catalog_.DefineDerived("THISWEEK", "WEEKS:overlaps:today").ok());
  EvalOptions opts;
  opts.window_days = *catalog_.YearWindow(1993, 1993);
  opts.today_day = 69;  // 1993-03-10, in week 11
  auto march = catalog_.EvaluateCalendar("THISWEEK", opts);
  ASSERT_TRUE(march.ok()) << march.status();
  EXPECT_EQ(march->ToString(), "{(11,11)}");
  opts.today_day = 253;  // 1993-09-10, in week 37
  auto september = catalog_.EvaluateCalendar("THISWEEK", opts);
  ASSERT_TRUE(september.ok()) << september.status();
  EXPECT_EQ(september->ToString(), "{(37,37)}");

  CalendarCatalog fresh{TimeSystem{CivilDate{1993, 1, 1}}};
  ASSERT_TRUE(fresh.DefineDerived("THISWEEK", "WEEKS:overlaps:today").ok());
  auto reference = fresh.EvaluateCalendar("THISWEEK", opts);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(september->ToString(), reference->ToString());
}

TEST_F(CatalogTest, YearWindow) {
  auto window = catalog_.YearWindow(1993, 1993);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(*window, (Interval{1, 365}));
  EXPECT_FALSE(catalog_.YearWindow(1994, 1993).ok());
}

}  // namespace
}  // namespace caldb
