// EX-E: the CALENDARS table and its Figure 1 example row (Tuesdays).

#include "catalog/calendar_catalog.h"

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "core/generate.h"
#include "obs/obs.h"
#include "tests/lang/expression_generator.h"

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

TEST_F(CatalogTest, NamesMustBeOneIdentifier) {
  for (const char* bad : {"pay day", "if", "return", "x(y)", "", " A", "A;",
                          "1993", "A/*c*/"}) {
    EXPECT_EQ(catalog_.DefineDerived(bad, "[1]/DAYS:during:WEEKS").code(),
              StatusCode::kInvalidArgument)
        << "'" << bad << "'";
    EXPECT_EQ(catalog_.DefineValues(bad, Calendar::Order1(Granularity::kDays,
                                                          {}))
                  .code(),
              StatusCode::kInvalidArgument)
        << "'" << bad << "'";
  }
  // The lexer fuses a hyphenated name into one identifier.
  ASSERT_TRUE(catalog_.DefineDerived("EMP-DAYS", "[n]/DAYS:during:MONTHS").ok());
  EvalOptions opts;
  auto by_script = catalog_.EvaluateScript("EMP-DAYS", opts);
  ASSERT_TRUE(by_script.ok()) << by_script.status();
  EXPECT_EQ(by_script->calendar.TotalIntervals(), 12);
  // A name is looked up before its text is compiled: an expression passed
  // where a name is expected is NotFound, not evaluated.
  EXPECT_EQ(catalog_.EvaluateCalendar("[1]/DAYS:during:WEEKS", opts)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog_.NextFireDay("[1]/DAYS:during:WEEKS", 1, 100)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog_.EvaluateCalendar("today", opts).status().code(),
            StatusCode::kNotFound);
}

// A calendar has no values outside its lifespan, on every path that reads
// it: by name, as `cal NAME`, inside an expression, and through a
// two-statement script that reads it, over the year 1993.
TEST_F(CatalogTest, LifespanHoldsOnEveryPath) {
  const Interval lifespan{1, 60};
  ASSERT_TRUE(
      catalog_.DefineDerived("EARLY", "[1]/DAYS:during:MONTHS", lifespan).ok());
  // The two-statement version is invoked, not inlined.
  ASSERT_TRUE(catalog_
                  .DefineDerived("EARLY2",
                                 "{x = [1]/DAYS:during:MONTHS; return x;}",
                                 lifespan)
                  .ok());
  ASSERT_TRUE(catalog_
                  .DefineValues("H",
                                Calendar::Order1(Granularity::kDays,
                                                 {{10, 10}, {100, 100},
                                                  {200, 200}}),
                                lifespan)
                  .ok());
  EvalOptions opts;
  opts.window_days = Interval{1, 365};
  auto count = [](const Result<ScriptValue>& value) -> int64_t {
    if (!value.ok()) return -1;
    return value->kind == ScriptValue::Kind::kCalendar
               ? value->calendar.TotalIntervals()
               : 0;
  };
  for (const auto& [name, expected] :
       std::vector<std::pair<std::string, int64_t>>{
           {"EARLY", 3}, {"EARLY2", 3}, {"H", 1}}) {
    SCOPED_TRACE(name);
    Result<Calendar> by_name = catalog_.EvaluateCalendar(name, opts);
    ASSERT_TRUE(by_name.ok()) << by_name.status();
    EXPECT_EQ(by_name->TotalIntervals(), expected);
    EXPECT_EQ(count(catalog_.EvaluateScript(name, opts)), expected);
    EXPECT_EQ(count(catalog_.EvaluateScript(name + ":intersects:YEARS", opts)),
              expected);
    EXPECT_EQ(
        count(catalog_.EvaluateScript("{x = " + name + "; return x;}", opts)),
        expected);
  }
  // EARLY has one expression but a lifespan: EXPLAIN shows it invoked.
  Result<std::string> explain = catalog_.ExplainScript("EARLY", opts);
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_NE(explain->find("INVOKE EARLY"), std::string::npos) << *explain;
  // Outside the lifespan there is nothing, and the next firing after it is
  // none.
  opts.window_days = Interval{100, 365};
  EXPECT_EQ(catalog_.EvaluateCalendar("EARLY", opts)->TotalIntervals(), 0);
  EXPECT_EQ(count(catalog_.EvaluateScript("EARLY", opts)), 0);
  Result<std::optional<TimePoint>> next = catalog_.NextFireDay("EARLY", 1, 365);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(*next, std::optional<TimePoint>(32));
  next = catalog_.NextFireDay("EARLY", 32, 3650);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(*next, std::optional<TimePoint>(60));  // 1993-03-01
  next = catalog_.NextFireDay("EARLY", 60, 3650);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_FALSE(next->has_value());
}

std::string Render(const Result<Calendar>& value) {
  if (!value.ok()) return "error " + value.status().ToString();
  return value->ToString();
}

std::string Render(const Result<ScriptValue>& value) {
  if (!value.ok()) return "error " + value.status().ToString();
  switch (value->kind) {
    case ScriptValue::Kind::kCalendar:
      return value->calendar.ToString();
    case ScriptValue::Kind::kNull:
      return Calendar::Order1(Granularity::kDays, {}).ToString();
    default:
      return "non-calendar";
  }
}

TimePoint RandomPoint(std::mt19937_64* rng, int lo, int span) {
  const TimePoint p = lo + static_cast<TimePoint>((*rng)() % span);
  return p == 0 ? 1 : p;
}

// Random draws, each stored with a random lifespan: every way of reading
// the stored calendar equals the draw compiled and run fresh over the
// window intersected with the lifespan, and NextFireDay finds that
// reference's first point after a random day.
TEST_F(CatalogTest, LifespanDifferentialOverRandomDraws) {
  ExpressionGenerator gen(0x11FE5A4ULL);
  std::mt19937_64 rng(0x11FE5A4ULL);
  auto fresh = [&](const std::string& text,
                   std::optional<Interval> window) -> Result<ScriptValue> {
    if (!window) return ScriptValue::Null();
    CALDB_ASSIGN_OR_RETURN(Plan plan, catalog_.CompileScriptText(text));
    Evaluator evaluator(&catalog_.time_system(), &catalog_);
    EvalOptions opts;
    opts.window_days = *window;
    return evaluator.Run(plan, opts);
  };
  int evaluated = 0;
  for (int round = 0; round < 150; ++round) {
    const std::string draw = gen.Generate();
    const TimePoint lo = RandomPoint(&rng, -80, 400);
    const Interval lifespan{lo, std::max(lo, RandomPoint(&rng, lo, 200))};
    const TimePoint wlo = RandomPoint(&rng, -120, 400);
    EvalOptions opts;
    opts.window_days =
        Interval{wlo, std::max(wlo, RandomPoint(&rng, wlo, 400))};
    SCOPED_TRACE(draw + " lifespan " + FormatInterval(lifespan) + " window " +
                 FormatInterval(opts.window_days));
    for (const char* name : {"D", "R1", "R2"}) (void)catalog_.Drop(name);
    if (!catalog_.DefineDerived("D", draw, lifespan).ok()) {
      EXPECT_FALSE(catalog_.CompileScriptText(draw).ok());
      continue;
    }
    ASSERT_TRUE(catalog_.DefineDerived("R1", "D").ok());
    ASSERT_TRUE(catalog_.DefineDerived("R2", "{x = D; return x;}").ok());

    Result<ScriptValue> reference =
        fresh(draw, Intersect(opts.window_days, lifespan));
    if (reference.ok()) ++evaluated;
    const std::string expected = Render(reference);
    EXPECT_EQ(Render(catalog_.EvaluateCalendar("D", opts)), expected);
    EXPECT_EQ(Render(catalog_.EvaluateScript("D", opts)), expected);
    EXPECT_EQ(Render(catalog_.EvaluateCalendar("R1", opts)), expected);
    EXPECT_EQ(Render(catalog_.EvaluateCalendar("R2", opts)), expected);
    EXPECT_EQ(Render(catalog_.EvaluateScript("{x = D; return x;}", opts)),
              expected);
    // A second read by name is an eval-cache hit of the same value.
    EXPECT_EQ(Render(catalog_.EvaluateCalendar("D", opts)), expected);

    // NextFireDay over 1993 alone (limit day 365): one year window.
    const TimePoint after = RandomPoint(&rng, 1, 300);
    Result<ScriptValue> year =
        fresh(draw, Intersect(Interval{1, 365}, lifespan));
    Result<std::optional<TimePoint>> next =
        catalog_.NextFireDay("D", after, 365);
    ASSERT_EQ(next.ok(), year.ok()) << next.status();
    if (!year.ok()) continue;
    std::optional<TimePoint> first;
    if (year->kind == ScriptValue::Kind::kCalendar) {
      for (const Interval& leaf : year->calendar.Leaves()) {
        Result<Interval> days =
            IntervalToUnit(catalog_.time_system(), year->calendar.granularity(),
                           leaf, Granularity::kDays);
        ASSERT_TRUE(days.ok());
        if (days->hi <= after) continue;
        const TimePoint candidate = days->lo > after ? days->lo : after + 1;
        if (!first || candidate < *first) first = candidate;
      }
    }
    if (first && *first > 365) first.reset();
    EXPECT_EQ(*next, first) << "after " << after;
  }
  EXPECT_GT(evaluated, 50);
}

TEST_F(CatalogTest, EvalCacheIsBoundedByItsCapacity) {
  auto counter = [](const char* name) {
    return obs::Metrics().counter(name)->value();
  };
  ASSERT_TRUE(catalog_.DefineDerived("Tuesdays", "[2]/DAYS:during:WEEKS").ok());
  EvalOptions opts;
  // Base and value names are cached as derived ones are.
  ASSERT_TRUE(catalog_.EvaluateCalendar("MONTHS", opts).ok());
  int64_t hits0 = counter("caldb.catalog.eval_cache.hits");
  ASSERT_TRUE(catalog_.EvaluateCalendar("MONTHS", opts).ok());
  EXPECT_EQ(counter("caldb.catalog.eval_cache.hits"), hits0 + 1);

  // capacity + 1 distinct windows: the last insert found the cache full and
  // cleared it, so the first window misses again and the last one hits.
  const int n = static_cast<int>(CalendarCatalog::kPlanCacheCapacity) + 1;
  auto window = [](int i) { return Interval{i + 1, i + 30}; };
  for (int i = 0; i < n; ++i) {
    opts.window_days = window(i);
    ASSERT_TRUE(catalog_.EvaluateCalendar("Tuesdays", opts).ok());
  }
  hits0 = counter("caldb.catalog.eval_cache.hits");
  const int64_t misses0 = counter("caldb.catalog.eval_cache.misses");
  opts.window_days = window(n - 1);
  ASSERT_TRUE(catalog_.EvaluateCalendar("Tuesdays", opts).ok());
  EXPECT_EQ(counter("caldb.catalog.eval_cache.hits"), hits0 + 1);
  opts.window_days = window(0);
  ASSERT_TRUE(catalog_.EvaluateCalendar("Tuesdays", opts).ok());
  EXPECT_EQ(counter("caldb.catalog.eval_cache.misses"), misses0 + 1);
}

TEST_F(CatalogTest, YearWindow) {
  auto window = catalog_.YearWindow(1993, 1993);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(*window, (Interval{1, 365}));
  EXPECT_FALSE(catalog_.YearWindow(1994, 1993).ok());
}

}  // namespace
}  // namespace caldb
