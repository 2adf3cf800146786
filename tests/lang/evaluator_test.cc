// Evaluator edge cases beyond the paper's worked examples: window
// conversion, granularity mixing, invoke depth, plan rendering.

#include "lang/evaluator.h"

#include <gtest/gtest.h>

#include "catalog/calendar_catalog.h"
#include "core/generate.h"
#include "lang/ast.h"

namespace caldb {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() : catalog_(TimeSystem{CivilDate{1993, 1, 1}}) {}

  ScriptValue Eval(const std::string& script, Interval window = {1, 365},
                   TimePoint today = 1) {
    EvalOptions opts;
    opts.window_days = window;
    opts.today_day = today;
    auto value = catalog_.EvaluateScript(script, opts);
    EXPECT_TRUE(value.ok()) << script << ": " << value.status();
    return value.value_or(ScriptValue::Null());
  }

  CalendarCatalog catalog_;
};

TEST_F(EvaluatorTest, DayWindowToUnitRoundTrips) {
  TimeSystem ts{CivilDate{1993, 1, 1}};
  auto to_unit = [&](Interval days, Granularity unit) {
    return IntervalToUnit(ts, Granularity::kDays, days, unit);
  };
  auto days = to_unit({1, 365}, Granularity::kDays);
  ASSERT_TRUE(days.ok());
  EXPECT_EQ(*days, (Interval{1, 365}));
  auto months = to_unit({1, 365}, Granularity::kMonths);
  ASSERT_TRUE(months.ok());
  EXPECT_EQ(*months, (Interval{1, 12}));
  auto weeks = to_unit({1, 31}, Granularity::kWeeks);
  ASSERT_TRUE(weeks.ok());
  EXPECT_EQ(*weeks, (Interval{1, 5}));
  auto hours = to_unit({1, 2}, Granularity::kHours);
  ASSERT_TRUE(hours.ok());
  EXPECT_EQ(*hours, (Interval{1, 48}));
  // Windows before the epoch.
  auto neg = to_unit({-31, -1}, Granularity::kMonths);
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(*neg, (Interval{-1, -1}));  // December 1992
}

// `today` converts DAYS to the script's unit, and an invoked derived
// calendar's window converts the script's unit back to DAYS.  Each runs in
// a script whose unit is finer than DAYS (HOURS) and in one coarser
// (MONTHS), on windows before, across and after the skip-zero epoch; the
// [1]/[n] selections pin both endpoints of the converted day.
TEST_F(EvaluatorTest, TodayAndInvokedCalendarsAcrossUnitsAndEpoch) {
  // Multi-statement derivations are invoked at run time, never inlined.
  ASSERT_TRUE(catalog_
                  .DefineDerived("FIRSTS",
                                 "{t = DAYS:during:MONTHS; return [1]/t;}")
                  .ok());
  ASSERT_TRUE(catalog_
                  .DefineDerived("JANUARIES",
                                 "{m = MONTHS:during:YEARS; return [1]/m;}")
                  .ok());
  struct Case {
    const char* script;
    Interval window;
    TimePoint today;
    Granularity unit;
    const char* want;
  };
  const Case cases[] = {
      {"[1]/HOURS:during:today", {-40, 40}, -10, Granularity::kHours,
       "{(-240,-240)}"},
      {"[n]/HOURS:during:today", {-40, 40}, -10, Granularity::kHours,
       "{(-217,-217)}"},
      {"[1]/HOURS:during:today", {-40, 40}, 10, Granularity::kHours,
       "{(217,217)}"},
      {"[n]/HOURS:during:today", {-40, 40}, 10, Granularity::kHours,
       "{(240,240)}"},
      {"[1]/HOURS:during:today", {-400, -300}, -350, Granularity::kHours,
       "{(-8400,-8400)}"},
      {"[n]/HOURS:during:today", {-400, -300}, -350, Granularity::kHours,
       "{(-8377,-8377)}"},
      {"MONTHS:overlaps:today", {-40, 40}, -10, Granularity::kMonths,
       "{(-1,-1)}"},
      {"MONTHS:overlaps:today", {-40, 40}, 10, Granularity::kMonths, "{(1,1)}"},
      {"MONTHS:overlaps:today", {-400, -300}, -350, Granularity::kMonths,
       "{(-12,-12)}"},
      {"[1]/HOURS:during:FIRSTS", {-70, 70}, 1, Granularity::kHours,
       "{(-2208,-2208),(-1464,-1464),(-744,-744),(1,1),(745,745),(1417,1417)}"},
      {"[1]/HOURS:during:FIRSTS", {-400, -300}, 1, Granularity::kHours,
       "{(-10248,-10248),(-9528,-9528),(-8784,-8784),(-8040,-8040),"
       "(-7344,-7344)}"},
      {"[1]/HOURS:during:FIRSTS", {300, 400}, 1, Granularity::kHours,
       "{(6553,6553),(7297,7297),(8017,8017),(8761,8761),(9505,9505)}"},
      {"JANUARIES", {-400, 400}, 1, Granularity::kMonths,
       "{(-24,-24),(-12,-12),(1,1),(13,13)}"},
      {"JANUARIES", {-800, -400}, 1, Granularity::kMonths,
       "{(-36,-36),(-24,-24)}"},
      {"JANUARIES:during:YEARS", {-40, 800}, 1, Granularity::kMonths,
       "{{(-12,-12)},{(1,1)},{(13,13)},{(25,25)}}"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.script);
    ScriptValue v = Eval(c.script, c.window, c.today);
    ASSERT_EQ(v.kind, ScriptValue::Kind::kCalendar);
    EXPECT_EQ(v.calendar.granularity(), c.unit);
    EXPECT_EQ(v.calendar.ToString(), c.want)
        << "window (" << c.window.lo << "," << c.window.hi << ") today "
        << c.today;
  }
}

TEST_F(EvaluatorTest, TodayAtTheMissingPointZeroIsAnError) {
  // Point 0 does not exist: `today` there is an error in every unit,
  // DAYS included, where no conversion runs.
  for (const char* script : {"today", "HOURS:during:today",
                             "MONTHS:overlaps:today"}) {
    EvalOptions opts;
    opts.today_day = 0;
    auto value = catalog_.EvaluateScript(script, opts);
    ASSERT_FALSE(value.ok()) << script;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument) << script;
  }
}

TEST_F(EvaluatorTest, SubDayScript) {
  // Hours of the first day: unit inference drops to HOURS.
  ScriptValue v = Eval("HOURS:during:[1]/DAYS:during:1993/YEARS", {1, 3});
  ASSERT_EQ(v.kind, ScriptValue::Kind::kCalendar);
  EXPECT_EQ(v.calendar.granularity(), Granularity::kHours);
  EXPECT_EQ(v.calendar.size(), 24u);
  EXPECT_EQ(v.calendar.intervals().front(), (Interval{1, 1}));
  EXPECT_EQ(v.calendar.intervals().back(), (Interval{24, 24}));
}

TEST_F(EvaluatorTest, CoarseScriptInYears) {
  ScriptValue v = Eval("YEARS:overlaps:1993/YEARS", {1, 365});
  ASSERT_EQ(v.kind, ScriptValue::Kind::kCalendar);
  EXPECT_EQ(v.calendar.granularity(), Granularity::kYears);
  EXPECT_EQ(v.calendar.ToString(), "{(1,1)}");
}

TEST_F(EvaluatorTest, EmptyResultIsNull) {
  // No whole week fits inside a two-day interval.
  ScriptValue v = Eval("WEEKS:during:days{(2,3)}", {1, 31});
  EXPECT_EQ(v.kind, ScriptValue::Kind::kNull);
}

TEST_F(EvaluatorTest, LiteralsExtendGenerationWindows) {
  // Literal calendars are explicit data; with push-down enabled the
  // dependent generation follows them even outside the global window
  // (the look-ahead uses the operand's actual span).
  ScriptValue v = Eval("DAYS:during:days{(400,400)}", {1, 31});
  ASSERT_EQ(v.kind, ScriptValue::Kind::kCalendar);
  EXPECT_EQ(v.calendar.ToString(), "{(400,400)}");
}

TEST_F(EvaluatorTest, IfElseBranches) {
  ScriptValue then_branch = Eval(
      "{x = days{(5,5)}; if (x:intersects:days{(1,10)}) return days{(1,1)}; "
      "else return days{(2,2)};}");
  EXPECT_EQ(then_branch.calendar.ToString(), "{(1,1)}");
  ScriptValue else_branch = Eval(
      "{x = days{(50,50)}; if (x:intersects:days{(1,10)}) return days{(1,1)}; "
      "else return days{(2,2)};}");
  EXPECT_EQ(else_branch.calendar.ToString(), "{(2,2)}");
}

TEST_F(EvaluatorTest, ScriptWithoutReturnYieldsNull) {
  ScriptValue v = Eval("{x = days{(1,1)};}");
  EXPECT_EQ(v.kind, ScriptValue::Kind::kNull);
}

TEST_F(EvaluatorTest, ReturnInsideLoopTerminates) {
  ScriptValue v = Eval(R"(
    { x = days{(1,1),(2,2),(3,3)};
      while (x:intersects:days{(1,100)}) {
        if (x:intersects:days{(2,2)}) return x;
        x = x - [1]/x;
      }
      return days{(99,99)};
    })");
  ASSERT_EQ(v.kind, ScriptValue::Kind::kCalendar);
  EXPECT_EQ(v.calendar.ToString(), "{(1,1),(2,2),(3,3)}");
}

TEST_F(EvaluatorTest, VariableReassignmentAcrossGranularities) {
  // A variable first holds a calendar; reassignment replaces it.
  ScriptValue v = Eval(R"(
    { x = days{(1,5)};
      x = x:intersects:days{(3,10)};
      return x;
    })");
  EXPECT_EQ(v.calendar.ToString(), "{(3,5)}");
}

TEST_F(EvaluatorTest, InvokeDepthIsBounded) {
  // A chain of invoked (multi-statement) calendars deeper than the limit.
  ASSERT_TRUE(catalog_
                  .DefineDerived("base0", "{t = DAYS:during:MONTHS; return [1]/t;}")
                  .ok());
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(catalog_
                    .DefineDerived("base" + std::to_string(i),
                                   "{t = base" + std::to_string(i - 1) +
                                       "; return t;}")
                    .ok());
  }
  EvalOptions opts;
  opts.window_days = Interval{1, 31};
  auto value = catalog_.EvaluateCalendar("base20", opts);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kEvalError);
  EXPECT_NE(value.status().message().find("depth"), std::string::npos);
}

TEST_F(EvaluatorTest, WindowHintsOffStillCorrect) {
  EvalOptions opts;
  opts.window_days = Interval{1, 365};
  opts.use_window_hints = false;
  auto with = catalog_.EvaluateScript("[3]/WEEKS:overlaps:days{(1,31)}", opts);
  opts.use_window_hints = true;
  auto without = catalog_.EvaluateScript("[3]/WEEKS:overlaps:days{(1,31)}", opts);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->calendar.ToString(), without->calendar.ToString());
  EXPECT_EQ(with->calendar.ToString(), "{(11,17)}");
}

TEST_F(EvaluatorTest, StatsCountWork) {
  EvalOptions opts;
  opts.window_days = Interval{1, 90};
  EvalStats stats;
  auto value = catalog_.EvaluateScript("[n]/DAYS:during:MONTHS", opts, &stats);
  ASSERT_TRUE(value.ok());
  EXPECT_GT(stats.steps_executed, 0);
  EXPECT_GT(stats.generate_calls, 0);
  EXPECT_GT(stats.intervals_generated, 0);
  // The same calendar generated twice within one run hits the cache.
  EvalStats stats2;
  auto twice = catalog_.EvaluateScript(
      "(DAYS:during:days{(1,31)}) + (DAYS:during:days{(1,31)})", opts, &stats2);
  ASSERT_TRUE(twice.ok());
  EXPECT_GE(stats2.cache_hits, 1);
}

TEST_F(EvaluatorTest, PlanRenderingCoversControlFlow) {
  auto plan = catalog_.CompileScriptText(R"(
    { x = days{(1,1)};
      while (x:intersects:days{(1,1)})
        x = x - days{(1,1)};
      if (x:intersects:days{(2,2)}) return x; else return ([1]/DAYS:during:WEEKS);
    })");
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::string text = plan->ToString();
  EXPECT_NE(text.find("WHILE"), std::string::npos);
  EXPECT_NE(text.find("IF"), std::string::npos);
  EXPECT_NE(text.find("ELSE"), std::string::npos);
  EXPECT_NE(text.find("GENERATE DAYS"), std::string::npos);
  EXPECT_NE(text.find("SELECT [1]"), std::string::npos);
  EXPECT_NE(text.find("window=span"), std::string::npos);
}

TEST_F(EvaluatorTest, RepeatedCalendarsAreMarked) {
  ASSERT_TRUE(catalog_
                  .DefineDerived("Doubled",
                                 "(DAYS:during:days{(1,5)}) + "
                                 "(DAYS:during:days{(7,9)})")
                  .ok());
  auto def = catalog_.Describe("Doubled");
  ASSERT_TRUE(def.ok());
  ASSERT_TRUE(def->parsed_script != nullptr);
  EXPECT_EQ(def->parsed_script->repeated_calendars,
            (std::vector<std::string>{"DAYS"}));
}

}  // namespace
}  // namespace caldb
