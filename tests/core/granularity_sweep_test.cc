// Parameterized sweeps across all nine base granularities (§3.2): the
// generate/contain primitives and the algebra behave uniformly from
// SECONDS up to CENTURY.

#include <gtest/gtest.h>

#include "catalog/calendar_catalog.h"
#include "core/algebra.h"
#include "core/generate.h"
#include "time/time_system.h"

namespace caldb {
namespace {

class GranularitySweep : public ::testing::TestWithParam<Granularity> {
 protected:
  TimeSystem ts_{CivilDate{1993, 1, 1}};
};

TEST_P(GranularitySweep, GenerateIdentityGrid) {
  // Generating a calendar in its own unit yields the unit grid.
  Granularity g = GetParam();
  auto cal = GenerateBaseCalendar(ts_, g, g, Interval{-3, 3}, /*clip=*/true);
  ASSERT_TRUE(cal.ok()) << GranularityName(g) << ": " << cal.status();
  EXPECT_EQ(cal->ToString(), "{(-3,-3),(-2,-2),(-1,-1),(1,1),(2,2),(3,3)}");
  EXPECT_EQ(cal->granularity(), g);
}

TEST_P(GranularitySweep, GranulesPartitionTheFinerUnit) {
  Granularity g = GetParam();
  if (g == Granularity::kSeconds) GTEST_SKIP() << "no finer unit";
  // The next finer *nesting* unit (weeks are skipped: they don't nest).
  Granularity finer;
  switch (g) {
    case Granularity::kMinutes:
      finer = Granularity::kSeconds;
      break;
    case Granularity::kHours:
      finer = Granularity::kMinutes;
      break;
    case Granularity::kDays:
      finer = Granularity::kHours;
      break;
    case Granularity::kWeeks:
      finer = Granularity::kDays;
      break;
    case Granularity::kMonths:
      finer = Granularity::kDays;
      break;
    case Granularity::kYears:
      finer = Granularity::kMonths;
      break;
    case Granularity::kDecades:
      finer = Granularity::kYears;
      break;
    default:
      finer = Granularity::kDecades;
      break;
  }
  auto lo = ts_.GranuleToUnit(g, 1, finer);
  auto hi = ts_.GranuleToUnit(g, 2, finer);
  ASSERT_TRUE(lo.ok()) << GranularityName(g);
  ASSERT_TRUE(hi.ok());
  // Contiguous, non-overlapping coverage.
  EXPECT_EQ(PointToOffset(hi->lo), PointToOffset(lo->hi) + 1)
      << GranularityName(g) << " in " << GranularityName(finer);
  // Every covered finer point maps back to granule 1.
  EXPECT_EQ(ts_.GranuleContaining(g, lo->lo, finer).value(), 1);
  EXPECT_EQ(ts_.GranuleContaining(g, lo->hi, finer).value(), 1);
  EXPECT_EQ(ts_.GranuleContaining(g, hi->lo, finer).value(), 2);
}

TEST_P(GranularitySweep, ForEachDuringSelfIsIdentity) {
  Granularity g = GetParam();
  auto cal = GenerateBaseCalendar(ts_, g, g, Interval{1, 5}, true);
  ASSERT_TRUE(cal.ok());
  auto fe = ForEach(*cal, ListOp::kDuring,
                    Calendar::Singleton(g, Interval{1, 5}), /*strict=*/true);
  ASSERT_TRUE(fe.ok());
  EXPECT_EQ(fe->ToString(), cal->ToString());
}

INSTANTIATE_TEST_SUITE_P(
    AllNine, GranularitySweep,
    ::testing::Values(Granularity::kSeconds, Granularity::kMinutes,
                      Granularity::kHours, Granularity::kDays,
                      Granularity::kWeeks, Granularity::kMonths,
                      Granularity::kYears, Granularity::kDecades,
                      Granularity::kCenturies),
    [](const ::testing::TestParamInfo<Granularity>& info) {
      return std::string(GranularityName(info.param));
    });

// NextFireDay agrees with direct evaluation for derived calendars.
class NextFireConsistency : public ::testing::TestWithParam<const char*> {};

TEST_P(NextFireConsistency, MatchesEvaluation) {
  CalendarCatalog catalog{TimeSystem{CivilDate{1993, 1, 1}}};
  ASSERT_TRUE(catalog.DefineDerived("C", GetParam()).ok());
  EvalOptions opts;
  opts.window_days = catalog.YearWindow(1993, 1994).value();
  auto evaluated = catalog.EvaluateCalendar("C", opts);
  ASSERT_TRUE(evaluated.ok()) << evaluated.status();
  Calendar flat = evaluated->order() == 1 ? *evaluated : evaluated->Flattened();

  for (TimePoint after : {TimePoint{1}, TimePoint{40}, TimePoint{200}}) {
    auto next = catalog.NextFireDay("C", after, 800);
    ASSERT_TRUE(next.ok()) << next.status();
    // Reference: the smallest covered day > after in the evaluation.
    std::optional<TimePoint> want;
    for (const Interval& i : flat.intervals()) {
      Interval days = IntervalToUnit(catalog.time_system(), flat.granularity(),
                                     i, Granularity::kDays)
                          .value();
      if (days.hi <= after) continue;
      TimePoint candidate = days.lo > after ? days.lo : PointAdd(after, 1);
      if (!want.has_value() || candidate < *want) want = candidate;
    }
    ASSERT_TRUE(next->has_value()) << "after " << after;
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(**next, *want) << GetParam() << " after " << after;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Calendars, NextFireConsistency,
    ::testing::Values("[2]/DAYS:during:WEEKS", "[n]/DAYS:during:MONTHS",
                      "[1,3]/DAYS:during:WEEKS",
                      "[n]/DAYS:during:caloperate(MONTHS, *, 3)",
                      "WEEKS:during:MONTHS"));

}  // namespace
}  // namespace caldb
