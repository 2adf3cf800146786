// Differential check of the next-fire memo (Plan::next_fire_memo): a rule
// plan queried the way DBCRON queries it — successive next-fire lookups
// walking forward in time, the memo warm — answers exactly as a plan
// freshly compiled from the same text, whose memo is cold, on every step.
// The walks cross three year boundaries and the search limit; a derived
// calendar is redefined mid-walk (a catalog version bump), and plans that
// read `today` must never be served from the memo.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/calendar_catalog.h"
#include "obs/obs.h"
#include "tests/lang/expression_generator.h"

namespace caldb {
namespace {

// Walk bounds, in days from the 1993-01-01 epoch: from Dec 1992 over
// 1993..1996 and past the limit (day 1300 is 1996-07-23).
constexpr TimePoint kWalkFrom = -20;
constexpr TimePoint kWalkTo = 1340;
constexpr TimePoint kLimit = 1300;

int64_t Counter(const char* name) {
  return obs::Metrics().counter(name)->value();
}

class NextFireMemoTest : public ::testing::Test {
 protected:
  NextFireMemoTest() : catalog_(TimeSystem{CivilDate{1993, 1, 1}}) {}

  // Walks `after` from `from` to `to` in steps of `stride` unit points
  // (or, with stride 0, from each answer to the next, as DBCRON does),
  // comparing the memoized plan with a fresh compile at every step.
  // `between` runs before each step (it may redefine calendars).  Returns
  // the number of steps.
  int Walk(const std::string& expr, Granularity unit, TimePoint from,
           TimePoint to, TimePoint limit, int64_t stride,
           const std::function<void(TimePoint)>& between = nullptr) {
    Result<Plan> compiled = catalog_.CompileScriptText(expr);
    EXPECT_TRUE(compiled.ok()) << expr << ": " << compiled.status();
    if (!compiled.ok()) return 0;
    const Plan memoized = *std::move(compiled);
    int steps = 0;
    for (TimePoint after = from; after <= to; ++steps) {
      if (between) between(after);
      Result<std::optional<TimePoint>> got =
          catalog_.NextFirePointForPlan(memoized, after, limit, unit);
      Result<Plan> fresh = catalog_.CompileScriptText(expr);
      EXPECT_TRUE(fresh.ok()) << expr;
      if (!fresh.ok()) return steps;
      Result<std::optional<TimePoint>> want =
          catalog_.NextFirePointForPlan(*fresh, after, limit, unit);
      EXPECT_EQ(got.ok(), want.ok()) << expr << " after " << after;
      if (!got.ok() || !want.ok()) return steps;
      EXPECT_EQ(*got, *want) << expr << " after " << after;
      if (*got != *want) return steps;
      if (stride > 0) {
        after = PointAdd(after, stride);
      } else if (got->has_value()) {
        after = **got;
      } else {
        break;
      }
    }
    return steps;
  }

  CalendarCatalog catalog_;
};

// The ten rule expressions of the rule_firing benchmark workload.
TEST_F(NextFireMemoTest, BenchmarkRuleExpressions) {
  const std::vector<std::string> exprs = {
      "[1]/DAYS:during:WEEKS",
      "[2]/DAYS:during:WEEKS",
      "[3]/DAYS:during:WEEKS",
      "[4]/DAYS:during:WEEKS",
      "[5]/DAYS:during:WEEKS",
      "[6]/DAYS:during:WEEKS",
      "[7]/DAYS:during:WEEKS",
      "[n]/DAYS:during:MONTHS",
      "[15]/DAYS:during:MONTHS",
      "[n]/DAYS:during:[3,6,9,12]/MONTHS:during:YEARS",
  };
  const int64_t hits0 = Counter("caldb.catalog.next_fire_memo.hits");
  for (const std::string& expr : exprs) {
    Walk(expr, Granularity::kDays, kWalkFrom, kWalkTo, kLimit, 1);
  }
  // The memo is what answered: almost every step of a walk is a hit.
  EXPECT_GT(Counter("caldb.catalog.next_fire_memo.hits") - hits0,
            static_cast<int64_t>(exprs.size()) * (kWalkTo - kWalkFrom) / 2);
}

// Random expressions from the optimizer harness's generator; most of
// them hold literals of 1993 only, so their walks also cover the empty
// windows that doubling searches up to the limit.
TEST_F(NextFireMemoTest, RandomExpressions) {
  ExpressionGenerator gen(0x5EEDF1E5ULL);
  int walked = 0;
  for (int i = 0; i < 40 && walked < 8; ++i) {
    const std::string expr = gen.Generate();
    if (!catalog_.CompileScriptText(expr).ok()) continue;  // ill-typed draw
    Walk(expr, Granularity::kDays, kWalkFrom, kWalkTo, kLimit, 3);
    ++walked;
  }
  EXPECT_EQ(walked, 8);
}

// HOURS rule points: the memo holds hour intervals, and a fire-to-fire
// walk crosses the year boundaries hour-exactly.
TEST_F(NextFireMemoTest, HoursRule) {
  // Day d's hours are (24(d-1)+1 .. 24d); walk over 1993..1996.
  const int steps =
      Walk("[9]/HOURS:during:[1]/DAYS:during:WEEKS", Granularity::kHours,
           /*from=*/1, /*to=*/24 * (kWalkTo - 1), /*limit=*/24 * kLimit,
           /*stride=*/0);
  EXPECT_GT(steps, 3 * 52);
}

// A rule over a derived calendar that the plan invokes (multi-statement
// derivations are not inlined): redefining it mid-walk bumps the catalog
// version, and the memo must not serve the old definition's window.
TEST_F(NextFireMemoTest, RedefinedCalendarIsNotServedStale) {
  ASSERT_TRUE(
      catalog_.DefineDerived("PAYDAY", "{t = [15]/DAYS:during:MONTHS; return t;}")
          .ok());
  const uint64_t version0 = catalog_.version();
  Walk("[1]/PAYDAY:during:MONTHS", Granularity::kDays, kWalkFrom, kWalkTo,
       kLimit, 1, [this](TimePoint after) {
         if (after != 500) return;  // mid-1994
         ASSERT_TRUE(catalog_.Drop("PAYDAY").ok());
         ASSERT_TRUE(catalog_
                         .DefineDerived("PAYDAY",
                                        "{t = [n]/DAYS:during:MONTHS; return t;}")
                         .ok());
       });
  EXPECT_GT(catalog_.version(), version0);
  // After the redefinition the month-end is what fires.
  Result<Plan> plan = catalog_.CompileScriptText("[1]/PAYDAY:during:MONTHS");
  ASSERT_TRUE(plan.ok());
  auto next = catalog_.NextFirePointForPlan(*plan, 500, kLimit,
                                            Granularity::kDays);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, std::optional<TimePoint>(516));  // 1994-05-31
}

// Rules that read `today`, directly or inside an invoked derived calendar:
// every lookup evaluates afresh, and nothing is stored.
TEST_F(NextFireMemoTest, TodayReadersAreNeverMemoized) {
  ASSERT_TRUE(
      catalog_.DefineDerived("THISWEEK", "{t = WEEKS:overlaps:today; return t;}")
          .ok());
  for (const std::string expr :
       {"[n]/DAYS:during:WEEKS:overlaps:today", "[n]/DAYS:during:THISWEEK"}) {
    const int64_t hits0 = Counter("caldb.catalog.next_fire_memo.hits");
    Walk(expr, Granularity::kDays, kWalkFrom, kWalkTo, kLimit, 1);
    EXPECT_EQ(Counter("caldb.catalog.next_fire_memo.hits"), hits0) << expr;

    Result<Plan> plan = catalog_.CompileScriptText(expr);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(
        catalog_.NextFirePointForPlan(*plan, 100, kLimit, Granularity::kDays)
            .ok());
    const NextFireMemo::Key key{1993, 1993, catalog_.version(),
                                Granularity::kDays};
    EXPECT_EQ(plan->next_fire_memo.Find(key), nullptr) << expr;
  }
}

// The contrast case: a plan that does not read `today` keeps the window
// it evaluated, and a copy of the plan starts cold.
TEST_F(NextFireMemoTest, MemoHoldsTheLastWindowAndCopiesStartCold) {
  Result<Plan> plan = catalog_.CompileScriptText("[2]/DAYS:during:WEEKS");
  ASSERT_TRUE(plan.ok());
  auto next =
      catalog_.NextFirePointForPlan(*plan, 100, kLimit, Granularity::kDays);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, std::optional<TimePoint>(103));  // Tue 1993-04-13
  const NextFireMemo::Key key{1993, 1993, catalog_.version(),
                              Granularity::kDays};
  EXPECT_NE(plan->next_fire_memo.Find(key), nullptr);
  const Plan copy = *plan;
  EXPECT_EQ(copy.next_fire_memo.Find(key), nullptr);
  // Another version or unit misses.
  EXPECT_EQ(plan->next_fire_memo.Find({1993, 1993, catalog_.version() + 1,
                                       Granularity::kDays}),
            nullptr);
  EXPECT_EQ(plan->next_fire_memo.Find(
                {1993, 1993, catalog_.version(), Granularity::kHours}),
            nullptr);
}

}  // namespace
}  // namespace caldb
