// Long-horizon DBCRON determinism: a decade of simulated time with a mixed
// rule population fires an exactly predictable schedule, regardless of
// probe period, and RULE-TIME ends in the right state.

#include <gtest/gtest.h>

#include "rules/dbcron.h"

namespace caldb {
namespace {

struct SimulationResult {
  int64_t tuesday_fires = 0;
  int64_t month_end_fires = 0;
  int64_t quarter_fires = 0;
  TimePoint last_fire = 0;
  std::vector<std::pair<char, TimePoint>> first_20;
};

SimulationResult Simulate(int64_t probe_period, TimePoint horizon_day) {
  CalendarCatalog catalog{TimeSystem{CivilDate{1990, 1, 1}}};
  Database db;
  auto rules = TemporalRuleManager::Create(&catalog, &db, /*horizon=*/20000)
                   .value();
  SimulationResult result;
  auto record = [&result](char tag, int64_t* counter) {
    TemporalAction action;
    action.callback = [&result, tag, counter](TimePoint day) {
      ++*counter;
      result.last_fire = std::max(result.last_fire, day);
      if (result.first_20.size() < 20) result.first_20.emplace_back(tag, day);
      return Status::OK();
    };
    return action;
  };
  EXPECT_TRUE(rules
                  ->DeclareRule("tuesdays", "[2]/DAYS:during:WEEKS",
                                record('T', &result.tuesday_fires), 1)
                  .ok());
  EXPECT_TRUE(rules
                  ->DeclareRule("month_ends", "[n]/DAYS:during:MONTHS",
                                record('M', &result.month_end_fires), 1)
                  .ok());
  EXPECT_TRUE(rules
                  ->DeclareRule("quarters",
                                "[n]/DAYS:during:caloperate(MONTHS, *, 3)",
                                record('Q', &result.quarter_fires), 1)
                  .ok());
  VirtualClock clock(1);
  DbCron cron(rules.get(), &clock, probe_period);
  EXPECT_TRUE(cron.AdvanceTo(horizon_day).ok());
  return result;
}

TEST(DbCronLongHorizon, DecadeOfFiringsIsExact) {
  // 1990-01-01 .. 1999-12-31 = 3652 days (1992 and 1996 are leap years).
  SimulationResult r = Simulate(/*probe_period=*/7, /*horizon_day=*/3652);
  // Tuesdays: Jan 1 1990 was a Monday, so the first Tuesday is day 2;
  // Tuesdays = days 2, 9, ..., the count is ceil((3652 - 2 + 1) / 7).
  EXPECT_EQ(r.tuesday_fires, 522);
  EXPECT_EQ(r.month_end_fires, 120);  // 10 years of months
  EXPECT_EQ(r.quarter_fires, 40);
  EXPECT_EQ(r.last_fire, 3652);       // Dec 31 1999: month + quarter end
}

TEST(DbCronLongHorizon, ProbePeriodNeverChangesTheSchedule) {
  SimulationResult base = Simulate(7, 800);
  for (int64_t period : {1, 13, 97, 365}) {
    SimulationResult variant = Simulate(period, 800);
    EXPECT_EQ(variant.tuesday_fires, base.tuesday_fires) << period;
    EXPECT_EQ(variant.month_end_fires, base.month_end_fires) << period;
    EXPECT_EQ(variant.quarter_fires, base.quarter_fires) << period;
    EXPECT_EQ(variant.first_20, base.first_20) << period;
  }
}

TEST(DbCronLongHorizon, FiringsInterleaveInTimeOrder) {
  SimulationResult r = Simulate(7, 120);
  TimePoint prev = 0;
  for (const auto& [tag, day] : r.first_20) {
    EXPECT_GE(day, prev);
    prev = day;
  }
  // Day 90 (Mar 31 1990) fires both the month-end and the quarter rule.
  int fires_on_90 = 0;
  for (const auto& [tag, day] : r.first_20) {
    if (day == 90) ++fires_on_90;
  }
  EXPECT_EQ(fires_on_90, 2);
}

TEST(DbCronLongHorizon, RuleTimeHoldsOneLiveRowPerActiveRule) {
  CalendarCatalog catalog{TimeSystem{CivilDate{1990, 1, 1}}};
  Database db;
  auto rules = TemporalRuleManager::Create(&catalog, &db, /*horizon=*/20000)
                   .value();
  int64_t fires = 0;
  TemporalAction action;
  action.callback = [&fires](TimePoint) {
    ++fires;
    return Status::OK();
  };
  const std::vector<std::pair<std::string, std::string>> defs = {
      {"tuesdays", "[2]/DAYS:during:WEEKS"},
      {"month_ends", "[n]/DAYS:during:MONTHS"},
      {"quarters", "[n]/DAYS:during:caloperate(MONTHS, *, 3)"}};
  std::vector<int64_t> ids;
  for (const auto& [name, expr] : defs) {
    ids.push_back(rules->DeclareRule(name, expr, action, 1).value());
  }
  VirtualClock clock(1);
  DbCron cron(rules.get(), &clock, 7);
  ASSERT_TRUE(cron.AdvanceTo(3652).ok());  // the decade 1990..1999
  EXPECT_EQ(fires, 522 + 120 + 40);

  const Table* time_table =
      static_cast<const Database&>(db).GetTable("RULE_TIME").value();
  ASSERT_TRUE(time_table->HasIndex("rule_id"));
  ASSERT_TRUE(time_table->HasIndex("next_fire"));
  EXPECT_EQ(time_table->size(), static_cast<int64_t>(ids.size()));
  auto rows_of = [&](int64_t id) {
    std::vector<Row> rows;
    EXPECT_TRUE(time_table
                    ->IndexScan("rule_id", id, id,
                                [&](RowId, const Row& row) {
                                  rows.push_back(row);
                                  return true;
                                })
                    .ok());
    return rows;
  };
  for (int64_t id : ids) {
    std::vector<Row> rows = rows_of(id);
    ASSERT_EQ(rows.size(), 1u) << id;
    // The next firing, in 2000: Tue Jan 4, Mon Jan 31, Fri Mar 31.
    EXPECT_GT(rows[0][1].AsInt().value(), 3652) << id;
  }
  EXPECT_EQ(rows_of(ids[0])[0][1].AsInt().value(), 3656);

  ASSERT_TRUE(rules->DropRule("tuesdays").ok());
  EXPECT_TRUE(rows_of(ids[0]).empty());
  EXPECT_EQ(time_table->size(), static_cast<int64_t>(ids.size()) - 1);
  EXPECT_EQ(rows_of(ids[1]).size(), 1u);
}

}  // namespace
}  // namespace caldb
