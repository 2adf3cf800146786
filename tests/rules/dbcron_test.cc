// FIG-4: the temporal-rule implementation end to end — declare rule →
// RULE-INFO / RULE-TIME rows → DBCRON probes → firings at the right
// virtual time points.

#include "rules/dbcron.h"

#include <gtest/gtest.h>

#include "catalog/calendar_functions.h"
#include "obs/obs.h"

namespace caldb {
namespace {

class DbCronTest : public ::testing::Test {
 protected:
  DbCronTest() : catalog_(TimeSystem{CivilDate{1993, 1, 1}}) {
    auto manager = TemporalRuleManager::Create(&catalog_, &db_);
    EXPECT_TRUE(manager.ok()) << manager.status();
    rules_ = std::move(manager).value();
  }

  CalendarCatalog catalog_;
  Database db_;
  std::unique_ptr<TemporalRuleManager> rules_;
};

TEST_F(DbCronTest, DeclareStoresRuleInfoAndRuleTime) {
  // "On Every Tuesday do Proc_X" ≡ {[2]/DAYS:during:WEEKS} do Proc_X.
  TemporalAction action;
  action.callback = [](TimePoint) { return Status::OK(); };
  auto id = rules_->DeclareRule("every_tuesday", "[2]/DAYS:during:WEEKS",
                                std::move(action), /*now_day=*/1);
  ASSERT_TRUE(id.ok()) << id.status();

  auto info = db_.Execute("retrieve (r.name, r.expression) from r in RULE_INFO");
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->rows.size(), 1u);
  EXPECT_EQ(info->rows[0][0].AsText().value(), "every_tuesday");
  EXPECT_EQ(info->rows[0][1].AsText().value(), "[2]/DAYS:during:WEEKS");

  auto time_rows = db_.Execute("retrieve (t.next_fire) from t in RULE_TIME");
  ASSERT_TRUE(time_rows.ok());
  ASSERT_EQ(time_rows->rows.size(), 1u);
  // Jan 1 1993 is a Friday; the next Tuesday is Jan 5 (day 5).
  EXPECT_EQ(time_rows->rows[0][0].AsInt().value(), 5);
}

TEST_F(DbCronTest, TuesdayRuleFiresEveryTuesday) {
  std::vector<TimePoint> fires;
  TemporalAction action;
  action.callback = [&fires](TimePoint day) {
    fires.push_back(day);
    return Status::OK();
  };
  ASSERT_TRUE(rules_
                  ->DeclareRule("every_tuesday", "[2]/DAYS:during:WEEKS",
                                std::move(action), 1)
                  .ok());

  VirtualClock clock(1);
  DbCron cron(rules_.get(), &clock, /*probe_period_days=*/7);
  ASSERT_TRUE(cron.AdvanceTo(31).ok());

  // Tuesdays of January 1993: Jan 5, 12, 19, 26.
  EXPECT_EQ(fires, (std::vector<TimePoint>{5, 12, 19, 26}));
  EXPECT_EQ(clock.NowDay(), 31);
  EXPECT_GE(cron.stats().probes, 4);
  EXPECT_EQ(cron.stats().fires, 4);
}

TEST_F(DbCronTest, RuleTimeAlwaysHoldsTheNextFiring) {
  TemporalAction action;
  action.callback = [](TimePoint) { return Status::OK(); };
  ASSERT_TRUE(rules_
                  ->DeclareRule("every_tuesday", "[2]/DAYS:during:WEEKS",
                                std::move(action), 1)
                  .ok());
  VirtualClock clock(1);
  DbCron cron(rules_.get(), &clock, 7);
  ASSERT_TRUE(cron.AdvanceTo(6).ok());  // past the Jan 5 firing
  auto time_rows = db_.Execute("retrieve (t.next_fire) from t in RULE_TIME");
  ASSERT_TRUE(time_rows.ok());
  ASSERT_EQ(time_rows->rows.size(), 1u);
  EXPECT_EQ(time_rows->rows[0][0].AsInt().value(), 12);  // next Tuesday
}

// A failing firing is audited as an error and rescheduled; the advance
// reports it, the next advance does not, and the rule keeps firing.
TEST_F(DbCronTest, FailedFiringIsAuditedAndRescheduled) {
  std::vector<TimePoint> fires;
  TemporalAction action;
  action.callback = [&fires](TimePoint day) {
    fires.push_back(day);
    return fires.size() == 1 ? Status::Internal("first firing fails")
                             : Status::OK();
  };
  ASSERT_TRUE(rules_
                  ->DeclareRule("every_tuesday", "[2]/DAYS:during:WEEKS",
                                std::move(action), 1)
                  .ok());
  obs::Audit().Clear();
  VirtualClock clock(1);
  DbCron cron(rules_.get(), &clock, 7);
  Status first = cron.AdvanceTo(6);
  EXPECT_EQ(first.code(), StatusCode::kInternal);
  auto time_rows = db_.Execute("retrieve (t.next_fire) from t in RULE_TIME");
  ASSERT_TRUE(time_rows.ok());
  ASSERT_EQ(time_rows->rows.size(), 1u);
  EXPECT_EQ(time_rows->rows[0][0].AsInt().value(), 12);  // moved on
  std::vector<obs::AuditRecord> audit = obs::Audit().Snapshot();
  ASSERT_EQ(audit.size(), 1u);
  EXPECT_EQ(audit[0].outcome, obs::AuditRecord::Outcome::kError);
  EXPECT_NE(audit[0].error.find("first firing fails"), std::string::npos);

  EXPECT_TRUE(cron.AdvanceTo(31).ok());
  EXPECT_EQ(fires, (std::vector<TimePoint>{5, 12, 19, 26}));
}

TEST_F(DbCronTest, CommandActionsRunAgainstTheDatabase) {
  ASSERT_TRUE(db_.Execute("create table fired (day int)").ok());
  TemporalAction action;
  action.command = "append fired (day = fire_day())";
  ASSERT_TRUE(rules_
                  ->DeclareRule("every_monday", "[1]/DAYS:during:WEEKS",
                                std::move(action), 1)
                  .ok());
  VirtualClock clock(1);
  DbCron cron(rules_.get(), &clock, 7);
  ASSERT_TRUE(cron.AdvanceTo(18).ok());
  auto fired = db_.Execute("retrieve (f.day) from f in fired");
  ASSERT_TRUE(fired.ok());
  // Mondays: Jan 4, 11, 18.
  ASSERT_EQ(fired->rows.size(), 3u);
  EXPECT_EQ(fired->rows[0][0].AsInt().value(), 4);
  EXPECT_EQ(fired->rows[2][0].AsInt().value(), 18);
}

TEST_F(DbCronTest, MultipleRulesFireInTimeOrder) {
  std::vector<std::pair<std::string, TimePoint>> log;
  auto make_action = [&log](const std::string& name) {
    TemporalAction action;
    action.callback = [&log, name](TimePoint day) {
      log.emplace_back(name, day);
      return Status::OK();
    };
    return action;
  };
  // Last day of every month, and every Monday.
  ASSERT_TRUE(rules_
                  ->DeclareRule("month_end", "[n]/DAYS:during:MONTHS",
                                make_action("month_end"), 1)
                  .ok());
  ASSERT_TRUE(rules_
                  ->DeclareRule("mondays", "[1]/DAYS:during:WEEKS",
                                make_action("mondays"), 1)
                  .ok());
  VirtualClock clock(1);
  DbCron cron(rules_.get(), &clock, 10);
  ASSERT_TRUE(cron.AdvanceTo(60).ok());

  // Expect Mondays 4,11,18,25,32(Feb 1),39,46,53,60(Mar 1) and month ends
  // 31, 59, interleaved in time order.
  std::vector<std::pair<std::string, TimePoint>> expected = {
      {"mondays", 4},  {"mondays", 11}, {"mondays", 18},  {"mondays", 25},
      {"month_end", 31}, {"mondays", 32}, {"mondays", 39}, {"mondays", 46},
      {"mondays", 53},   {"month_end", 59}, {"mondays", 60}};
  EXPECT_EQ(log, expected);
}

TEST_F(DbCronTest, ProbePeriodDoesNotChangeFirings) {
  for (int64_t period : {1, 3, 7, 30}) {
    CalendarCatalog catalog(TimeSystem{CivilDate{1993, 1, 1}});
    Database db;
    auto manager = TemporalRuleManager::Create(&catalog, &db);
    ASSERT_TRUE(manager.ok());
    std::vector<TimePoint> fires;
    TemporalAction action;
    action.callback = [&fires](TimePoint day) {
      fires.push_back(day);
      return Status::OK();
    };
    ASSERT_TRUE((*manager)
                    ->DeclareRule("tuesdays", "[2]/DAYS:during:WEEKS",
                                  std::move(action), 1)
                    .ok());
    VirtualClock clock(1);
    DbCron cron(manager->get(), &clock, period);
    ASSERT_TRUE(cron.AdvanceTo(40).ok());
    EXPECT_EQ(fires, (std::vector<TimePoint>{5, 12, 19, 26, 33, 40}))
        << "probe period " << period;
  }
}

TEST_F(DbCronTest, DroppedRuleStopsFiring) {
  std::vector<TimePoint> fires;
  TemporalAction action;
  action.callback = [&fires](TimePoint day) {
    fires.push_back(day);
    return Status::OK();
  };
  ASSERT_TRUE(rules_
                  ->DeclareRule("tuesdays", "[2]/DAYS:during:WEEKS",
                                std::move(action), 1)
                  .ok());
  VirtualClock clock(1);
  DbCron cron(rules_.get(), &clock, 7);
  ASSERT_TRUE(cron.AdvanceTo(6).ok());
  ASSERT_TRUE(rules_->DropRule("tuesdays").ok());
  ASSERT_TRUE(cron.AdvanceTo(31).ok());
  EXPECT_EQ(fires, (std::vector<TimePoint>{5}));
  auto time_rows = db_.Execute("retrieve (t.next_fire) from t in RULE_TIME");
  ASSERT_TRUE(time_rows.ok());
  EXPECT_TRUE(time_rows->rows.empty());
}

TEST_F(DbCronTest, RuleDeclaredMidFlightIsPickedUp) {
  std::vector<TimePoint> fires;
  VirtualClock clock(1);
  DbCron cron(rules_.get(), &clock, 7);
  ASSERT_TRUE(cron.AdvanceTo(10).ok());
  TemporalAction action;
  action.callback = [&fires](TimePoint day) {
    fires.push_back(day);
    return Status::OK();
  };
  ASSERT_TRUE(rules_
                  ->DeclareRule("tuesdays", "[2]/DAYS:during:WEEKS",
                                std::move(action), clock.NowDay())
                  .ok());
  ASSERT_TRUE(cron.AdvanceTo(31).ok());
  EXPECT_EQ(fires, (std::vector<TimePoint>{12, 19, 26}));
}

TEST_F(DbCronTest, DerivedCalendarRule) {
  // A rule on a derived calendar: EMP-DAYS (§3.3).
  ASSERT_TRUE(catalog_
                  .DefineValues("HOLIDAYS", Calendar::Order1(Granularity::kDays,
                                                             {{31, 31}, {90, 90}}))
                  .ok());
  std::vector<Interval> bus;
  for (int64_t d = 1; d <= 365; ++d) {
    if (d == 31 || d == 89 || d == 90) continue;
    bus.push_back({d, d});
  }
  ASSERT_TRUE(catalog_
                  .DefineValues("AM_BUS_DAYS",
                                Calendar::Order1(Granularity::kDays, bus))
                  .ok());
  std::vector<TimePoint> fires;
  TemporalAction action;
  action.callback = [&fires](TimePoint day) {
    fires.push_back(day);
    return Status::OK();
  };
  ASSERT_TRUE(rules_
                  ->DeclareRule("emp_days", R"(
      {LDOM = [n]/DAYS:during:MONTHS;
       LDOM_HOL = LDOM:intersects:HOLIDAYS;
       LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL;
       return (LDOM - LDOM_HOL + LAST_BUS_DAY);})",
                                std::move(action), 1)
                  .ok());
  VirtualClock clock(1);
  DbCron cron(rules_.get(), &clock, 7);
  ASSERT_TRUE(cron.AdvanceTo(90).ok());
  EXPECT_EQ(fires, (std::vector<TimePoint>{30, 59, 88}));
}

TEST_F(DbCronTest, DeclareRejectsBadInput) {
  TemporalAction empty;
  EXPECT_EQ(rules_->DeclareRule("x", "[1]/DAYS:during:WEEKS", empty, 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  TemporalAction action;
  action.callback = [](TimePoint) { return Status::OK(); };
  EXPECT_EQ(
      rules_->DeclareRule("", "[1]/DAYS:during:WEEKS", action, 1).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(rules_->DeclareRule("bad", "a:nosuch:b", action, 1).status().code(),
            StatusCode::kParseError);
  ASSERT_TRUE(rules_->DeclareRule("ok", "[1]/DAYS:during:WEEKS", action, 1).ok());
  EXPECT_EQ(rules_->DeclareRule("ok", "[1]/DAYS:during:WEEKS", action, 1)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace caldb
