// End-to-end DB substrate tests: DDL, DML, aggregation, index use, and the
// event-rule system of §4.

#include "db/database.h"
#include "tests/db/db_counters.h"

#include <gtest/gtest.h>

namespace caldb {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void Exec(const std::string& query) {
    auto r = db_.Execute(query);
    ASSERT_TRUE(r.ok()) << query << ": " << r.status();
  }

  QueryResult Query(const std::string& query) {
    auto r = db_.Execute(query);
    EXPECT_TRUE(r.ok()) << query << ": " << r.status();
    return r.value_or(QueryResult{});
  }

  Database db_;
  DbCounterDeltas counts_;
};

TEST_F(DatabaseTest, CreateInsertRetrieve) {
  Exec("create table payroll (student text, week int, hours int)");
  Exec("append payroll (student = 'ann', week = 1, hours = 22)");
  Exec("append payroll (student = 'bob', week = 1, hours = 15)");
  Exec("append payroll (student = 'ann', week = 2, hours = 18)");

  QueryResult r = Query(
      "retrieve (w.student, w.hours) from w in payroll where w.week = 1");
  EXPECT_EQ(r.columns, (std::vector<std::string>{"student", "hours"}));
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsText().value(), "ann");
  EXPECT_EQ(r.rows[1][1].AsInt().value(), 15);
}

TEST_F(DatabaseTest, DuplicateTableRejected) {
  Exec("create table t (x int)");
  EXPECT_EQ(db_.Execute("create table t (y int)").status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DatabaseTest, MissingColumnsAreNull) {
  Exec("create table t (a int, b text)");
  Exec("append t (a = 1)");
  QueryResult r = Query("retrieve (v.a, v.b) from v in t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(DatabaseTest, ReplaceAndDelete) {
  Exec("create table t (name text, score int)");
  Exec("append t (name = 'a', score = 1)");
  Exec("append t (name = 'b', score = 2)");
  QueryResult rep =
      Query("replace v in t (score = v.score * 10) where v.name = 'a'");
  EXPECT_EQ(rep.affected, 1);
  QueryResult after = Query("retrieve (v.score) from v in t where v.name = 'a'");
  EXPECT_EQ(after.rows[0][0].AsInt().value(), 10);

  QueryResult del = Query("delete v in t where v.score = 2");
  EXPECT_EQ(del.affected, 1);
  EXPECT_EQ(Query("retrieve (v.name) from v in t").rows.size(), 1u);
}

TEST_F(DatabaseTest, AggregationWithGroupBy) {
  Exec("create table payroll (student text, week int, hours int)");
  Exec("append payroll (student = 'ann', week = 1, hours = 22)");
  Exec("append payroll (student = 'ann', week = 2, hours = 18)");
  Exec("append payroll (student = 'bob', week = 1, hours = 15)");

  QueryResult r = Query(
      "retrieve (w.student, sum(w.hours) as total, count(w.hours) as n, "
      "max(w.hours) as peak, avg(w.hours) as mean) "
      "from w in payroll group by w.student order by total desc");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsText().value(), "ann");
  EXPECT_EQ(r.rows[0][1].AsInt().value(), 40);
  EXPECT_EQ(r.rows[0][2].AsInt().value(), 2);
  EXPECT_EQ(r.rows[0][3].AsInt().value(), 22);
  EXPECT_EQ(r.rows[0][4].AsFloat().value(), 20.0);
  EXPECT_EQ(r.rows[1][1].AsInt().value(), 15);
}

TEST_F(DatabaseTest, GlobalAggregateWithoutGroupBy) {
  Exec("create table t (x int)");
  for (int i = 1; i <= 5; ++i) {
    Exec("append t (x = " + std::to_string(i) + ")");
  }
  QueryResult r = Query("retrieve (count(v.x) as n, min(v.x) as lo) from v in t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt().value(), 5);
  EXPECT_EQ(r.rows[0][1].AsInt().value(), 1);
}

TEST_F(DatabaseTest, NonAggregateTargetOutsideGroupByRejected) {
  Exec("create table t (a int, b int)");
  Exec("append t (a = 1, b = 2)");
  auto r = db_.Execute("retrieve (v.b, sum(v.a)) from v in t group by v.a");
  EXPECT_FALSE(r.ok());
}

TEST_F(DatabaseTest, IndexAcceleratesEqualityAndRange) {
  Exec("create table events (day int, what text)");
  for (int d = 1; d <= 1000; ++d) {
    Exec("append events (day = " + std::to_string(d) + ", what = 'x')");
  }
  Exec("create index on events (day)");
  counts_.Reset();
  QueryResult r = Query(
      "retrieve (e.day) from e in events where e.day >= 10 and e.day <= 12");
  EXPECT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(counts_.index_scans(), 1);
  EXPECT_EQ(counts_.full_scans(), 0);
  EXPECT_EQ(counts_.rows_scanned(), 3);  // only the indexed range

  counts_.Reset();
  Query("retrieve (e.day) from e in events where e.what = 'x' and e.day = 5");
  EXPECT_EQ(counts_.index_scans(), 1);
  EXPECT_EQ(counts_.rows_scanned(), 1);  // residual filter on 1 row

  counts_.Reset();
  Query("retrieve (e.day) from e in events where e.what = 'x'");
  EXPECT_EQ(counts_.full_scans(), 1);
  EXPECT_EQ(counts_.rows_scanned(), 1000);
}

TEST_F(DatabaseTest, AppendRuleFires) {
  Exec("create table payroll (student text, hours int)");
  Exec("create table alerts (student text, hours int)");
  Exec(
      "define rule watch on append to payroll where NEW.hours > 20 "
      "do append alerts (student = NEW.student, hours = NEW.hours)");

  Exec("append payroll (student = 'ann', hours = 22)");
  Exec("append payroll (student = 'bob', hours = 10)");

  QueryResult alerts = Query("retrieve (a.student) from a in alerts");
  ASSERT_EQ(alerts.rows.size(), 1u);
  EXPECT_EQ(alerts.rows[0][0].AsText().value(), "ann");
  EXPECT_EQ(counts_.rules_fired(), 1);
}

TEST_F(DatabaseTest, DeleteAndReplaceRulesSeeCurrent) {
  Exec("create table t (name text, v int)");
  Exec("create table log (name text, op text)");
  Exec("define rule on_del on delete to t do "
       "append log (name = CURRENT.name, op = 'delete')");
  Exec("define rule on_rep on replace to t where NEW.v != CURRENT.v do "
       "append log (name = NEW.name, op = 'replace')");

  Exec("append t (name = 'a', v = 1)");
  Exec("replace x in t (v = 2) where x.name = 'a'");
  Exec("replace x in t (v = 2) where x.name = 'a'");  // no-op change: no fire
  Exec("delete x in t where x.name = 'a'");

  QueryResult log = Query("retrieve (l.name, l.op) from l in log");
  ASSERT_EQ(log.rows.size(), 2u);
  EXPECT_EQ(log.rows[0][1].AsText().value(), "replace");
  EXPECT_EQ(log.rows[1][1].AsText().value(), "delete");
}

TEST_F(DatabaseTest, RetrieveRuleFiresPerTuple) {
  Exec("create table t (x int)");
  Exec("create table audit (x int)");
  Exec("define rule spy on retrieve to t do append audit (x = CURRENT.x)");
  Exec("append t (x = 1)");
  Exec("append t (x = 2)");
  Query("retrieve (v.x) from v in t where v.x > 0");
  QueryResult audit = Query("retrieve (a.x) from a in audit");
  EXPECT_EQ(audit.rows.size(), 2u);
}

TEST_F(DatabaseTest, CascadingRulesAreDepthLimited) {
  Exec("create table ping (n int)");
  // A rule that re-appends to its own table loops; the executor must stop it.
  Exec("define rule loop on append to ping do append ping (n = NEW.n + 1)");
  auto r = db_.Execute("append ping (n = 1)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kEvalError);
  EXPECT_NE(r.status().message().find("depth"), std::string::npos);
}

TEST_F(DatabaseTest, CallbackRules) {
  Exec("create table t (x int)");
  int fired = 0;
  EventRule rule;
  rule.name = "cb";
  rule.event = DbEvent::kAppend;
  rule.table = "t";
  rule.callback = [&fired](Database&, const EvalScope&) {
    ++fired;
    return Status::OK();
  };
  ASSERT_TRUE(db_.DefineRule(std::move(rule)).ok());
  Exec("append t (x = 1)");
  Exec("append t (x = 2)");
  EXPECT_EQ(fired, 2);
}

TEST_F(DatabaseTest, RuleManagement) {
  Exec("create table t (x int)");
  Exec("define rule r1 on append to t do append t (x = 1)");
  EXPECT_EQ(db_.ListRules(), (std::vector<std::string>{"r1"}));
  EXPECT_EQ(db_.Execute("define rule r1 on append to t do append t (x = 1)")
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  Exec("drop rule r1");
  EXPECT_TRUE(db_.ListRules().empty());
  EXPECT_EQ(db_.Execute("drop rule r1").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db_.Execute("define rule r2 on append to missing do append t (x=1)")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(DatabaseTest, QueryResultRendering) {
  Exec("create table t (x int, s text)");
  Exec("append t (x = 1, s = 'a')");
  QueryResult r = Query("retrieve (v.x, v.s) from v in t");
  EXPECT_EQ(r.ToString(), "x | s\n1 | 'a'\n");
}

TEST_F(DatabaseTest, IntervalAndCalendarColumns) {
  Exec("create table spans (name text, span interval)");
  ASSERT_TRUE(db_.registry()
                  .Register("mkint", 2, 2,
                            [](const std::vector<Value>& args) -> Result<Value> {
                              auto lo = args[0].AsInt();
                              auto hi = args[1].AsInt();
                              if (!lo.ok()) return lo.status();
                              if (!hi.ok()) return hi.status();
                              auto i = MakeInterval(*lo, *hi);
                              if (!i.ok()) return i.status();
                              return Value::Of(*i);
                            })
                  .ok());
  Exec("append spans (name = 'jan', span = mkint(1, 31))");
  QueryResult r = Query("retrieve (s.span) from s in spans where s.name = 'jan'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInterval().value(), (Interval{1, 31}));
}

}  // namespace
}  // namespace caldb
