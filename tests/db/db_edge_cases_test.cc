// DB substrate corner cases: nulls in grouping and aggregates, ordering
// of mixed types, interval columns, replace/delete through indexes, and
// rule interactions.

#include <cstdint>

#include <gtest/gtest.h>

#include "db/database.h"
#include "tests/db/db_counters.h"

namespace caldb {
namespace {

class DbEdgeCases : public ::testing::Test {
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

TEST_F(DbEdgeCases, NullsInAggregates) {
  Exec("create table t (k text, v int)");
  Exec("append t (k = 'a', v = 1)");
  Exec("append t (k = 'a')");  // v is null
  Exec("append t (k = 'b')");
  QueryResult r = Query(
      "retrieve (t0.k, count(t0.v) as n, sum(t0.v) as s, min(t0.v) as lo) "
      "from t0 in t group by t0.k");
  ASSERT_EQ(r.rows.size(), 2u);
  // Nulls are ignored by aggregates.
  EXPECT_EQ(r.rows[0][1].AsInt().value(), 1);
  EXPECT_EQ(r.rows[0][2].AsInt().value(), 1);
  // A group with only nulls: count 0, sum 0 (int), min null.
  EXPECT_EQ(r.rows[1][1].AsInt().value(), 0);
  EXPECT_TRUE(r.rows[1][3].is_null());
}

TEST_F(DbEdgeCases, NullGroupKeysFormTheirOwnGroup) {
  Exec("create table t (k text, v int)");
  Exec("append t (v = 1)");
  Exec("append t (v = 2)");
  Exec("append t (k = 'x', v = 3)");
  QueryResult r =
      Query("retrieve (t0.k, sum(t0.v) as s) from t0 in t group by t0.k");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_TRUE(r.rows[0][0].is_null());
  EXPECT_EQ(r.rows[0][1].AsInt().value(), 3);
}

TEST_F(DbEdgeCases, OrderByIntervalColumn) {
  Exec("create table spans (name text, span interval)");
  ASSERT_TRUE(db_.registry()
                  .Register("mk", 2, 2,
                            [](const std::vector<Value>& args) -> Result<Value> {
                              return Value::Of(Interval{args[0].AsInt().value(),
                                                        args[1].AsInt().value()});
                            })
                  .ok());
  Exec("append spans (name = 'b', span = mk(10, 20))");
  Exec("append spans (name = 'a', span = mk(1, 5))");
  Exec("append spans (name = 'c', span = mk(10, 30))");
  QueryResult r =
      Query("retrieve (s.name, s.span) from s in spans order by span");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsText().value(), "a");
  EXPECT_EQ(r.rows[1][0].AsText().value(), "b");  // (10,20) < (10,30)
  EXPECT_EQ(r.rows[2][0].AsText().value(), "c");
}

TEST_F(DbEdgeCases, ReplaceAndDeleteUseIndexes) {
  Exec("create table t (day int, v int)");
  for (int d = 1; d <= 100; ++d) {
    Exec("append t (day = " + std::to_string(d) + ", v = 0)");
  }
  Exec("create index on t (day)");
  counts_.Reset();
  Exec("replace x in t (v = 1) where x.day = 50");
  EXPECT_EQ(counts_.index_scans(), 1);
  EXPECT_EQ(counts_.rows_scanned(), 1);
  counts_.Reset();
  Exec("delete x in t where x.day >= 90 and x.day <= 95");
  EXPECT_EQ(counts_.index_scans(), 1);
  QueryResult count = Query("retrieve (count(x.day) as n) from x in t");
  EXPECT_EQ(count.rows[0][0].AsInt().value(), 94);
  // The index stays consistent after deletes.
  counts_.Reset();
  QueryResult gone = Query("retrieve (x.day) from x in t where x.day = 92");
  EXPECT_TRUE(gone.rows.empty());
}

TEST_F(DbEdgeCases, ReplaceSeesPreUpdateValues) {
  // All set expressions evaluate against the old row.
  Exec("create table t (a int, b int)");
  Exec("append t (a = 1, b = 10)");
  Exec("replace x in t (a = x.b, b = x.a)");
  QueryResult r = Query("retrieve (x.a, x.b) from x in t");
  EXPECT_EQ(r.rows[0][0].AsInt().value(), 10);
  EXPECT_EQ(r.rows[0][1].AsInt().value(), 1);
}

TEST_F(DbEdgeCases, RuleChainAcrossTables) {
  // append A -> rule appends B -> rule appends C (bounded cascade).
  Exec("create table a (x int)");
  Exec("create table b (x int)");
  Exec("create table c (x int)");
  Exec("define rule ab on append to a do append b (x = NEW.x + 1)");
  Exec("define rule bc on append to b do append c (x = NEW.x + 1)");
  Exec("append a (x = 1)");
  EXPECT_EQ(Query("retrieve (v.x) from v in b").rows[0][0].AsInt().value(), 2);
  EXPECT_EQ(Query("retrieve (v.x) from v in c").rows[0][0].AsInt().value(), 3);
}

TEST_F(DbEdgeCases, FunctionErrorsPropagateFromRules) {
  Exec("create table t (x int)");
  EventRule rule;
  rule.name = "boom";
  rule.event = DbEvent::kAppend;
  rule.table = "t";
  rule.callback = [](Database&, const EvalScope&) {
    return Status::EvalError("action exploded");
  };
  ASSERT_TRUE(db_.DefineRule(std::move(rule)).ok());
  auto r = db_.Execute("append t (x = 1)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("boom"), std::string::npos);
}

TEST_F(DbEdgeCases, UnknownColumnInSetList) {
  Exec("create table t (x int)");
  EXPECT_FALSE(db_.Execute("append t (nope = 1)").ok());
  EXPECT_FALSE(db_.Execute("replace v in t (nope = 1)").ok());
}

TEST_F(DbEdgeCases, IntegerArithmeticOverflowIsAnError) {
  Exec("create table t (x int)");
  Exec("append t (x = 9223372036854775807)");
  for (const char* expr : {"t0.x + 1", "0 - t0.x - 2", "t0.x * 2",
                           "(0 - t0.x - 1) / -1"}) {
    auto r = db_.Execute(std::string("retrieve (") + expr + ") from t0 in t");
    ASSERT_FALSE(r.ok()) << expr;
    EXPECT_EQ(r.status().code(), StatusCode::kEvalError) << expr;
    EXPECT_NE(r.status().message().find("integer overflow"),
              std::string::npos)
        << r.status();
  }
  // In range, the same operators stay exact.
  QueryResult r = Query("retrieve (t0.x - 1 + 1, t0.x / -1) from t0 in t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt().value(), INT64_MAX);
  EXPECT_EQ(r.rows[0][1].AsInt().value(), -INT64_MAX);
}

TEST_F(DbEdgeCases, EmptyTableQueries) {
  Exec("create table t (x int)");
  EXPECT_TRUE(Query("retrieve (v.x) from v in t").rows.empty());
  QueryResult agg = Query("retrieve (count(v.x) as n) from v in t");
  // No rows at all: no groups, so no output rows (SQL would give one; the
  // substrate follows Postquel's simpler per-group emission).
  EXPECT_TRUE(agg.rows.empty());
  EXPECT_EQ(Query("delete v in t").affected, 0);
}

TEST_F(DbEdgeCases, TextComparisonsAndOrdering) {
  Exec("create table t (s text)");
  for (const char* s : {"pear", "apple", "fig"}) {
    Exec("append t (s = '" + std::string(s) + "')");
  }
  QueryResult r = Query("retrieve (v.s) from v in t where v.s > 'b' order by s");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsText().value(), "fig");
  EXPECT_EQ(r.rows[1][0].AsText().value(), "pear");
}

}  // namespace
}  // namespace caldb
