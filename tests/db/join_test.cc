// Multi-variable retrieves (nested-loop joins with predicate pushdown).

#include <gtest/gtest.h>

#include "db/database.h"
#include "tests/db/db_counters.h"

namespace caldb {
namespace {

class JoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("create table students (name text, foreign_student bool)");
    Exec("create table work (name text, week int, hours int)");
    Exec("append students (name = 'amara', foreign_student = true)");
    Exec("append students (name = 'bo', foreign_student = true)");
    Exec("append students (name = 'carol', foreign_student = false)");
    Exec("append work (name = 'amara', week = 1, hours = 24)");
    Exec("append work (name = 'amara', week = 2, hours = 12)");
    Exec("append work (name = 'bo', week = 1, hours = 8)");
    Exec("append work (name = 'carol', week = 2, hours = 30)");
  }

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

TEST_F(JoinTest, ThePaperUniversityQuery) {
  // "Retrieve the names of all foreign students who worked more than 20
  // hours in any week" — one statement now.
  QueryResult r = Query(
      "retrieve (s.name) from s in students, w in work "
      "where s.foreign_student = true and s.name = w.name and w.hours > 20");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText().value(), "amara");
}

TEST_F(JoinTest, CrossProductWithoutPredicate) {
  QueryResult r = Query(
      "retrieve (s.name, w.week) from s in students, w in work");
  EXPECT_EQ(r.rows.size(), 12u);  // 3 x 4
}

TEST_F(JoinTest, ColumnsFromBothSides) {
  QueryResult r = Query(
      "retrieve (s.name, s.foreign_student, w.hours) "
      "from s in students, w in work where s.name = w.name and w.week = 1");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.columns,
            (std::vector<std::string>{"name", "foreign_student", "hours"}));
  EXPECT_EQ(r.rows[0][2].AsInt().value(), 24);
}

TEST_F(JoinTest, AggregationOverAJoin) {
  QueryResult r = Query(
      "retrieve (s.name, sum(w.hours) as total) "
      "from s in students, w in work "
      "where s.name = w.name group by s.name order by total desc");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsText().value(), "amara");
  EXPECT_EQ(r.rows[0][1].AsInt().value(), 36);
  EXPECT_EQ(r.rows[1][0].AsText().value(), "carol");
  EXPECT_EQ(r.rows[2][1].AsInt().value(), 8);
}

TEST_F(JoinTest, ThreeWayJoin) {
  Exec("create table advisors (student text, advisor text)");
  Exec("append advisors (student = 'amara', advisor = 'prof_x')");
  Exec("append advisors (student = 'bo', advisor = 'prof_y')");
  QueryResult r = Query(
      "retrieve (a.advisor, w.hours) "
      "from s in students, w in work, a in advisors "
      "where s.name = w.name and a.student = s.name and w.week = 1");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsText().value(), "prof_x");
}

TEST_F(JoinTest, IndexAcceleratesOuterTable) {
  Exec("create table events (day int, what text)");
  for (int d = 1; d <= 500; ++d) {
    Exec("append events (day = " + std::to_string(d) + ", what = 'e')");
  }
  Exec("create index on events (day)");
  counts_.Reset();
  QueryResult r = Query(
      "retrieve (e.day, s.name) from e in events, s in students "
      "where e.day = 42 and s.foreign_student = true");
  EXPECT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(counts_.index_scans(), 1);
  // The outer scan touched only the indexed row; the inner table scanned
  // once per outer match.
  EXPECT_EQ(counts_.rows_scanned(), 1 + 3);
}

TEST_F(JoinTest, PushdownFiltersEarly) {
  counts_.Reset();
  Query(
      "retrieve (s.name, w.hours) from s in students, w in work "
      "where s.foreign_student = true and s.name = w.name");
  // students scanned once (3 rows); work scanned once per surviving
  // student (2 x 4): carol is filtered before the inner loop runs.
  EXPECT_EQ(counts_.rows_scanned(), 3 + 2 * 4);
}

TEST_F(JoinTest, DuplicateRangeVariableRejected) {
  auto r = db_.Execute(
      "retrieve (s.name) from s in students, s in work where s.name = 'x'");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST_F(JoinTest, UnqualifiedColumnAmbiguousAcrossTables) {
  // `name` exists in both tables: with two bindings the reference is
  // ambiguous and evaluation reports it.
  auto r = db_.Execute(
      "retrieve (name) from s in students, w in work where s.name = w.name");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kEvalError);
}

TEST_F(JoinTest, RetrieveIntoMaterializesResult) {
  QueryResult r = Query(
      "retrieve into busy (s.name, sum(w.hours) as total) "
      "from s in students, w in work where s.name = w.name "
      "group by s.name");
  EXPECT_EQ(r.affected, 3);
  EXPECT_TRUE(r.rows.empty());
  // The materialized table is a first-class table: queryable, indexable.
  QueryResult readback =
      Query("retrieve (b.name, b.total) from b in busy where b.total > 20");
  ASSERT_EQ(readback.rows.size(), 2u);
  Exec("create index on busy (total)");
  // Name collision with an existing table is an error.
  auto dup = db_.Execute("retrieve into busy (s.name) from s in students");
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(JoinTest, RetrieveIntoInfersColumnTypes) {
  Exec("create table t (a int, b text, f float)");
  Exec("append t (a = 1, b = 'x', f = 2.5)");
  Exec("append t (a = 2)");
  Query("retrieve into copy (v.a, v.b, v.f) from v in t");
  auto table = db_.GetTable("copy");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->schema().columns()[0].type, ValueType::kInt);
  EXPECT_EQ((*table)->schema().columns()[1].type, ValueType::kText);
  EXPECT_EQ((*table)->schema().columns()[2].type, ValueType::kFloat);
  EXPECT_EQ((*table)->size(), 2);
}

TEST_F(JoinTest, DropTable) {
  Exec("create table victim (x int)");
  Exec("drop table victim");
  EXPECT_FALSE(db_.HasTable("victim"));
  EXPECT_EQ(db_.Execute("drop table victim").status().code(),
            StatusCode::kNotFound);
  // A table referenced by a rule cannot be dropped.
  Exec("create table watched (x int)");
  Exec("define rule w on append to watched do delete v in watched where v.x = 0");
  auto blocked = db_.Execute("drop table watched");
  EXPECT_EQ(blocked.status().code(), StatusCode::kInvalidArgument);
  Exec("drop rule w");
  Exec("drop table watched");
}

TEST_F(JoinTest, RetrieveRulesFireOncePerTouchedTuple) {
  Exec("create table audit (name text)");
  Exec("define rule spy on retrieve to students do "
       "append audit (name = CURRENT.name)");
  Query(
      "retrieve (s.name, w.week) from s in students, w in work "
      "where s.name = w.name");
  QueryResult audit = Query("retrieve (a.name) from a in audit");
  // Each student row touched once, despite joining against several work
  // rows.
  EXPECT_EQ(audit.rows.size(), 3u);
}

}  // namespace
}  // namespace caldb
