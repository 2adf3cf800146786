// The $n placeholder contract: lexing and signature inference at compile
// time, arity/type checking at bind time (BindParams), execution through
// Database::Run with the bound scope, and the places placeholders
// are deliberately rejected (gaps, $0, rule where-clauses, event-rule
// actions).

#include "db/compiled_statement.h"

#include <gtest/gtest.h>

#include "common/macros.h"
#include "db/database.h"
#include "tests/db/db_counters.h"

namespace caldb {
namespace {

// The two steps the Engine runs around its lock: bind, then run.
Result<QueryResult> BindAndRun(Database& db, const CompiledStatement& c,
                               const ParamList* params) {
  CALDB_ASSIGN_OR_RETURN(EvalScope bound, BindParams(c, params));
  return db.Run(c, bound);
}

void Seed(Database* db) {
  ASSERT_TRUE(db->Execute("create table t (x int, s text)").ok());
  ASSERT_TRUE(db->Execute("append t (x = 1, s = 'one')").ok());
  ASSERT_TRUE(db->Execute("append t (x = 2, s = 'two')").ok());
  ASSERT_TRUE(db->Execute("append t (x = 3, s = 'three')").ok());
}

TEST(ParamCompile, SignatureInferredFromConstSiblings) {
  // Types come only from constant siblings: $1 > 100 pins $1 numeric;
  // $2's sibling is a column reference, so $2 stays "any".
  auto c = CompileStatement(
      "retrieve (t.s) from t in t where $1 > 100 and t.s = $2");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ((*c)->param_count, 2);
  ASSERT_EQ((*c)->param_types.size(), 2u);
  EXPECT_EQ((*c)->param_types[0], ValueType::kInt);
  EXPECT_EQ((*c)->param_types[1], ValueType::kNull);
  EXPECT_EQ(RenderParamSignature(**c), "($1:int, $2:any)");
}

TEST(ParamCompile, NumericAndTextInferenceFromConstants) {
  auto c = CompileStatement(
      "retrieve (t.x) from t in t where t.x = $1 + 100 and $2 = 'x'");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ((*c)->param_count, 2);
  EXPECT_EQ((*c)->param_types[0], ValueType::kInt);
  EXPECT_EQ((*c)->param_types[1], ValueType::kText);
}

TEST(ParamCompile, ConflictingHintsWidenToAny) {
  // $1 compared with both an int and a text constant: no single type is
  // right, so the slot widens back to "any" rather than guessing.
  auto c = CompileStatement(
      "retrieve (t.x) from t in t where $1 = 1 or $1 = 'one'");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ((*c)->param_count, 1);
  EXPECT_EQ((*c)->param_types[0], ValueType::kNull);
  EXPECT_EQ(RenderParamSignature(**c), "($1:any)");
}

TEST(ParamCompile, GapsAreCompileErrors) {
  auto c = CompileStatement(
      "retrieve (t.x) from t in t where t.x = $1 or t.x = $3");
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.status().ToString().find("$2"), std::string::npos)
      << c.status().ToString();
}

TEST(ParamCompile, DollarZeroAndBareDollarAreRejected) {
  EXPECT_FALSE(CompileStatement("retrieve (t.x) from t in t where t.x = $0")
                   .ok());
  EXPECT_FALSE(CompileStatement("retrieve (t.x) from t in t where t.x = $")
                   .ok());
}

TEST(ParamCompile, DollarInsideStringLiteralIsNotAPlaceholder) {
  auto c = CompileStatement("append t (x = 1, s = 'costs $1 per day')");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ((*c)->param_count, 0);
  EXPECT_EQ(RenderParamSignature(**c), "()");
  // And the literal survives normalization untouched (the cache key keeps
  // string contents verbatim).
  EXPECT_NE(NormalizeStatementText((*c)->text).find("'costs $1 per day'"), std::string::npos);
}

TEST(ParamCompile, NormalizationKeepsPlaceholdersDistinct) {
  // $1 and $2 are different shapes; $1 spelled twice is one shape.
  EXPECT_EQ(NormalizeStatementText("append t (x =  $1)"),
            NormalizeStatementText("append t (x = $1)"));
  EXPECT_NE(NormalizeStatementText("append t (x = $1)"),
            NormalizeStatementText("append t (x = $2)"));
}

TEST(ParamBind, ExecutesWithBoundValues) {
  Database db;
  Seed(&db);
  auto c = CompileStatement("retrieve (t.s) from t in t where t.x = $1");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  for (int i = 1; i <= 3; ++i) {
    ParamList params = {Value::Int(i)};
    auto rows = BindAndRun(db, **c, &params);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->rows.size(), 1u);
  }
  ParamList params = {Value::Int(99)};
  auto none = BindAndRun(db, **c, &params);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->rows.empty());
}

TEST(ParamBind, RepeatedPlaceholderBindsOneValue) {
  Database db;
  Seed(&db);
  auto c = CompileStatement(
      "retrieve (t.s) from t in t where t.x = $1 or t.x = $1 + 1");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ((*c)->param_count, 1);
  ParamList params = {Value::Int(1)};
  auto rows = BindAndRun(db, **c, &params);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 2u);  // x = 1 and x = 2
}

TEST(ParamBind, ArityMismatchIsInvalidArgument) {
  Database db;
  Seed(&db);
  auto c = CompileStatement("retrieve (t.s) from t in t where t.x = $1");
  ASSERT_TRUE(c.ok());
  ParamList none;
  EXPECT_FALSE(BindAndRun(db, **c, &none).ok());
  ParamList two = {Value::Int(1), Value::Int(2)};
  auto r = BindAndRun(db, **c, &two);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("$1"), std::string::npos);
}

TEST(ParamBind, TypeMismatchIsInvalidArgument) {
  Database db;
  Seed(&db);
  auto c = CompileStatement("retrieve (t.s) from t in t where t.x = $1 + 0");
  ASSERT_TRUE(c.ok());
  ASSERT_EQ((*c)->param_types[0], ValueType::kInt);
  ParamList text = {Value::Text("one")};
  auto r = BindAndRun(db, **c, &text);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("expects"), std::string::npos)
      << r.status().ToString();
  // Both numeric classes bind a numeric slot; null binds anything.
  ParamList f = {Value::Float(1.0)};
  EXPECT_TRUE(BindAndRun(db, **c, &f).ok());
  ParamList null = {Value::Null()};
  EXPECT_TRUE(BindAndRun(db, **c, &null).ok());
}

TEST(ParamBind, BoundPlaceholderDrivesIndexScan) {
  // Index planning sees through $n at execute time: `t.x = $1` with a
  // bound int takes the same index path as `t.x = 2` would.
  Database db;
  Seed(&db);
  ASSERT_TRUE(db.Execute("create index on t (x)").ok());
  auto c = CompileStatement("retrieve (t.s) from t in t where t.x = $1");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  DbCounterDeltas counts;
  ParamList params = {Value::Int(2)};
  auto rows = BindAndRun(db, **c, &params);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(counts.index_scans(), 1);
  EXPECT_EQ(counts.full_scans(), 0);
  EXPECT_EQ(counts.rows_scanned(), 1);  // the range probe, not the table
}

TEST(ParamBind, UnboundExecutionFailsUpFront) {
  Database db;
  Seed(&db);
  auto c = CompileStatement("retrieve (t.s) from t in t where t.x = $1");
  ASSERT_TRUE(c.ok());
  auto r = BindAndRun(db, **c, nullptr);  // no bind list at all
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("bind"), std::string::npos)
      << r.status().ToString();
}

TEST(ParamBind, AppendAndDeleteThroughPlaceholders) {
  Database db;
  Seed(&db);
  auto ins = CompileStatement("append t (x = $1, s = $2)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  ParamList four = {Value::Int(4), Value::Text("four")};
  ASSERT_TRUE(BindAndRun(db, **ins, &four).ok());

  auto del = CompileStatement("delete v in t where v.x = $1");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  ParamList one = {Value::Int(1)};
  ASSERT_TRUE(BindAndRun(db, **del, &one).ok());

  auto rows = db.Execute("retrieve (t.x) from t in t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 3u);  // 2, 3, 4
}

TEST(ParamReject, EventRuleWhereClause) {
  auto c = CompileStatement(
      "define rule r on append to t where NEW.x > $1 do delete v in t");
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.status().ToString().find("rule"), std::string::npos);
}

TEST(ParamReject, EventRuleActionCommand) {
  Database db;
  Seed(&db);
  // The action fires with the event's scope, which carries no bind list —
  // rejected at definition, not at first firing.
  auto r = db.Execute(
      "define rule r on append to t do append t (x = $1, s = 'echo')");
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace caldb
