// The parse-once pipeline at the db layer: CompileStatement metadata
// (write classification, referenced tables, normalization), the
// Database::Prepare / Run entry points, the EXPLAIN/PROFILE
// single-parse contract, and DefineRule's fail-fast on unparseable
// actions.

#include "db/compiled_statement.h"

#include <gtest/gtest.h>

#include "db/database.h"
#include "obs/obs.h"

namespace caldb {
namespace {

using WriteClass = CompiledStatement::WriteClass;

int64_t ParseCount() {
  return obs::Metrics().counter("caldb.db.parses")->value();
}

TEST(NormalizeStatementText, CollapsesWhitespaceAndTrims) {
  EXPECT_EQ(NormalizeStatementText("  retrieve   (t.x)\n\tfrom t in t  "),
            "retrieve (t.x) from t in t");
  EXPECT_EQ(NormalizeStatementText("append t (x = 1)"), "append t (x = 1)");
  EXPECT_EQ(NormalizeStatementText(""), "");
  EXPECT_EQ(NormalizeStatementText("   \t\n "), "");
}

TEST(NormalizeStatementText, PreservesQuotedRegions) {
  // Whitespace inside string literals is meaning, not formatting.
  EXPECT_EQ(NormalizeStatementText("append t (s =  'a   b')"),
            "append t (s = 'a   b')");
  EXPECT_EQ(NormalizeStatementText("append t (s = \"x \t y\",  n =  1)"),
            "append t (s = \"x \t y\", n = 1)");
  // An unterminated quote must not crash; the rest stays as-is.
  EXPECT_EQ(NormalizeStatementText("append t (s = 'a   b"),
            "append t (s = 'a   b");
}

TEST(CompileStatement, RetrieveMetadata) {
  auto c = CompileStatement("retrieve (w.x) from w in alerts");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ((*c)->write_class, WriteClass::kReadUnlessRetrieveRules);
  EXPECT_FALSE((*c)->is_ddl);
  ASSERT_EQ((*c)->tables.size(), 1u);
  EXPECT_EQ((*c)->tables[0], "alerts");
  EXPECT_EQ((*c)->text, "retrieve (w.x) from w in alerts");
  EXPECT_EQ(NormalizeStatementText((*c)->text),
            "retrieve (w.x) from w in alerts");
  ASSERT_NE((*c)->stmt, nullptr);
  EXPECT_TRUE(std::holds_alternative<RetrieveStmt>(*(*c)->stmt));
}

TEST(CompileStatement, RetrieveIntoWrites) {
  auto c = CompileStatement("retrieve into copy (w.x) from w in alerts");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ((*c)->write_class, WriteClass::kWrite);
  EXPECT_TRUE((*c)->is_ddl);  // creates the target table
  // Both the source and the created table are referenced.
  EXPECT_NE(std::find((*c)->tables.begin(), (*c)->tables.end(), "alerts"),
            (*c)->tables.end());
  EXPECT_NE(std::find((*c)->tables.begin(), (*c)->tables.end(), "copy"),
            (*c)->tables.end());
}

TEST(CompileStatement, DmlAndDdlMetadata) {
  auto append = CompileStatement("append t (x = 1)");
  ASSERT_TRUE(append.ok());
  EXPECT_EQ((*append)->write_class, WriteClass::kWrite);
  EXPECT_FALSE((*append)->is_ddl);
  EXPECT_EQ((*append)->tables, std::vector<std::string>{"t"});

  auto create = CompileStatement("create table t (x int)");
  ASSERT_TRUE(create.ok());
  EXPECT_EQ((*create)->write_class, WriteClass::kWrite);
  EXPECT_TRUE((*create)->is_ddl);
  EXPECT_EQ((*create)->tables, std::vector<std::string>{"t"});

  auto drop = CompileStatement("drop table t");
  ASSERT_TRUE(drop.ok());
  EXPECT_TRUE((*drop)->is_ddl);
  EXPECT_EQ((*drop)->tables, std::vector<std::string>{"t"});

  // drop rule: the referenced table is not statically known, so the table
  // list is empty — downstream caches take that as "flush everything".
  auto drop_rule = CompileStatement("drop rule r");
  ASSERT_TRUE(drop_rule.ok());
  EXPECT_TRUE((*drop_rule)->is_ddl);
  EXPECT_TRUE((*drop_rule)->tables.empty());
}

TEST(CompileStatement, ExplainInheritsInnerTablesAndStaysRead) {
  auto c = CompileStatement("explain retrieve (w.x) from w in alerts");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ((*c)->write_class, WriteClass::kRead);
  EXPECT_EQ((*c)->tables, std::vector<std::string>{"alerts"});
  // The inner statement was compiled exactly once, at parse time.
  const auto& stmt = std::get<ExplainStmt>(*(*c)->stmt);
  ASSERT_NE(stmt.inner, nullptr);
  EXPECT_TRUE(std::holds_alternative<RetrieveStmt>(*stmt.inner->stmt));
}

TEST(CompileStatement, ProfileInheritsInnerWriteClass) {
  auto c = CompileStatement("profile append t (x = 1)");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  // PROFILE runs the statement, so it writes what the inner writes.
  EXPECT_EQ((*c)->write_class, WriteClass::kWrite);
  EXPECT_EQ((*c)->tables, std::vector<std::string>{"t"});
}

TEST(CompileStatement, ParseErrorsComeBackAsStatus) {
  auto c = CompileStatement("retrieve from nowhere ((");
  EXPECT_FALSE(c.ok());
  auto empty = CompileStatement("");
  EXPECT_FALSE(empty.ok());
}

TEST(PreparedExecution, HandleExecutesRepeatedlyWithoutReparsing) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (x int)").ok());

  auto prepared = Database::Prepare("append t (x = 7)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  const int64_t parses_before = ParseCount();
  for (int i = 0; i < 10; ++i) {
    auto r = db.Run(**prepared, EvalScope{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(ParseCount(), parses_before);  // zero parses on the hot path

  auto rows = db.Execute("retrieve (t.x) from t in t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 10u);
}

TEST(PreparedExecution, ExplainAndProfileParseOnce) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (x int)").ok());
  ASSERT_TRUE(db.Execute("append t (x = 1)").ok());

  // One ParseStatement call for the outer text, one CompileStatement for
  // the inner — and nothing more: plan rendering and the PROFILE timed
  // run reuse the same compiled handle.
  int64_t before = ParseCount();
  auto explain = db.Execute("explain retrieve (t.x) from t in t");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(ParseCount() - before, 2);

  before = ParseCount();
  auto profile = db.Execute("profile retrieve (t.x) from t in t");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(ParseCount() - before, 2);
  EXPECT_FALSE(profile->message.empty());
}

TEST(EventRules, DefineRuleRejectsUnparseableActionAtDefinition) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (x int)").ok());

  EventRule bad;
  bad.name = "broken";
  bad.event = DbEvent::kAppend;
  bad.table = "t";
  bad.command = "append nowhere ((((";
  Status st = db.DefineRule(std::move(bad));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("broken"), std::string::npos);
  EXPECT_TRUE(db.ListRules().empty());

  // The language-level spelling fails identically.
  EXPECT_FALSE(
      db.Execute("define rule r2 on append to t do append zzz ((").ok());
}

TEST(EventRules, FiringsExecuteThePrecompiledAction) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (x int)").ok());
  ASSERT_TRUE(db.Execute("create table log (v int)").ok());

  EventRule rule;
  rule.name = "mirror";
  rule.event = DbEvent::kAppend;
  rule.table = "t";
  rule.command = "append log (v = NEW.x)";
  ASSERT_TRUE(db.DefineRule(std::move(rule)).ok());
  // The stored rule carries its compiled handle.
  ASSERT_EQ(db.event_rules().size(), 1u);
  ASSERT_NE(db.event_rules()[0].compiled_command, nullptr);

  auto trigger = Database::Prepare("append t (x = 5)");
  ASSERT_TRUE(trigger.ok());
  const int64_t before = ParseCount();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.Run(**trigger, EvalScope{}).ok());
  }
  // Neither the trigger statement nor the rule action parsed.
  EXPECT_EQ(ParseCount(), before);

  auto log = db.Execute("retrieve (l.v) from l in log");
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->rows.size(), 5u);
}

}  // namespace
}  // namespace caldb
