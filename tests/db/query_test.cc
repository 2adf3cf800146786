// Query-language parser and expression evaluation tests.

#include "db/query.h"

#include <gtest/gtest.h>

#include "db/expression.h"

namespace caldb {
namespace {

TEST(QueryParserTest, Retrieve) {
  auto r = ParseStatement(
      "retrieve (w.student, w.hours as h) from w in payroll where w.week = 3");
  ASSERT_TRUE(r.ok()) << r.status();
  const auto& stmt = std::get<RetrieveStmt>(*r);
  ASSERT_EQ(stmt.targets.size(), 2u);
  EXPECT_EQ(stmt.targets[0].alias, "student");
  EXPECT_EQ(stmt.targets[1].alias, "h");
  ASSERT_EQ(stmt.tables.size(), 1u);
  EXPECT_EQ(stmt.tables[0].var, "w");
  EXPECT_EQ(stmt.tables[0].table, "payroll");
  ASSERT_TRUE(stmt.where != nullptr);
  EXPECT_EQ(stmt.where->ToString(), "(w.week = 3)");
}

TEST(QueryParserTest, RetrieveGroupOrder) {
  auto r = ParseStatement(
      "retrieve (w.student, sum(w.hours) as total) from w in payroll "
      "group by w.student order by total desc, student");
  ASSERT_TRUE(r.ok()) << r.status();
  const auto& stmt = std::get<RetrieveStmt>(*r);
  ASSERT_EQ(stmt.group_by.size(), 1u);
  EXPECT_EQ(stmt.group_by[0],
            (std::pair<std::string, std::string>{"w", "student"}));
  ASSERT_EQ(stmt.order_by.size(), 2u);
  EXPECT_EQ(stmt.order_by[0], (std::pair<std::string, bool>{"total", false}));
  EXPECT_EQ(stmt.order_by[1], (std::pair<std::string, bool>{"student", true}));
}

TEST(QueryParserTest, AppendReplaceDelete) {
  auto append = ParseStatement("append payroll (student = 'ann', week = 1)");
  ASSERT_TRUE(append.ok()) << append.status();
  EXPECT_EQ(std::get<AppendStmt>(*append).sets.size(), 2u);

  auto replace = ParseStatement(
      "replace w in payroll (hours = w.hours + 1) where w.student = 'ann'");
  ASSERT_TRUE(replace.ok()) << replace.status();
  EXPECT_EQ(std::get<ReplaceStmt>(*replace).sets[0].second->ToString(),
            "(w.hours + 1)");

  auto del = ParseStatement("delete w in payroll where w.week = 2");
  ASSERT_TRUE(del.ok()) << del.status();
  EXPECT_EQ(std::get<DeleteStmt>(*del).table, "payroll");
}

TEST(QueryParserTest, CreateTableAndIndex) {
  auto create = ParseStatement(
      "create table prices (symbol text, day int, price float, span interval, "
      "cal calendar)");
  ASSERT_TRUE(create.ok()) << create.status();
  const auto& stmt = std::get<CreateTableStmt>(*create);
  ASSERT_EQ(stmt.columns.size(), 5u);
  EXPECT_EQ(stmt.columns[3].type, ValueType::kInterval);
  EXPECT_EQ(stmt.columns[4].type, ValueType::kCalendar);

  auto index = ParseStatement("create index on prices (day)");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(std::get<CreateIndexStmt>(*index).column, "day");
}

TEST(QueryParserTest, DefineRuleCapturesActionTail) {
  auto r = ParseStatement(
      "define rule watch on append to payroll where NEW.hours > 20 "
      "do append alerts (student = NEW.student, hours = NEW.hours)");
  ASSERT_TRUE(r.ok()) << r.status();
  const auto& stmt = std::get<DefineRuleStmt>(*r);
  EXPECT_EQ(stmt.name, "watch");
  EXPECT_EQ(stmt.event, DbEvent::kAppend);
  EXPECT_EQ(stmt.table, "payroll");
  ASSERT_TRUE(stmt.where != nullptr);
  EXPECT_EQ(stmt.action_command,
            "append alerts (student = NEW.student, hours = NEW.hours)");
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseStatement("").ok());
  EXPECT_FALSE(ParseStatement("retrieve w.x from w in t").ok());  // no parens
  EXPECT_FALSE(ParseStatement("append t (x = )").ok());
  EXPECT_FALSE(ParseStatement("define rule r on bogus to t do x").ok());
  EXPECT_FALSE(ParseStatement("create table t (x varchar)").ok());
  EXPECT_FALSE(ParseStatement("retrieve (x) from w in t extra").ok());
  EXPECT_FALSE(ParseDbExpression("'unterminated").ok());
  // Integer literals must fit int64.
  EXPECT_TRUE(ParseDbExpression("9223372036854775807 = 1").ok());
  EXPECT_FALSE(ParseDbExpression("99999999999999999999 = 1").ok());
  // Comments are not part of the statement language.
  EXPECT_FALSE(ParseStatement("retrieve /* c */ (a.x) from a in t").ok());
  EXPECT_FALSE(ParseStatement("retrieve (a.x) from a in t // c").ok());
  EXPECT_FALSE(ParseDbExpression("a.x /* c */ = 1").ok());
}

TEST(QueryParserTest, HyphenIsSubtraction) {
  // Hyphenated names belong to calendar scripts only.
  auto r = ParseDbExpression("a.x-1");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ((*r)->kind, DbExpr::Kind::kArith);
  EXPECT_EQ((*r)->arith, '-');
  EXPECT_EQ((*r)->lhs->var, "a");
  EXPECT_EQ((*r)->lhs->column, "x");
}

// --- expression evaluation ---------------------------------------------

class ExprEval : public ::testing::Test {
 protected:
  ExprEval()
      : schema_({{"student", ValueType::kText},
                 {"week", ValueType::kInt},
                 {"hours", ValueType::kInt},
                 {"gpa", ValueType::kFloat}}),
        row_({Value::Text("ann"), Value::Int(3), Value::Int(22),
              Value::Float(3.5)}) {
    scope_.tuples["w"] = TupleBinding{&schema_, &row_};
    scope_.registry = &registry_;
  }

  Value Eval(const std::string& text) {
    auto expr = ParseDbExpression(text);
    EXPECT_TRUE(expr.ok()) << expr.status();
    auto v = EvalDbExpr(**expr, scope_);
    EXPECT_TRUE(v.ok()) << text << ": " << v.status();
    return v.value_or(Value::Null());
  }

  Schema schema_;
  Row row_;
  FunctionRegistry registry_;
  EvalScope scope_;
};

TEST_F(ExprEval, ColumnsAndComparisons) {
  EXPECT_TRUE(Eval("w.student = 'ann'").AsBool().value());
  EXPECT_TRUE(Eval("w.hours > 20").AsBool().value());
  EXPECT_FALSE(Eval("w.week >= 4").AsBool().value());
  EXPECT_TRUE(Eval("w.gpa < 3.6").AsBool().value());
  EXPECT_TRUE(Eval("hours != 0").AsBool().value());  // unqualified, one binding
}

TEST_F(ExprEval, LogicShortCircuits) {
  EXPECT_TRUE(Eval("w.hours > 20 and w.week = 3").AsBool().value());
  EXPECT_TRUE(Eval("w.hours > 100 or w.week = 3").AsBool().value());
  EXPECT_FALSE(Eval("not (w.week = 3)").AsBool().value());
  // Short-circuit: rhs would error (type mismatch) but is never evaluated.
  EXPECT_FALSE(Eval("false and (w.student > 1)").AsBool().value());
}

TEST_F(ExprEval, Arithmetic) {
  EXPECT_EQ(Eval("w.hours * 2 + 1").AsInt().value(), 45);
  EXPECT_EQ(Eval("7 / 2").AsInt().value(), 3);       // int division
  EXPECT_EQ(Eval("7.0 / 2").AsFloat().value(), 3.5);  // float division
  EXPECT_EQ(Eval("-w.week").AsInt().value(), -3);
  EXPECT_EQ(Eval("-5").AsInt().value(), -5);
}

TEST_F(ExprEval, DivisionByZero) {
  auto expr = ParseDbExpression("1 / 0");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(EvalDbExpr(**expr, scope_).status().code(), StatusCode::kEvalError);
}

TEST_F(ExprEval, RegisteredFunction) {
  ASSERT_TRUE(registry_
                  .Register("double_it", 1, 1,
                            [](const std::vector<Value>& args) -> Result<Value> {
                              auto v = args[0].AsInt();
                              if (!v.ok()) return v.status();
                              return Value::Int(*v * 2);
                            })
                  .ok());
  EXPECT_EQ(Eval("double_it(w.hours)").AsInt().value(), 44);
  auto missing = ParseDbExpression("no_such_fn(1)");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(EvalDbExpr(**missing, scope_).status().code(), StatusCode::kNotFound);
}

TEST_F(ExprEval, UnknownVariableAndColumn) {
  auto bad_var = ParseDbExpression("z.hours");
  ASSERT_TRUE(bad_var.ok());
  EXPECT_FALSE(EvalDbExpr(**bad_var, scope_).ok());
  auto bad_col = ParseDbExpression("w.nope");
  ASSERT_TRUE(bad_col.ok());
  EXPECT_FALSE(EvalDbExpr(**bad_col, scope_).ok());
}

TEST_F(ExprEval, NullSemantics) {
  Row null_row{Value::Null(), Value::Null(), Value::Null(), Value::Null()};
  EvalScope scope;
  scope.tuples["w"] = TupleBinding{&schema_, &null_row};
  auto expr = ParseDbExpression("w.hours > 20");
  ASSERT_TRUE(expr.ok());
  auto v = EvalDbExpr(**expr, scope);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->AsBool().value());  // null comparisons are false
  auto eq = ParseDbExpression("w.hours = null");
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(EvalDbExpr(**eq, scope)->AsBool().value());
}

TEST(ExtractIndexRangeTest, Shapes) {
  auto range_of = [](const std::string& text) {
    auto expr = ParseDbExpression(text);
    EXPECT_TRUE(expr.ok()) << expr.status();
    return ExtractIndexRange(**expr, "w", "week");
  };
  auto eq = range_of("w.week = 5");
  ASSERT_TRUE(eq.has_value());
  EXPECT_EQ(*eq, std::make_pair(int64_t{5}, int64_t{5}));

  auto range = range_of("w.week >= 3 and w.week < 8");
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(*range, std::make_pair(int64_t{3}, int64_t{7}));

  auto flipped = range_of("10 >= w.week and w.student = 'a'");
  ASSERT_TRUE(flipped.has_value());
  EXPECT_EQ(flipped->second, 10);

  EXPECT_FALSE(range_of("w.hours = 5").has_value());       // other column
  EXPECT_FALSE(range_of("w.week = 5 or w.week = 7").has_value());  // disjunction
  EXPECT_FALSE(range_of("w.week = w.hours").has_value());  // non-constant
}

}  // namespace
}  // namespace caldb
