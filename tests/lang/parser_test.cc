#include "lang/parser.h"

#include <gtest/gtest.h>

namespace caldb {
namespace {

TEST(ParserTest, SimpleForEach) {
  auto r = ParseExpression("WEEKS:during:Jan-1993");
  ASSERT_TRUE(r.ok()) << r.status();
  const Expr& e = **r;
  ASSERT_EQ(e.kind, Expr::Kind::kForEach);
  EXPECT_EQ(e.op, ListOp::kDuring);
  EXPECT_TRUE(e.strict);
  EXPECT_EQ(e.lhs->name, "WEEKS");
  EXPECT_EQ(e.rhs->name, "Jan-1993");
}

TEST(ParserTest, RelaxedForEach) {
  auto r = ParseExpression("WEEKS.overlaps.Jan-1993");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE((*r)->strict);
  EXPECT_EQ((*r)->op, ListOp::kOverlaps);
}

TEST(ParserTest, SelectionBindsWholeChain) {
  // [3]/WEEKS:overlaps:Jan-1993 selects from the foreach result, not from
  // WEEKS (the paper's own reading in §3.1).
  auto r = ParseExpression("[3]/WEEKS:overlaps:Jan-1993");
  ASSERT_TRUE(r.ok()) << r.status();
  const Expr& e = **r;
  ASSERT_EQ(e.kind, Expr::Kind::kSelect);
  ASSERT_EQ(e.selection.size(), 1u);
  EXPECT_EQ(e.selection[0], SelectionItem::Index(3));
  EXPECT_EQ(e.child->kind, Expr::Kind::kForEach);
}

TEST(ParserTest, ChainsAreRightAssociative) {
  // a:during:b:during:c == a:during:(b:during:c); the paper parses right
  // to left (§3.4).
  auto r = ParseExpression("Mondays:during:Januarys:during:1993/Years");
  ASSERT_TRUE(r.ok()) << r.status();
  const Expr& e = **r;
  ASSERT_EQ(e.kind, Expr::Kind::kForEach);
  EXPECT_EQ(e.lhs->name, "Mondays");
  ASSERT_EQ(e.rhs->kind, Expr::Kind::kForEach);
  EXPECT_EQ(e.rhs->lhs->name, "Januarys");
  EXPECT_EQ(e.rhs->rhs->kind, Expr::Kind::kYearSelect);
  EXPECT_EQ(e.rhs->rhs->year, 1993);
}

TEST(ParserTest, ParenthesesOverrideAssociativity) {
  auto r = ParseExpression("(a:during:b):during:c");
  ASSERT_TRUE(r.ok()) << r.status();
  const Expr& e = **r;
  ASSERT_EQ(e.kind, Expr::Kind::kForEach);
  EXPECT_EQ(e.lhs->kind, Expr::Kind::kForEach);
  EXPECT_EQ(e.rhs->name, "c");
}

TEST(ParserTest, SelectionMidChainStartsNestedChain) {
  // The factorized form of the paper's Example 2:
  // [3]/WEEKS:overlaps:[1]/MONTHS:during:1993/YEARS.
  auto r = ParseExpression("[3]/WEEKS:overlaps:[1]/MONTHS:during:1993/YEARS");
  ASSERT_TRUE(r.ok()) << r.status();
  const Expr& top = **r;
  ASSERT_EQ(top.kind, Expr::Kind::kSelect);
  const Expr& fe = *top.child;
  ASSERT_EQ(fe.kind, Expr::Kind::kForEach);
  EXPECT_EQ(fe.op, ListOp::kOverlaps);
  ASSERT_EQ(fe.rhs->kind, Expr::Kind::kSelect);
  ASSERT_EQ(fe.rhs->child->kind, Expr::Kind::kForEach);
  EXPECT_EQ(fe.rhs->child->op, ListOp::kDuring);
}

TEST(ParserTest, ComparisonListops) {
  auto lt = ParseExpression("AM_BUS_DAYS:<:LDOM_HOL");
  ASSERT_TRUE(lt.ok()) << lt.status();
  EXPECT_EQ((*lt)->op, ListOp::kBefore);
  auto le = ParseExpression("a:<=:b");
  ASSERT_TRUE(le.ok());
  EXPECT_EQ((*le)->op, ListOp::kBeforeEq);
}

TEST(ParserTest, SetOpsAreLeftAssociativeAndLoose) {
  auto r = ParseExpression("LDOM - LDOM_HOL + LAST_BUS_DAY");
  ASSERT_TRUE(r.ok()) << r.status();
  const Expr& e = **r;
  ASSERT_EQ(e.kind, Expr::Kind::kSetOp);
  EXPECT_EQ(e.set_op, '+');
  ASSERT_EQ(e.lhs->kind, Expr::Kind::kSetOp);
  EXPECT_EQ(e.lhs->set_op, '-');
}

TEST(ParserTest, SetOpsBindLooserThanForEach) {
  auto r = ParseExpression("a - b:during:c");
  ASSERT_TRUE(r.ok()) << r.status();
  const Expr& e = **r;
  ASSERT_EQ(e.kind, Expr::Kind::kSetOp);
  EXPECT_EQ(e.rhs->kind, Expr::Kind::kForEach);
}

TEST(ParserTest, SelectionItems) {
  auto r = ParseExpression("[1,-2,n,2..4,3..n]/DAYS");
  ASSERT_TRUE(r.ok()) << r.status();
  const auto& sel = (*r)->selection;
  ASSERT_EQ(sel.size(), 5u);
  EXPECT_EQ(sel[0], SelectionItem::Index(1));
  EXPECT_EQ(sel[1], SelectionItem::Index(-2));
  EXPECT_EQ(sel[2], SelectionItem::Last());
  EXPECT_EQ(sel[3], SelectionItem::Range(2, 4));
  EXPECT_EQ(sel[4], SelectionItem::Range(3, SelectionItem::kLastMarker));
}

TEST(ParserTest, SelectionErrors) {
  // Index 0 and ranges starting below 1 have no meaning in the 1-based
  // scheme — rejected at parse time, including the open form `0..n`.
  EXPECT_FALSE(ParseExpression("[0]/DAYS").ok());
  EXPECT_FALSE(ParseExpression("[0..3]/DAYS").ok());
  EXPECT_FALSE(ParseExpression("[0..n]/DAYS").ok());
  EXPECT_FALSE(ParseExpression("[-2..3]/DAYS").ok());
  EXPECT_FALSE(ParseExpression("[3..2]/DAYS").ok());
}

TEST(ParserTest, IntervalLiteral) {
  auto r = ParseExpression("days{(31,31),(90,90)}");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ((*r)->kind, Expr::Kind::kLiteral);
  EXPECT_EQ((*r)->literal.ToString(), "{(31,31),(90,90)}");
  EXPECT_EQ((*r)->literal.granularity(), Granularity::kDays);
  auto neg = ParseExpression("days{(-4,3)}");
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ((*neg)->literal.ToString(), "{(-4,3)}");
}

TEST(ParserTest, LiteralErrors) {
  EXPECT_FALSE(ParseExpression("days{(0,5)}").ok());
  EXPECT_FALSE(ParseExpression("days{(5,1)}").ok());
  EXPECT_FALSE(ParseExpression("bogus{(1,5)}").ok());
}

TEST(ParserTest, CaloperateCall) {
  auto r = ParseExpression("caloperate(DAYS, *, 7)");
  ASSERT_TRUE(r.ok()) << r.status();
  const Expr& e = **r;
  ASSERT_EQ(e.kind, Expr::Kind::kCall);
  EXPECT_EQ(e.name, "caloperate");
  ASSERT_EQ(e.args.size(), 3u);
  EXPECT_EQ(e.args[1]->kind, Expr::Kind::kStar);
  EXPECT_EQ(e.args[2]->int_value, 7);
}

TEST(ParserTest, GenerateCall) {
  auto r = ParseExpression(
      "generate(YEARS, DAYS, \"1987-01-01\", \"1992-01-03\")");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ((*r)->args.size(), 4u);
  EXPECT_EQ((*r)->args[2]->name, "1987-01-01");
}

TEST(ParserTest, EmpDaysScriptParses) {
  // The §3.3 EMP-DAYS script, verbatim structure.
  const char* script = R"(
    {LDOM = [n]/DAYS:during:MONTHS;
     LDOM_HOL = LDOM:intersects:HOLIDAYS;
     LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL;
     return (LDOM - LDOM_HOL + LAST_BUS_DAY);})";
  auto r = ParseScript(script);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->stmts.size(), 1u);  // one outer block
  const Stmt& block = r->stmts[0];
  ASSERT_EQ(block.kind, Stmt::Kind::kBlock);
  ASSERT_EQ(block.body.size(), 4u);
  EXPECT_EQ(block.body[0].kind, Stmt::Kind::kAssign);
  EXPECT_EQ(block.body[0].var, "LDOM");
  EXPECT_EQ(block.body[3].kind, Stmt::Kind::kReturn);
}

TEST(ParserTest, IfElseScriptParses) {
  const char* script = R"(
    {Fridays = [5]/DAYS:during:WEEKS;
     temp1 = [3]/Fridays:overlaps:Expiration-Month;
     if (temp1:intersects:holidays)
        return([n]/AM_BUS_DAYS:<:temp1);
     else
        return(temp1);})";
  auto r = ParseScript(script);
  ASSERT_TRUE(r.ok()) << r.status();
  const Stmt& block = r->stmts[0];
  ASSERT_EQ(block.body.size(), 3u);
  const Stmt& if_stmt = block.body[2];
  ASSERT_EQ(if_stmt.kind, Stmt::Kind::kIf);
  ASSERT_EQ(if_stmt.body.size(), 1u);
  ASSERT_EQ(if_stmt.else_body.size(), 1u);
  EXPECT_EQ(if_stmt.body[0].kind, Stmt::Kind::kReturn);
}

TEST(ParserTest, WhileScriptParses) {
  const char* script = R"(
    { temp1 = [n]/AM_BUS_DAYS:during:Expiration-Month;
      temp2 = [-7]/AM_BUS_DAYS:<:temp1;
      while (today:<:temp2) ; /* do nothing */
      return ("LAST TRADING DAY");
    })";
  auto r = ParseScript(script);
  ASSERT_TRUE(r.ok()) << r.status();
  const Stmt& block = r->stmts[0];
  ASSERT_EQ(block.body.size(), 4u);
  const Stmt& while_stmt = block.body[2];
  ASSERT_EQ(while_stmt.kind, Stmt::Kind::kWhile);
  EXPECT_TRUE(while_stmt.body.empty());
  const Stmt& ret = block.body[3];
  ASSERT_EQ(ret.kind, Stmt::Kind::kReturn);
  EXPECT_TRUE(ret.returns_string);
  EXPECT_EQ(ret.str, "LAST TRADING DAY");
}

TEST(ParserTest, BareExpressionBecomesReturn) {
  auto r = ParseScript("[2]/DAYS:during:WEEKS");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->stmts.size(), 1u);
  EXPECT_EQ(r->stmts[0].kind, Stmt::Kind::kReturn);
}

TEST(ParserTest, RoundTripThroughToString) {
  const char* exprs[] = {
      "[3]/WEEKS:overlaps:Jan-1993",
      "WEEKS.overlaps.Jan-1993",
      "LDOM - LDOM_HOL + LAST_BUS_DAY",
      "[n]/AM_BUS_DAYS:<:LDOM_HOL",
      "1993/YEARS",
      "days{(31,31),(90,90)}",
  };
  for (const char* src : exprs) {
    auto first = ParseExpression(src);
    ASSERT_TRUE(first.ok()) << src << ": " << first.status();
    std::string printed = ExprToString(**first);
    auto second = ParseExpression(printed);
    ASSERT_TRUE(second.ok()) << printed << ": " << second.status();
    EXPECT_EQ(printed, ExprToString(**second)) << src;
  }
}

TEST(ParserTest, HyphenFusionBeforeDotListop) {
  // The '.' after Jan-1993 ends the fused name; 1993.o is no float.
  auto r = ParseExpression("Jan-1993.overlaps.X");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ((*r)->kind, Expr::Kind::kForEach);
  EXPECT_EQ((*r)->lhs->name, "Jan-1993");
  EXPECT_EQ((*r)->rhs->name, "X");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseExpression("").ok());
  EXPECT_FALSE(ParseExpression("a:bogusop:b").ok());
  EXPECT_FALSE(ParseExpression("a:during").ok());
  EXPECT_FALSE(ParseExpression("[0]/DAYS").ok());
  EXPECT_FALSE(ParseExpression("[3..1]/DAYS").ok());
  EXPECT_FALSE(ParseExpression("(a:during:b").ok());
  EXPECT_FALSE(ParseScript("x = ;").ok());
  EXPECT_FALSE(ParseScript("if (a) return b").ok());  // missing ';'
  EXPECT_FALSE(ParseScript("{ x = a; ").ok());        // unterminated block
}

}  // namespace
}  // namespace caldb
