#include "lang/lexer.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace caldb {
namespace {

std::vector<TokenKind> Kinds(const std::vector<Token>& tokens) {
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  return kinds;
}

TEST(LexerTest, SimpleExpression) {
  auto r = Lex("[2]/DAYS:during:WEEKS");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(Kinds(*r),
            (std::vector<TokenKind>{
                TokenKind::kLBracket, TokenKind::kInt, TokenKind::kRBracket,
                TokenKind::kSlash, TokenKind::kIdent, TokenKind::kColon,
                TokenKind::kIdent, TokenKind::kColon, TokenKind::kIdent,
                TokenKind::kEnd}));
  EXPECT_EQ((*r)[1].int_value, 2);
  EXPECT_EQ((*r)[4].text, "DAYS");
  EXPECT_EQ((*r)[6].text, "during");
}

TEST(LexerTest, HyphenatedIdentifiers) {
  auto r = Lex("Jan-1993 EMP-DAYS Expiration-Month");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 4u);
  EXPECT_EQ((*r)[0].text, "Jan-1993");
  EXPECT_EQ((*r)[1].text, "EMP-DAYS");
  EXPECT_EQ((*r)[2].text, "Expiration-Month");
}

TEST(LexerTest, SpacedMinusIsAnOperator) {
  auto r = Lex("LDOM - LDOM_HOL + LAST_BUS_DAY");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Kinds(*r),
            (std::vector<TokenKind>{TokenKind::kIdent, TokenKind::kMinus,
                                    TokenKind::kIdent, TokenKind::kPlus,
                                    TokenKind::kIdent, TokenKind::kEnd}));
}

TEST(LexerTest, Keywords) {
  auto r = Lex("if else while return ifx");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].kind, TokenKind::kIf);
  EXPECT_EQ((*r)[1].kind, TokenKind::kElse);
  EXPECT_EQ((*r)[2].kind, TokenKind::kWhile);
  EXPECT_EQ((*r)[3].kind, TokenKind::kReturn);
  EXPECT_EQ((*r)[4].kind, TokenKind::kIdent);  // not a keyword
}

TEST(LexerTest, ComparisonListops) {
  auto r = Lex(":<: :<=:");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Kinds(*r),
            (std::vector<TokenKind>{TokenKind::kColon, TokenKind::kLess,
                                    TokenKind::kColon, TokenKind::kColon,
                                    TokenKind::kLessEq, TokenKind::kColon,
                                    TokenKind::kEnd}));
}

TEST(LexerTest, DotsAndRanges) {
  auto r = Lex(".overlaps. 2..5");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Kinds(*r),
            (std::vector<TokenKind>{TokenKind::kDot, TokenKind::kIdent,
                                    TokenKind::kDot, TokenKind::kInt,
                                    TokenKind::kDotDot, TokenKind::kInt,
                                    TokenKind::kEnd}));
}

TEST(LexerTest, CommentsAreSkipped) {
  auto r = Lex("a /* block \n comment */ b // line comment\n c");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 4u);
  EXPECT_EQ((*r)[0].text, "a");
  EXPECT_EQ((*r)[1].text, "b");
  EXPECT_EQ((*r)[2].text, "c");
}

TEST(LexerTest, StringLiteral) {
  auto r = Lex("return (\"LAST TRADING DAY\");");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[2].kind, TokenKind::kString);
  EXPECT_EQ((*r)[2].text, "LAST TRADING DAY");
}

TEST(LexerTest, LineAndColumnTracking) {
  auto r = Lex("a\n  b");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].line, 1);
  EXPECT_EQ((*r)[1].line, 2);
  EXPECT_EQ((*r)[1].column, 3);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("\"unterminated").ok());
  EXPECT_FALSE(Lex("/* unterminated").ok());
  EXPECT_FALSE(Lex("a # b").ok());
  // Integer literals must fit int64: past it is a ParseError, not UB.
  auto max = Lex("9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.status();
  EXPECT_EQ((*max)[0].int_value, INT64_MAX);
  auto over = Lex("[99999999999999999999]/DAYS");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace caldb
