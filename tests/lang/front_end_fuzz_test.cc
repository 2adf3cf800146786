// Seeded fuzzing of the text front ends that share common/scanner.h:
// random text from the union of their alphabets must come back as a Status
// (OK or an error), never a crash or undefined behaviour (tools/check.sh
// runs this test under strict UBSan).

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "caldb.h"
#include "db/query.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "timeseries/pattern.h"

namespace caldb {
namespace {

// Pieces that steer inputs toward each grammar and the token edge cases.
constexpr const char* kPieces[] = {
    "retrieve", "append", "define rule r on append to t do", "explain",
    "(a.x)", "from a in t", "where", "a.x", "cal", "if", "while",
    "return", "Jan-1993", "EMP-DAYS", "DAYS", "WEEKS", ":during:",
    ".overlaps.", "[3]/", "[1..n]/", "S", "next(S)", "prev", "and", "not",
    "99999999999999999999", "9223372036854775807", "9223372036854775808",
    "0.5", ".5", "5.", "1.", "$", "$1", "$0", "$1000001", "/*", "*/", "//",
    "..", "'", "\"", "'p  q'", "-", "--", "!=", "!", "<=", ">=", "\n", " "};
constexpr std::string_view kChars =
    "abcXYZ_019{}()[],;:=+-*/.<>!$'\" \n\t#@";

std::string RandomInput(std::mt19937_64& rng) {
  std::string out;
  const int pieces = static_cast<int>(rng() % 12);
  for (int i = 0; i < pieces; ++i) {
    if (rng() % 2 == 0) {
      out += kPieces[rng() % std::size(kPieces)];
    } else {
      const int run = 1 + static_cast<int>(rng() % 4);
      for (int j = 0; j < run; ++j) out += kChars[rng() % kChars.size()];
    }
  }
  return out;
}

TEST(FrontEndFuzz, EveryEntryPointReturnsAStatus) {
  std::mt19937_64 rng(20240917);
  const std::vector<double> series = {1, 3, 2, 5};
  int lexed = 0;
  for (int i = 0; i < 10'000; ++i) {
    const std::string text = RandomInput(rng);
    Result<std::vector<Token>> tokens = Lex(text);
    if (tokens.ok()) {
      ++lexed;
      // Token slices are ordered, in bounds, and end with one kEnd.
      EXPECT_EQ(tokens->back().kind, TokenKind::kEnd) << text;
      size_t prev_end = 0;
      for (const Token& t : *tokens) {
        ASSERT_LE(prev_end, t.offset) << text;
        ASSERT_LE(t.offset, t.end) << text;
        ASSERT_LE(t.end, text.size()) << text;
        ASSERT_NE(t.kind, TokenKind::kComment) << text;
        prev_end = t.end;
      }
    }
    // Only the absence of a crash is asserted for the parsers.
    (void)ParseScript(text).ok();
    (void)ParseStatement(text).ok();
    (void)ParseDbExpression(text).ok();
    (void)MatchPatternIndices(series, text).ok();
  }
  // The generator reaches past the scanner often enough to matter.
  EXPECT_GT(lexed, 1000);
}

TEST(FrontEndFuzz, OverlongIntegerThroughSession) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  Result<QueryResult> r = session->Execute("cal [99999999999999999999]/DAYS");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError) << r.status();
}

}  // namespace
}  // namespace caldb
