// The one scanner behind every text front end: calendar scripts (§3.3),
// DB statements and rule actions (§4-5), and time-series patterns (§6).
// Each front end reads the same tokens and applies its own rules on top
// (lang/lexer.h fuses hyphenated names and maps keywords; the DB and
// pattern parsers reject comments like any other unexpected token).

#ifndef CALDB_COMMON_SCANNER_H_
#define CALDB_COMMON_SCANNER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace caldb {

enum class TokenKind {
  kIdent,      // Tuesdays, AM_BUS_DAYS (Lex in lang/lexer.h fuses Jan-1993)
  kInt,        // 1993
  kFloat,      // 3.5
  kString,     // "LAST TRADING DAY" or 'ann'
  kParam,      // $1 (index in `int_value`)
  kLBrace,     // {
  kRBrace,     // }
  kLParen,     // (
  kRParen,     // )
  kLBracket,   // [
  kRBracket,   // ]
  kComma,      // ,
  kSemicolon,  // ;
  kAssign,     // =
  kPlus,       // +
  kMinus,      // -
  kSlash,      // /
  kColon,      // :
  kDot,        // .
  kDotDot,     // ..
  kLess,       // <   (also the < listop)
  kLessEq,     // <=  (also the <= listop)
  kGreater,    // >
  kGreaterEq,  // >=
  kNotEq,      // !=
  kStar,       // *   (also caloperate's unbounded end time)
  kComment,    // /* ... */ or // ... to end of line
  kIf,         // if, else, while, return: keywords of calendar scripts
  kElse,       // only (Lex maps them; Scan emits kIdent)
  kWhile,
  kReturn,
  kEnd,        // end of input
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  // Identifier spelling / string contents: a view into the scanned
  // source, valid as long as the source is.
  std::string_view text;
  int64_t int_value = 0;  // kInt value, kParam index
  double float_value = 0;
  size_t offset = 0;      // [offset, end) is the token's source slice
  size_t end = 0;
  int line = 1;
  int column = 1;
};

/// Human-readable token-kind name for diagnostics.
std::string_view TokenKindName(TokenKind kind);

/// Reads `source` one token at a time.  Identifiers are
/// [A-Za-z_][A-Za-z0-9_]*; integers must fit int64; floats are d+.d+;
/// placeholders are $1..$1000000; strings are '...' or "..." with no
/// escapes.  Malformed input is a ParseError, never a crash.
class Scanner {
 public:
  explicit Scanner(std::string_view source) : src_(source) {}

  /// Overwrites `*tok` with the next token: kEnd once the input is
  /// exhausted, and again on every later call.  False on malformed input,
  /// with the ParseError in status().  A caller that keeps no token list
  /// (ShapeStatement builds the statement-cache key this way) allocates
  /// nothing per token.
  bool Next(Token* tok);
  const Status& status() const { return status_; }

 private:
  bool Fail(std::string message);
  void CountLines(size_t from, size_t to);

  Status status_;
  std::string_view src_;
  size_t i_ = 0;
  // Lines change only inside whitespace, comments and strings; columns
  // are computed from the offset where the current line starts.
  int line_ = 1;
  size_t line_start_ = 0;
};

/// Splits `source` into Scanner's tokens, ending with one kEnd.  Their
/// text views `source`, which must outlive them.
Result<std::vector<Token>> Scan(std::string_view source);

/// A read position over Scan's tokens: the shared base of the
/// recursive-descent parsers.  Reading past the end yields the kEnd token.
class TokenCursor {
 public:
  explicit TokenCursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() {
    return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_];
  }
  bool Check(TokenKind kind, size_t ahead = 0) const {
    return Peek(ahead).kind == kind;
  }
  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    Advance();
    return true;
  }
  /// An identifier spelled `word`, ignoring ASCII case (DB statements and
  /// patterns have case-insensitive keywords).
  bool CheckKeyword(std::string_view word, size_t ahead = 0) const;
  bool MatchKeyword(std::string_view word);

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace caldb

#endif  // CALDB_COMMON_SCANNER_H_
