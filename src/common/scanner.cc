#include "common/scanner.h"

#include <algorithm>
#include <charconv>
#include <iterator>

#include "common/macros.h"
#include "common/strings.h"

namespace caldb {

std::string_view TokenKindName(TokenKind kind) {
  // Indexed by TokenKind, in declaration order.
  static constexpr std::string_view kNames[] = {
      "identifier", "integer", "float", "string", "parameter", "'{'", "'}'",
      "'('", "')'", "'['", "']'", "','", "';'", "'='", "'+'", "'-'", "'/'",
      "':'", "'.'", "'..'", "'<'", "'<='", "'>'", "'>='", "'!='", "'*'",
      "comment", "'if'", "'else'", "'while'", "'return'", "end of input"};
  static_assert(std::size(kNames) == static_cast<size_t>(TokenKind::kEnd) + 1);
  return kNames[static_cast<size_t>(kind)];
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

Result<std::vector<Token>> Scan(std::string_view src) {
  const size_t n = src.size();
  std::vector<Token> tokens;
  // About one token per four source bytes: growing the vector token by
  // token costs more than the lexing itself on short statements.
  tokens.reserve(n / 4 + 2);
  size_t i = 0;
  // Lines change only inside whitespace, comments and strings; columns
  // are computed from the offset where the current line starts.
  int line = 1;
  size_t line_start = 0;
  auto count_lines = [&](size_t from, size_t to) {
    for (size_t k = from; k < to; ++k) {
      if (src[k] == '\n') {
        ++line;
        line_start = k + 1;
      }
    }
  };
  auto skip = [&](bool (*pred)(char)) {
    while (i < n && pred(src[i])) ++i;
  };
  while (true) {
    const size_t space = i;
    skip(IsSpace);
    count_lines(space, i);
    Token tok;
    tok.offset = i;
    tok.line = line;
    tok.column = static_cast<int>(i - line_start) + 1;
    if (i == n) {
      tok.end = n;
      tokens.push_back(std::move(tok));
      return tokens;
    }
    const char c = src[i];
    const char next = i + 1 < n ? src[i + 1] : '\0';
    if (IsIdentStart(c)) {
      ++i;
      skip(IsIdentChar);
      tok.kind = TokenKind::kIdent;
      tok.text.assign(src.substr(tok.offset, i - tok.offset));
    } else if (IsDigit(c)) {
      skip(IsDigit);
      if (i + 1 < n && src[i] == '.' && IsDigit(src[i + 1])) {
        ++i;
        skip(IsDigit);
        tok.kind = TokenKind::kFloat;
        // ParseDouble, not std::stod: an over-long literal must come back
        // as a ParseError, not an exception (no-throw contract,
        // common/result.h).
        CALDB_ASSIGN_OR_RETURN(tok.float_value,
                               ParseDouble(src.substr(tok.offset, i - tok.offset)));
      } else {
        tok.kind = TokenKind::kInt;
        if (std::from_chars(src.data() + tok.offset, src.data() + i,
                            tok.int_value).ec != std::errc()) {
          return Status::ParseError(
              "integer literal out of range: " +
              std::string(src.substr(tok.offset, i - tok.offset)));
        }
      }
    } else if (c == '$') {
      const size_t start = ++i;
      skip(IsDigit);
      if (i == start) {
        return Status::ParseError(
            "expected a parameter number after '$' (placeholders are $1, "
            "$2, ...)");
      }
      tok.kind = TokenKind::kParam;
      if (std::from_chars(src.data() + start, src.data() + i, tok.int_value)
                  .ec != std::errc() ||
          tok.int_value < 1 || tok.int_value > 1'000'000) {
        return Status::ParseError("parameter $" +
                                  std::string(src.substr(start, i - start)) +
                                  " out of range (placeholders start at $1)");
      }
    } else if (c == '\'' || c == '"') {
      const size_t close = src.find(c, i + 1);
      if (close == std::string_view::npos) {
        return Status::ParseError("unterminated string literal at line " +
                                  std::to_string(tok.line));
      }
      tok.kind = TokenKind::kString;
      tok.text.assign(src.substr(i + 1, close - i - 1));
      count_lines(i + 1, close);
      i = close + 1;
    } else if (c == '/' && next == '*') {
      const size_t close = src.find("*/", i + 2);
      if (close == std::string_view::npos) {
        return Status::ParseError("unterminated comment starting at line " +
                                  std::to_string(tok.line));
      }
      tok.kind = TokenKind::kComment;
      count_lines(i + 2, close);
      i = close + 2;
    } else if (c == '/' && next == '/') {
      tok.kind = TokenKind::kComment;
      i = std::min(src.find('\n', i + 2), n);
    } else {
      // Operators: a two-character spelling wins over its prefix.
      ++i;
      auto pick = [&](char second, TokenKind two, TokenKind one) {
        if (next != second) return one;
        ++i;
        return two;
      };
      switch (c) {
        case '{': tok.kind = TokenKind::kLBrace; break;
        case '}': tok.kind = TokenKind::kRBrace; break;
        case '(': tok.kind = TokenKind::kLParen; break;
        case ')': tok.kind = TokenKind::kRParen; break;
        case '[': tok.kind = TokenKind::kLBracket; break;
        case ']': tok.kind = TokenKind::kRBracket; break;
        case ',': tok.kind = TokenKind::kComma; break;
        case ';': tok.kind = TokenKind::kSemicolon; break;
        case ':': tok.kind = TokenKind::kColon; break;
        case '=': tok.kind = TokenKind::kAssign; break;
        case '+': tok.kind = TokenKind::kPlus; break;
        case '-': tok.kind = TokenKind::kMinus; break;
        case '*': tok.kind = TokenKind::kStar; break;
        case '/': tok.kind = TokenKind::kSlash; break;
        case '.': tok.kind = pick('.', TokenKind::kDotDot, TokenKind::kDot); break;
        case '<': tok.kind = pick('=', TokenKind::kLessEq, TokenKind::kLess); break;
        case '>':
          tok.kind = pick('=', TokenKind::kGreaterEq, TokenKind::kGreater);
          break;
        case '!':
          if (next == '=') {
            ++i;
            tok.kind = TokenKind::kNotEq;
            break;
          }
          [[fallthrough]];
        default:
          return Status::ParseError(std::string("unexpected character '") + c +
                                    "' at line " + std::to_string(tok.line) +
                                    ", column " + std::to_string(tok.column));
      }
    }
    tok.end = i;
    tokens.push_back(std::move(tok));
  }
}

bool TokenCursor::CheckKeyword(std::string_view word, size_t ahead) const {
  return Check(TokenKind::kIdent, ahead) && EqualsIgnoreCase(Peek(ahead).text, word);
}

bool TokenCursor::MatchKeyword(std::string_view word) {
  if (!CheckKeyword(word)) return false;
  Advance();
  return true;
}

}  // namespace caldb
