#include "common/scanner.h"

#include <algorithm>
#include <array>
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

// Character classes by table: the scanner runs on every statement the
// text execute path sees, so a class test is one load.
enum CharClass : uint8_t { kSpace = 1, kDigit = 2, kIdentStart = 4 };
constexpr std::array<uint8_t, 256> kCharClass = [] {
  std::array<uint8_t, 256> table{};
  for (int c = '\t'; c <= '\r'; ++c) table[c] = kSpace;
  table[' '] = kSpace;
  for (int c = '0'; c <= '9'; ++c) table[c] = kDigit;
  for (int c = 'a'; c <= 'z'; ++c) table[c] = kIdentStart;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = kIdentStart;
  table['_'] = kIdentStart;
  return table;
}();
bool Is(char c, uint8_t classes) {
  return (kCharClass[static_cast<unsigned char>(c)] & classes) != 0;
}
bool IsDigit(char c) { return Is(c, kDigit); }

}  // namespace

void Scanner::CountLines(size_t from, size_t to) {
  for (size_t k = from; k < to; ++k) {
    if (src_[k] == '\n') {
      ++line_;
      line_start_ = k + 1;
    }
  }
}

bool Scanner::Fail(std::string message) {
  status_ = Status::ParseError(std::move(message));
  return false;
}

bool Scanner::Next(Token* tok) {
  const std::string_view src = src_;
  const size_t n = src.size();
  size_t& i = i_;
  // Advances past characters of the given classes.
  auto skip = [&](uint8_t classes) {
    while (i < n && Is(src[i], classes)) ++i;
  };
  const size_t space = i;
  skip(kSpace);
  CountLines(space, i);
  tok->kind = TokenKind::kEnd;
  tok->text = {};
  tok->int_value = 0;
  tok->float_value = 0;
  tok->offset = i;
  tok->end = n;
  tok->line = line_;
  tok->column = static_cast<int>(i - line_start_) + 1;
  if (i == n) return true;
  const char c = src[i];
  const char next = i + 1 < n ? src[i + 1] : '\0';
  if (Is(c, kIdentStart)) {
    ++i;
    skip(kIdentStart | kDigit);
    tok->kind = TokenKind::kIdent;
    tok->text = src.substr(tok->offset, i - tok->offset);
  } else if (IsDigit(c)) {
    skip(kDigit);
    if (i + 1 < n && src[i] == '.' && IsDigit(src[i + 1])) {
      ++i;
      skip(kDigit);
      tok->kind = TokenKind::kFloat;
      // ParseDouble, not std::stod: an over-long literal must come back
      // as a ParseError, not an exception (no-throw contract,
      // common/result.h).
      Result<double> value =
          ParseDouble(src.substr(tok->offset, i - tok->offset));
      if (!value.ok()) return Fail(value.status().message());
      tok->float_value = *value;
    } else {
      tok->kind = TokenKind::kInt;
      if (std::from_chars(src.data() + tok->offset, src.data() + i,
                          tok->int_value).ec != std::errc()) {
        return Fail("integer literal out of range: " +
                    std::string(src.substr(tok->offset, i - tok->offset)));
      }
    }
  } else if (c == '$') {
    const size_t start = ++i;
    skip(kDigit);
    if (i == start) {
      return Fail(
          "expected a parameter number after '$' (placeholders are $1, $2, "
          "...)");
    }
    tok->kind = TokenKind::kParam;
    if (std::from_chars(src.data() + start, src.data() + i, tok->int_value)
                .ec != std::errc() ||
        tok->int_value < 1 || tok->int_value > 1'000'000) {
      return Fail("parameter $" + std::string(src.substr(start, i - start)) +
                  " out of range (placeholders start at $1)");
    }
  } else if (c == '\'' || c == '"') {
    const size_t close = src.find(c, i + 1);
    if (close == std::string_view::npos) {
      return Fail("unterminated string literal at line " +
                  std::to_string(tok->line));
    }
    tok->kind = TokenKind::kString;
    tok->text = src.substr(i + 1, close - i - 1);
    CountLines(i + 1, close);
    i = close + 1;
  } else if (c == '/' && next == '*') {
    const size_t close = src.find("*/", i + 2);
    if (close == std::string_view::npos) {
      return Fail("unterminated comment starting at line " +
                  std::to_string(tok->line));
    }
    tok->kind = TokenKind::kComment;
    CountLines(i + 2, close);
    i = close + 2;
  } else if (c == '/' && next == '/') {
    tok->kind = TokenKind::kComment;
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
      case '{': tok->kind = TokenKind::kLBrace; break;
      case '}': tok->kind = TokenKind::kRBrace; break;
      case '(': tok->kind = TokenKind::kLParen; break;
      case ')': tok->kind = TokenKind::kRParen; break;
      case '[': tok->kind = TokenKind::kLBracket; break;
      case ']': tok->kind = TokenKind::kRBracket; break;
      case ',': tok->kind = TokenKind::kComma; break;
      case ';': tok->kind = TokenKind::kSemicolon; break;
      case ':': tok->kind = TokenKind::kColon; break;
      case '=': tok->kind = TokenKind::kAssign; break;
      case '+': tok->kind = TokenKind::kPlus; break;
      case '-': tok->kind = TokenKind::kMinus; break;
      case '*': tok->kind = TokenKind::kStar; break;
      case '/': tok->kind = TokenKind::kSlash; break;
      case '.': tok->kind = pick('.', TokenKind::kDotDot, TokenKind::kDot); break;
      case '<': tok->kind = pick('=', TokenKind::kLessEq, TokenKind::kLess); break;
      case '>':
        tok->kind = pick('=', TokenKind::kGreaterEq, TokenKind::kGreater);
        break;
      case '!':
        if (next == '=') {
          ++i;
          tok->kind = TokenKind::kNotEq;
          break;
        }
        [[fallthrough]];
      default:
        return Fail(std::string("unexpected character '") + c +
                    "' at line " + std::to_string(tok->line) + ", column " +
                    std::to_string(tok->column));
    }
  }
  tok->end = i;
  return true;
}

Result<std::vector<Token>> Scan(std::string_view src) {
  std::vector<Token> tokens;
  // About one token per four source bytes: growing the vector token by
  // token costs more than the lexing itself on short statements.
  tokens.reserve(src.size() / 4 + 2);
  Scanner scanner(src);
  do {
    if (!scanner.Next(&tokens.emplace_back())) return scanner.status();
  } while (tokens.back().kind != TokenKind::kEnd);
  return tokens;
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
