#include "lang/lexer.h"

#include "common/macros.h"
#include "obs/obs.h"

namespace caldb {

namespace {

TokenKind KeywordKind(std::string_view text) {
  if (text == "if") return TokenKind::kIf;
  if (text == "else") return TokenKind::kElse;
  if (text == "while") return TokenKind::kWhile;
  if (text == "return") return TokenKind::kReturn;
  return TokenKind::kIdent;
}

}  // namespace

Result<std::vector<Token>> Lex(std::string_view source) {
  static obs::Counter* calls = obs::Metrics().counter("caldb.lang.lex.calls");
  static obs::Counter* lexed = obs::Metrics().counter("caldb.lang.lex.tokens");
  calls->Increment();
  CALDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Scan(source));
  // One pass, compacting in place: drop comments, fuse hyphenated names,
  // map keywords.  The kEnd token is never fused or dropped.
  size_t out = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind == TokenKind::kComment) continue;
    Token& tok = tokens[i];
    if (tok.kind == TokenKind::kIdent) {
      size_t last = i;
      while (last + 2 < tokens.size() &&
             tokens[last + 1].kind == TokenKind::kMinus &&
             tokens[last + 1].offset == tokens[last].end &&
             (tokens[last + 2].kind == TokenKind::kIdent ||
              tokens[last + 2].kind == TokenKind::kInt) &&
             tokens[last + 2].offset == tokens[last + 1].end) {
        last += 2;
      }
      if (last > i) {
        tok.end = tokens[last].end;
        tok.text = source.substr(tok.offset, tok.end - tok.offset);
        i = last;
      } else {
        tok.kind = KeywordKind(tok.text);
      }
    }
    if (&tokens[out] != &tok) tokens[out] = std::move(tok);
    ++out;
  }
  tokens.resize(out);
  lexed->Add(static_cast<int64_t>(tokens.size()));
  return tokens;
}

}  // namespace caldb
