// Lexer for the calendar expression language.

#ifndef CALDB_LANG_LEXER_H_
#define CALDB_LANG_LEXER_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/scanner.h"

namespace caldb {

/// Tokenizes a calendar script: Scan (common/scanner.h) plus the rules of
/// the calendar language:
///  - /* ... */ and // ... comments are dropped;
///  - an identifier absorbs each directly attached '-' that is directly
///    followed by an identifier or integer (Jan-1993, EMP-DAYS), so the
///    set-difference operator must be written with surrounding whitespace
///    (a - b), as the paper's scripts do;
///  - if, else, while and return are keywords.
/// Token text views `source`, as Scan's does.
Result<std::vector<Token>> Lex(std::string_view source);

}  // namespace caldb

#endif  // CALDB_LANG_LEXER_H_
