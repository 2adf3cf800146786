#include "lang/parser.h"

#include "common/macros.h"
#include "obs/obs.h"
#include "lang/lexer.h"

namespace caldb {

namespace {

class Parser : private TokenCursor {
 public:
  using TokenCursor::TokenCursor;

  Result<Script> ParseScriptTop() {
    Script script;
    while (!Check(TokenKind::kEnd)) {
      CALDB_ASSIGN_OR_RETURN(Stmt stmt, ParseStmt());
      script.stmts.push_back(std::move(stmt));
    }
    if (script.stmts.empty()) {
      return Status::ParseError("empty calendar script");
    }
    return script;
  }

  Result<ExprPtr> ParseExprTop() {
    CALDB_ASSIGN_OR_RETURN(ExprPtr e, ParseAddExpr());
    if (!Check(TokenKind::kEnd)) {
      return Unexpected("end of expression");
    }
    return e;
  }

 private:
  Status Unexpected(std::string_view wanted) const {
    const Token& t = Peek();
    const std::string spelling =
        t.kind == TokenKind::kIdent ? " '" + std::string(t.text) + "'" : "";
    return Status::ParseError("expected " + std::string(wanted) + " but found " +
                              std::string(TokenKindName(t.kind)) + spelling +
                              " at line " + std::to_string(t.line) + ", column " +
                              std::to_string(t.column));
  }

  Status Expect(TokenKind k) {
    if (Match(k)) return Status::OK();
    return Unexpected(std::string(TokenKindName(k)));
  }

  // --- statements -----------------------------------------------------------

  Result<Stmt> ParseStmt() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kLBrace) return ParseBlock();
    if (t.kind == TokenKind::kIf) return ParseIf();
    if (t.kind == TokenKind::kWhile) return ParseWhile();
    if (t.kind == TokenKind::kReturn) return ParseReturn();
    if (t.kind == TokenKind::kIdent && Check(TokenKind::kAssign, 1)) {
      return ParseAssign();
    }
    // Expression statement: treated as an implicit return (lets bare
    // derivation expressions like "[2]/DAYS:during:WEEKS" parse as scripts).
    Stmt stmt;
    stmt.kind = Stmt::Kind::kReturn;
    stmt.line = t.line;
    CALDB_ASSIGN_OR_RETURN(stmt.expr, ParseAddExpr());
    Match(TokenKind::kSemicolon);  // optional for the final expression
    return stmt;
  }

  Result<Stmt> ParseBlock() {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kBlock;
    stmt.line = Peek().line;
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    while (!Check(TokenKind::kRBrace)) {
      if (Check(TokenKind::kEnd)) return Unexpected("'}'");
      CALDB_ASSIGN_OR_RETURN(Stmt inner, ParseStmt());
      stmt.body.push_back(std::move(inner));
    }
    Advance();  // '}'
    return stmt;
  }

  // A statement body: a block's statements, or a single statement.
  Result<std::vector<Stmt>> ParseBody() {
    if (Check(TokenKind::kLBrace)) {
      CALDB_ASSIGN_OR_RETURN(Stmt block, ParseBlock());
      return std::move(block.body);
    }
    std::vector<Stmt> body;
    CALDB_ASSIGN_OR_RETURN(Stmt stmt, ParseStmt());
    body.push_back(std::move(stmt));
    return body;
  }

  Result<Stmt> ParseIf() {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kIf;
    stmt.line = Peek().line;
    Advance();  // 'if'
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    CALDB_ASSIGN_OR_RETURN(stmt.expr, ParseAddExpr());
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    CALDB_ASSIGN_OR_RETURN(stmt.body, ParseBody());
    if (Match(TokenKind::kElse)) {
      CALDB_ASSIGN_OR_RETURN(stmt.else_body, ParseBody());
    }
    return stmt;
  }

  Result<Stmt> ParseWhile() {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kWhile;
    stmt.line = Peek().line;
    Advance();  // 'while'
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    CALDB_ASSIGN_OR_RETURN(stmt.expr, ParseAddExpr());
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    if (Match(TokenKind::kSemicolon)) {
      // "while (cond) ;" — the paper's do-nothing wait loop.
      return stmt;
    }
    CALDB_ASSIGN_OR_RETURN(stmt.body, ParseBody());
    return stmt;
  }

  Result<Stmt> ParseReturn() {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kReturn;
    stmt.line = Peek().line;
    Advance();  // 'return'
    // return ("STRING");
    if (Check(TokenKind::kLParen) && Check(TokenKind::kString, 1) &&
        Check(TokenKind::kRParen, 2)) {
      Advance();
      stmt.returns_string = true;
      stmt.str = Advance().text;
      Advance();
      CALDB_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
      return stmt;
    }
    CALDB_ASSIGN_OR_RETURN(stmt.expr, ParseAddExpr());
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    return stmt;
  }

  Result<Stmt> ParseAssign() {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kAssign;
    stmt.line = Peek().line;
    stmt.var = Advance().text;
    Advance();  // '='
    CALDB_ASSIGN_OR_RETURN(stmt.expr, ParseAddExpr());
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    return stmt;
  }

  // --- expressions ----------------------------------------------------------

  // addexpr := calexpr (('+' | '-') calexpr)*   (left-associative)
  Result<ExprPtr> ParseAddExpr() {
    CALDB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseCalExpr());
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      const Token& op = Advance();
      CALDB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseCalExpr());
      ExprPtr node = std::make_shared<Expr>();
      node->kind = Expr::Kind::kSetOp;
      node->line = op.line;
      node->set_op = op.kind == TokenKind::kPlus ? '+' : '-';
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  // calexpr := '[' sel ']' '/' calexpr | INT '/' IDENT
  //          | primary (foreach-op calexpr)?
  // Foreach chains are right-associative (the paper parses right to left),
  // and a selection prefix binds the whole chain to its right.
  Result<ExprPtr> ParseCalExpr() {
    if (Check(TokenKind::kLBracket)) {
      ExprPtr node = std::make_shared<Expr>();
      node->kind = Expr::Kind::kSelect;
      node->line = Peek().line;
      Advance();  // '['
      CALDB_ASSIGN_OR_RETURN(node->selection, ParseSelectionItems());
      CALDB_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
      CALDB_RETURN_IF_ERROR(Expect(TokenKind::kSlash));
      CALDB_ASSIGN_OR_RETURN(node->child, ParseCalExpr());
      return node;
    }
    ExprPtr lhs;
    if (Check(TokenKind::kInt) && Check(TokenKind::kSlash, 1)) {
      // 1993/YEARS — selection by civil-year label; chainable like any
      // other head ("1993/YEARS:overlaps:...").
      lhs = std::make_shared<Expr>();
      lhs->kind = Expr::Kind::kYearSelect;
      lhs->line = Peek().line;
      lhs->year = static_cast<int32_t>(Advance().int_value);
      Advance();  // '/'
      if (!Check(TokenKind::kIdent)) return Unexpected("calendar name");
      lhs->name = Advance().text;
    } else {
      CALDB_ASSIGN_OR_RETURN(lhs, ParsePrimary());
    }
    // Optional foreach operator, then the rest of the chain.
    bool strict;
    if (Check(TokenKind::kColon)) {
      strict = true;
    } else if (Check(TokenKind::kDot)) {
      strict = false;
    } else {
      return lhs;
    }
    const TokenKind mark = Peek().kind;
    Advance();  // ':' or '.'
    CALDB_ASSIGN_OR_RETURN(ListOp op, ParseListOpToken());
    if (!Match(mark)) return Unexpected(strict ? "':'" : "'.'");
    CALDB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseCalExpr());
    ExprPtr node = std::make_shared<Expr>();
    node->kind = Expr::Kind::kForEach;
    node->line = lhs->line;
    node->op = op;
    node->strict = strict;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  Result<ListOp> ParseListOpToken() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kLess) {
      Advance();
      return ListOp::kBefore;
    }
    if (t.kind == TokenKind::kLessEq) {
      Advance();
      return ListOp::kBeforeEq;
    }
    if (t.kind == TokenKind::kIdent) {
      Result<ListOp> op = ParseListOp(t.text);
      if (op.ok()) {
        Advance();
        return op;
      }
      return Status::ParseError("unknown listop '" + std::string(t.text) +
                                "' at line " +
                                std::to_string(t.line));
    }
    return Unexpected("listop (overlaps/during/meets/</<=/intersects)");
  }

  Result<std::vector<SelectionItem>> ParseSelectionItems() {
    std::vector<SelectionItem> items;
    while (true) {
      CALDB_ASSIGN_OR_RETURN(SelectionItem item, ParseSelectionItem());
      items.push_back(item);
      if (!Match(TokenKind::kComma)) break;
    }
    return items;
  }

  Result<SelectionItem> ParseSelectionItem() {
    if (Check(TokenKind::kIdent) && Peek().text == "n") {
      Advance();
      return SelectionItem::Last();
    }
    if (Match(TokenKind::kMinus)) {
      if (!Check(TokenKind::kInt)) return Unexpected("integer after '-'");
      int64_t v = Advance().int_value;
      if (v == 0) return Status::ParseError("selection index 0 is invalid");
      return SelectionItem::Index(-v);
    }
    if (!Check(TokenKind::kInt)) return Unexpected("selection index");
    int64_t lo = Advance().int_value;
    if (Match(TokenKind::kDotDot)) {
      if (lo <= 0) {
        // `0..n` used to slip through unvalidated and silently select
        // everything; range starts are 1-based like plain indices.
        return Status::ParseError("invalid selection range start " +
                                  std::to_string(lo));
      }
      if (Check(TokenKind::kIdent) && Peek().text == "n") {
        Advance();
        return SelectionItem::Range(lo, SelectionItem::kLastMarker);
      }
      if (!Check(TokenKind::kInt)) return Unexpected("range end");
      int64_t hi = Advance().int_value;
      if (lo <= 0 || hi < lo) {
        return Status::ParseError("invalid selection range " + std::to_string(lo) +
                                  ".." + std::to_string(hi));
      }
      return SelectionItem::Range(lo, hi);
    }
    if (lo == 0) return Status::ParseError("selection index 0 is invalid");
    return SelectionItem::Index(lo);
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kLParen) {
      Advance();
      CALDB_ASSIGN_OR_RETURN(ExprPtr e, ParseAddExpr());
      CALDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return e;
    }
    if (t.kind != TokenKind::kIdent) {
      return Unexpected("calendar expression");
    }
    std::string name(Advance().text);
    if (Check(TokenKind::kLParen)) {
      return ParseCall(std::move(name), t.line);
    }
    if (Check(TokenKind::kLBrace)) {
      return ParseLiteral(std::move(name), t.line);
    }
    ExprPtr node = std::make_shared<Expr>();
    node->kind = Expr::Kind::kIdent;
    node->line = t.line;
    node->name = std::move(name);
    return node;
  }

  Result<ExprPtr> ParseCall(std::string name, int line) {
    ExprPtr node = std::make_shared<Expr>();
    node->kind = Expr::Kind::kCall;
    node->line = line;
    node->name = std::move(name);
    Advance();  // '('
    if (!Check(TokenKind::kRParen)) {
      while (true) {
        if (Check(TokenKind::kStar)) {
          Advance();
          ExprPtr star = std::make_shared<Expr>();
          star->kind = Expr::Kind::kStar;
          node->args.push_back(std::move(star));
        } else if (Check(TokenKind::kInt) && !Check(TokenKind::kSlash, 1)) {
          ExprPtr num = std::make_shared<Expr>();
          num->kind = Expr::Kind::kIntConst;
          num->int_value = Advance().int_value;
          node->args.push_back(std::move(num));
        } else if (Check(TokenKind::kString)) {
          // Civil-date argument, e.g. generate(YEARS, DAYS, "1987-01-01", ...).
          ExprPtr str = std::make_shared<Expr>();
          str->kind = Expr::Kind::kIntConst;
          str->name = Advance().text;
          node->args.push_back(std::move(str));
        } else {
          CALDB_ASSIGN_OR_RETURN(ExprPtr arg, ParseAddExpr());
          node->args.push_back(std::move(arg));
        }
        if (!Match(TokenKind::kComma) && !Match(TokenKind::kSemicolon)) break;
      }
    }
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return node;
  }

  // IDENT '{' (lo, hi), ... '}' — a granularity-tagged interval-list
  // literal, e.g. days{(31,31),(90,90)}.
  Result<ExprPtr> ParseLiteral(std::string gran_name, int line) {
    Result<Granularity> gran = ParseGranularity(gran_name);
    if (!gran.ok()) {
      return Status::ParseError("'" + gran_name +
                                "' is not a granularity; interval literals are "
                                "written like days{(1,5)} (line " +
                                std::to_string(line) + ")");
    }
    Advance();  // '{'
    std::vector<Interval> intervals;
    if (!Check(TokenKind::kRBrace)) {
      while (true) {
        CALDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        CALDB_ASSIGN_OR_RETURN(int64_t lo, ParseSignedInt());
        CALDB_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        CALDB_ASSIGN_OR_RETURN(int64_t hi, ParseSignedInt());
        CALDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        CALDB_ASSIGN_OR_RETURN(Interval i, MakeInterval(lo, hi));
        intervals.push_back(i);
        if (!Match(TokenKind::kComma)) break;
      }
    }
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
    ExprPtr node = std::make_shared<Expr>();
    node->kind = Expr::Kind::kLiteral;
    node->line = line;
    CALDB_ASSIGN_OR_RETURN(node->literal,
                           Calendar::MakeOrder1(*gran, std::move(intervals)));
    return node;
  }

  Result<int64_t> ParseSignedInt() {
    bool neg = Match(TokenKind::kMinus);
    if (!Check(TokenKind::kInt)) return Unexpected("integer");
    int64_t v = Advance().int_value;
    return neg ? -v : v;
  }
};

}  // namespace

Result<Script> ParseScript(std::string_view source) {
  static obs::Counter* calls =
      obs::Metrics().counter("caldb.lang.parse.calls");
  calls->Increment();
  obs::Tracer::Span span = obs::StartSpan("lang.parse");
  CALDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(source));
  return Parser(std::move(tokens)).ParseScriptTop();
}

Result<ExprPtr> ParseExpression(std::string_view source) {
  static obs::Counter* calls =
      obs::Metrics().counter("caldb.lang.parse.expr_calls");
  calls->Increment();
  CALDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(source));
  return Parser(std::move(tokens)).ParseExprTop();
}

}  // namespace caldb
