#include "common/macros.h"
#include "common/scanner.h"
#include "common/strings.h"
#include "db/compiled_statement.h"
#include "db/query.h"
#include "obs/obs.h"

namespace caldb {

std::string_view DbEventName(DbEvent event) {
  switch (event) {
    case DbEvent::kAppend:
      return "append";
    case DbEvent::kDelete:
      return "delete";
    case DbEvent::kReplace:
      return "replace";
    case DbEvent::kRetrieve:
      return "retrieve";
  }
  return "?";
}

namespace {

class QueryParser : private TokenCursor {
 public:
  QueryParser(std::string_view src, std::vector<Token> tokens)
      : TokenCursor(std::move(tokens)), src_(src) {}

  Result<Statement> ParseStatementTop() {
    if (MatchKeyword("retrieve")) return ParseRetrieve();
    if (MatchKeyword("append")) return ParseAppend();
    if (MatchKeyword("replace")) return ParseReplace();
    if (MatchKeyword("delete")) return ParseDelete();
    if (MatchKeyword("create")) {
      if (MatchKeyword("table")) return ParseCreateTable();
      if (MatchKeyword("index")) return ParseCreateIndex();
      return Fail("'table' or 'index' after 'create'");
    }
    if (MatchKeyword("define")) {
      CALDB_RETURN_IF_ERROR(ExpectKeyword("rule"));
      return ParseDefineRule();
    }
    if (MatchKeyword("drop")) {
      if (MatchKeyword("rule")) {
        DropRuleStmt stmt;
        CALDB_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("rule name"));
        CALDB_RETURN_IF_ERROR(ExpectEnd());
        return Statement{std::move(stmt)};
      }
      if (MatchKeyword("table")) {
        DropTableStmt stmt;
        CALDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
        CALDB_RETURN_IF_ERROR(ExpectEnd());
        return Statement{std::move(stmt)};
      }
      return Fail("'rule' or 'table' after 'drop'");
    }
    return Fail("a statement (retrieve/append/replace/delete/create/define/drop)");
  }

  Result<DbExprPtr> ParseExpressionTop() {
    CALDB_ASSIGN_OR_RETURN(DbExprPtr e, ParseOr());
    CALDB_RETURN_IF_ERROR(ExpectEnd());
    return e;
  }

 private:
  Status Fail(std::string_view wanted) const {
    // A comment fails here like any other unexpected token: statement
    // normalization is not comment-aware, so comments stay illegal.
    const Token& t = Peek();
    std::string found = "end of query";
    if (t.kind != TokenKind::kEnd) {
      found.assign("'").append(src_.substr(t.offset, t.end - t.offset)) += '\'';
    }
    return Status::ParseError("expected " + std::string(wanted) + " but found " +
                              found);
  }

  Status ExpectKeyword(std::string_view kw) {
    if (MatchKeyword(kw)) return Status::OK();
    return Fail("'" + std::string(kw) + "'");
  }
  Status Expect(TokenKind kind) {
    if (Match(kind)) return Status::OK();
    return Fail(TokenKindName(kind));
  }
  Status ExpectEnd() {
    if (Check(TokenKind::kEnd)) return Status::OK();
    return Fail("end of query");
  }
  Result<std::string> ExpectIdent(std::string_view what) {
    if (!Check(TokenKind::kIdent)) return Fail(what);
    return std::string(Advance().text);
  }

  // --- statements -----------------------------------------------------------

  Result<Statement> ParseRetrieve() {
    RetrieveStmt stmt;
    if (MatchKeyword("into")) {
      CALDB_ASSIGN_OR_RETURN(stmt.into, ExpectIdent("result table name"));
    }
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    while (true) {
      RetrieveStmt::Target target;
      CALDB_ASSIGN_OR_RETURN(target.expr, ParseOr());
      if (MatchKeyword("as")) {
        CALDB_ASSIGN_OR_RETURN(target.alias, ExpectIdent("alias"));
      } else {
        target.alias = target.expr->kind == DbExpr::Kind::kColumnRef
                           ? target.expr->column
                           : target.expr->ToString();
      }
      stmt.targets.push_back(std::move(target));
      if (!Match(TokenKind::kComma)) break;
    }
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    CALDB_RETURN_IF_ERROR(ExpectKeyword("from"));
    while (true) {
      RetrieveStmt::TableRef ref;
      CALDB_ASSIGN_OR_RETURN(ref.var, ExpectIdent("range variable"));
      CALDB_RETURN_IF_ERROR(ExpectKeyword("in"));
      CALDB_ASSIGN_OR_RETURN(ref.table, ExpectIdent("table name"));
      for (const RetrieveStmt::TableRef& existing : stmt.tables) {
        if (existing.var == ref.var) {
          return Status::ParseError("duplicate range variable '" + ref.var +
                                    "'");
        }
      }
      stmt.tables.push_back(std::move(ref));
      if (!Match(TokenKind::kComma)) break;
    }
    if (MatchKeyword("where")) {
      CALDB_ASSIGN_OR_RETURN(stmt.where, ParseOr());
    }
    if (MatchKeyword("group")) {
      CALDB_RETURN_IF_ERROR(ExpectKeyword("by"));
      while (true) {
        CALDB_ASSIGN_OR_RETURN(std::string first, ExpectIdent("group column"));
        std::string var;
        std::string column = first;
        if (Match(TokenKind::kDot)) {
          var = first;
          CALDB_ASSIGN_OR_RETURN(column, ExpectIdent("group column"));
        }
        stmt.group_by.emplace_back(var, column);
        if (!Match(TokenKind::kComma)) break;
      }
    }
    if (MatchKeyword("order")) {
      CALDB_RETURN_IF_ERROR(ExpectKeyword("by"));
      while (true) {
        CALDB_ASSIGN_OR_RETURN(std::string column, ExpectIdent("order column"));
        bool asc = true;
        if (MatchKeyword("desc")) {
          asc = false;
        } else {
          MatchKeyword("asc");
        }
        stmt.order_by.emplace_back(column, asc);
        if (!Match(TokenKind::kComma)) break;
      }
    }
    CALDB_RETURN_IF_ERROR(ExpectEnd());
    return Statement{std::move(stmt)};
  }

  Result<std::vector<std::pair<std::string, DbExprPtr>>> ParseSetList() {
    std::vector<std::pair<std::string, DbExprPtr>> sets;
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    while (true) {
      CALDB_ASSIGN_OR_RETURN(std::string column, ExpectIdent("column name"));
      CALDB_RETURN_IF_ERROR(Expect(TokenKind::kAssign));
      CALDB_ASSIGN_OR_RETURN(DbExprPtr value, ParseOr());
      sets.emplace_back(std::move(column), std::move(value));
      if (!Match(TokenKind::kComma)) break;
    }
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return sets;
  }

  Result<Statement> ParseAppend() {
    AppendStmt stmt;
    CALDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    CALDB_ASSIGN_OR_RETURN(stmt.sets, ParseSetList());
    CALDB_RETURN_IF_ERROR(ExpectEnd());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseReplace() {
    ReplaceStmt stmt;
    CALDB_ASSIGN_OR_RETURN(stmt.var, ExpectIdent("range variable"));
    CALDB_RETURN_IF_ERROR(ExpectKeyword("in"));
    CALDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    CALDB_ASSIGN_OR_RETURN(stmt.sets, ParseSetList());
    if (MatchKeyword("where")) {
      CALDB_ASSIGN_OR_RETURN(stmt.where, ParseOr());
    }
    CALDB_RETURN_IF_ERROR(ExpectEnd());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseDelete() {
    DeleteStmt stmt;
    CALDB_ASSIGN_OR_RETURN(stmt.var, ExpectIdent("range variable"));
    CALDB_RETURN_IF_ERROR(ExpectKeyword("in"));
    CALDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    if (MatchKeyword("where")) {
      CALDB_ASSIGN_OR_RETURN(stmt.where, ParseOr());
    }
    CALDB_RETURN_IF_ERROR(ExpectEnd());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseCreateTable() {
    CreateTableStmt stmt;
    CALDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    while (true) {
      Column column;
      CALDB_ASSIGN_OR_RETURN(column.name, ExpectIdent("column name"));
      CALDB_ASSIGN_OR_RETURN(std::string type_name, ExpectIdent("column type"));
      CALDB_ASSIGN_OR_RETURN(column.type, ParseValueType(type_name));
      stmt.columns.push_back(std::move(column));
      if (!Match(TokenKind::kComma)) break;
    }
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    CALDB_RETURN_IF_ERROR(ExpectEnd());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseCreateIndex() {
    CreateIndexStmt stmt;
    CALDB_RETURN_IF_ERROR(ExpectKeyword("on"));
    CALDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    CALDB_ASSIGN_OR_RETURN(stmt.column, ExpectIdent("column name"));
    CALDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    CALDB_RETURN_IF_ERROR(ExpectEnd());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseDefineRule() {
    DefineRuleStmt stmt;
    CALDB_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("rule name"));
    CALDB_RETURN_IF_ERROR(ExpectKeyword("on"));
    CALDB_ASSIGN_OR_RETURN(std::string event, ExpectIdent("event"));
    if (EqualsIgnoreCase(event, "append")) {
      stmt.event = DbEvent::kAppend;
    } else if (EqualsIgnoreCase(event, "delete")) {
      stmt.event = DbEvent::kDelete;
    } else if (EqualsIgnoreCase(event, "replace")) {
      stmt.event = DbEvent::kReplace;
    } else if (EqualsIgnoreCase(event, "retrieve")) {
      stmt.event = DbEvent::kRetrieve;
    } else {
      return Status::ParseError("unknown rule event '" + event +
                                "' (append/delete/replace/retrieve)");
    }
    CALDB_RETURN_IF_ERROR(ExpectKeyword("to"));
    CALDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    if (MatchKeyword("where")) {
      CALDB_ASSIGN_OR_RETURN(stmt.where, ParseOr());
    }
    if (!CheckKeyword("do")) return Fail("'do'");
    const Token& do_tok = Peek();
    // The action is the raw remainder of the query after 'do'.
    size_t tail_start = do_tok.offset + 2;
    stmt.action_command =
        std::string(TrimWhitespace(src_.substr(tail_start)));
    if (stmt.action_command.empty()) {
      return Status::ParseError("rule action after 'do' must not be empty");
    }
    return Statement{std::move(stmt)};
  }

  // --- expressions ----------------------------------------------------------

  Result<DbExprPtr> ParseOr() {
    CALDB_ASSIGN_OR_RETURN(DbExprPtr lhs, ParseAnd());
    while (MatchKeyword("or")) {
      CALDB_ASSIGN_OR_RETURN(DbExprPtr rhs, ParseAnd());
      auto node = std::make_shared<DbExpr>();
      node->kind = DbExpr::Kind::kLogical;
      node->log = LogOp::kOr;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<DbExprPtr> ParseAnd() {
    CALDB_ASSIGN_OR_RETURN(DbExprPtr lhs, ParseNot());
    while (MatchKeyword("and")) {
      CALDB_ASSIGN_OR_RETURN(DbExprPtr rhs, ParseNot());
      auto node = std::make_shared<DbExpr>();
      node->kind = DbExpr::Kind::kLogical;
      node->log = LogOp::kAnd;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<DbExprPtr> ParseNot() {
    if (MatchKeyword("not")) {
      CALDB_ASSIGN_OR_RETURN(DbExprPtr inner, ParseNot());
      auto node = std::make_shared<DbExpr>();
      node->kind = DbExpr::Kind::kLogical;
      node->log = LogOp::kNot;
      node->lhs = std::move(inner);
      return node;
    }
    return ParseComparison();
  }

  Result<DbExprPtr> ParseComparison() {
    CALDB_ASSIGN_OR_RETURN(DbExprPtr lhs, ParseAdd());
    CmpOp op;
    if (Match(TokenKind::kAssign)) {
      op = CmpOp::kEq;
    } else if (Match(TokenKind::kNotEq)) {
      op = CmpOp::kNe;
    } else if (Match(TokenKind::kLessEq)) {
      op = CmpOp::kLe;
    } else if (Match(TokenKind::kLess)) {
      op = CmpOp::kLt;
    } else if (Match(TokenKind::kGreaterEq)) {
      op = CmpOp::kGe;
    } else if (Match(TokenKind::kGreater)) {
      op = CmpOp::kGt;
    } else {
      return lhs;
    }
    CALDB_ASSIGN_OR_RETURN(DbExprPtr rhs, ParseAdd());
    auto node = std::make_shared<DbExpr>();
    node->kind = DbExpr::Kind::kCompare;
    node->cmp = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  Result<DbExprPtr> ParseAdd() {
    CALDB_ASSIGN_OR_RETURN(DbExprPtr lhs, ParseMul());
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      char op = Advance().kind == TokenKind::kPlus ? '+' : '-';
      CALDB_ASSIGN_OR_RETURN(DbExprPtr rhs, ParseMul());
      auto node = std::make_shared<DbExpr>();
      node->kind = DbExpr::Kind::kArith;
      node->arith = op;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<DbExprPtr> ParseMul() {
    CALDB_ASSIGN_OR_RETURN(DbExprPtr lhs, ParsePrimary());
    while (Check(TokenKind::kStar) || Check(TokenKind::kSlash)) {
      char op = Advance().kind == TokenKind::kStar ? '*' : '/';
      CALDB_ASSIGN_OR_RETURN(DbExprPtr rhs, ParsePrimary());
      auto node = std::make_shared<DbExpr>();
      node->kind = DbExpr::Kind::kArith;
      node->arith = op;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<DbExprPtr> ParsePrimary() {
    const Token& t = Peek();
    auto node = std::make_shared<DbExpr>();
    switch (t.kind) {
      case TokenKind::kInt:
        node->kind = DbExpr::Kind::kConst;
        node->constant = Value::Int(Advance().int_value);
        return node;
      case TokenKind::kFloat:
        node->kind = DbExpr::Kind::kConst;
        node->constant = Value::Float(Advance().float_value);
        return node;
      case TokenKind::kString:
        node->kind = DbExpr::Kind::kConst;
        node->constant = Value::Text(std::string(Advance().text));
        return node;
      case TokenKind::kParam:
        node->kind = DbExpr::Kind::kParam;
        node->param_index = static_cast<int>(Advance().int_value);
        return node;
      case TokenKind::kIdent: {
        if (MatchKeyword("true")) {
          node->kind = DbExpr::Kind::kConst;
          node->constant = Value::Bool(true);
          return node;
        }
        if (MatchKeyword("false")) {
          node->kind = DbExpr::Kind::kConst;
          node->constant = Value::Bool(false);
          return node;
        }
        if (MatchKeyword("null")) {
          node->kind = DbExpr::Kind::kConst;
          node->constant = Value::Null();
          return node;
        }
        std::string name(Advance().text);
        if (Match(TokenKind::kLParen)) {
          node->kind = DbExpr::Kind::kCall;
          node->fn_name = std::move(name);
          if (!Check(TokenKind::kRParen)) {
            while (true) {
              CALDB_ASSIGN_OR_RETURN(DbExprPtr arg, ParseOr());
              node->args.push_back(std::move(arg));
              if (!Match(TokenKind::kComma)) break;
            }
          }
          CALDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
          return node;
        }
        node->kind = DbExpr::Kind::kColumnRef;
        if (Match(TokenKind::kDot)) {
          node->var = std::move(name);
          CALDB_ASSIGN_OR_RETURN(node->column, ExpectIdent("column name"));
        } else {
          node->column = std::move(name);
        }
        return node;
      }
      case TokenKind::kLParen: {
        Advance();
        CALDB_ASSIGN_OR_RETURN(DbExprPtr inner, ParseOr());
        CALDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return inner;
      }
      case TokenKind::kMinus: {
        Advance();
        // Unary minus: fold into constants, or rewrite as 0 - expr.
        CALDB_ASSIGN_OR_RETURN(DbExprPtr inner, ParsePrimary());
        if (inner->kind == DbExpr::Kind::kConst &&
            inner->constant.type() == ValueType::kInt) {
          inner->constant = Value::Int(-inner->constant.AsInt().value());
          return inner;
        }
        if (inner->kind == DbExpr::Kind::kConst &&
            inner->constant.type() == ValueType::kFloat) {
          inner->constant = Value::Float(-inner->constant.AsFloat().value());
          return inner;
        }
        auto zero = std::make_shared<DbExpr>();
        zero->kind = DbExpr::Kind::kConst;
        zero->constant = Value::Int(0);
        node->kind = DbExpr::Kind::kArith;
        node->arith = '-';
        node->lhs = std::move(zero);
        node->rhs = std::move(inner);
        return node;
      }
      default:
        break;
    }
    return Fail("an expression");
  }

  std::string_view src_;
};

}  // namespace

Result<Statement> ParseStatement(std::string_view query,
                                 std::vector<Token> tokens) {
  // The parse-once contract is pinned by this counter: tests assert its
  // delta stays flat while cached statements re-execute.
  static obs::Counter* parses = obs::Metrics().counter("caldb.db.parses");
  parses->Increment();
  if (tokens.empty()) {
    CALDB_ASSIGN_OR_RETURN(tokens, Scan(query));
  }
  // `explain <stmt>` / `profile <stmt>`: strip the verb and compile the
  // tail exactly once — plan rendering and the PROFILE run share the
  // handle (see ExplainStmt).
  if (tokens.size() >= 2 && tokens[0].kind == TokenKind::kIdent &&
      (EqualsIgnoreCase(tokens[0].text, "explain") ||
       EqualsIgnoreCase(tokens[0].text, "profile"))) {
    ExplainStmt stmt;
    stmt.profile = EqualsIgnoreCase(tokens[0].text, "profile");
    stmt.query = std::string(query.substr(tokens[1].offset));
    CALDB_ASSIGN_OR_RETURN(stmt.inner, CompileStatement(stmt.query));
    return Statement{std::move(stmt)};
  }
  return QueryParser(query, std::move(tokens)).ParseStatementTop();
}

Result<DbExprPtr> ParseDbExpression(std::string_view text) {
  CALDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Scan(text));
  return QueryParser(text, std::move(tokens)).ParseExpressionTop();
}

}  // namespace caldb
