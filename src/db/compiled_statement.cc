#include "db/compiled_statement.h"

#include <algorithm>
#include <charconv>
#include <iterator>

#include "common/macros.h"
#include "common/scanner.h"
#include "common/strings.h"
#include "obs/obs.h"

namespace caldb {

namespace {

void AddTable(std::vector<std::string>* tables, const std::string& name) {
  if (name.empty()) return;
  if (std::find(tables->begin(), tables->end(), name) != tables->end()) return;
  tables->push_back(name);
}

// Fills write_class / tables / is_ddl from the parsed statement.  The
// explain case folds in the precompiled inner handle, so a PROFILE takes
// the lock its inner statement needs.
void ComputeMetadata(const Statement& stmt, CompiledStatement* out) {
  if (const auto* retrieve = std::get_if<RetrieveStmt>(&stmt)) {
    for (const RetrieveStmt::TableRef& ref : retrieve->tables) {
      AddTable(&out->tables, ref.table);
    }
    if (!retrieve->into.empty()) {
      // "retrieve into" materializes a new table: a write, and schema
      // change enough to invalidate statements naming the result table.
      AddTable(&out->tables, retrieve->into);
      out->write_class = CompiledStatement::WriteClass::kWrite;
      out->is_ddl = true;
    } else {
      out->write_class = CompiledStatement::WriteClass::kReadUnlessRetrieveRules;
      out->footprint_exact = true;
    }
    return;
  }
  if (const auto* append = std::get_if<AppendStmt>(&stmt)) {
    AddTable(&out->tables, append->table);
    out->write_class = CompiledStatement::WriteClass::kWrite;
    out->footprint_exact = true;
    return;
  }
  if (const auto* replace = std::get_if<ReplaceStmt>(&stmt)) {
    AddTable(&out->tables, replace->table);
    out->write_class = CompiledStatement::WriteClass::kWrite;
    out->footprint_exact = true;
    return;
  }
  if (const auto* del = std::get_if<DeleteStmt>(&stmt)) {
    AddTable(&out->tables, del->table);
    out->write_class = CompiledStatement::WriteClass::kWrite;
    out->footprint_exact = true;
    return;
  }
  if (const auto* create = std::get_if<CreateTableStmt>(&stmt)) {
    AddTable(&out->tables, create->table);
    out->write_class = CompiledStatement::WriteClass::kWrite;
    out->is_ddl = true;
    return;
  }
  if (const auto* index = std::get_if<CreateIndexStmt>(&stmt)) {
    AddTable(&out->tables, index->table);
    out->write_class = CompiledStatement::WriteClass::kWrite;
    out->is_ddl = true;
    return;
  }
  if (const auto* rule = std::get_if<DefineRuleStmt>(&stmt)) {
    AddTable(&out->tables, rule->table);
    out->write_class = CompiledStatement::WriteClass::kWrite;
    out->is_ddl = true;
    return;
  }
  if (std::holds_alternative<DropRuleStmt>(stmt)) {
    // The dropped rule's table is only known at execution time, so the
    // statement carries no table list — invalidation falls back to a full
    // flush (StatementCache treats empty-tables DDL as "affects anything").
    out->write_class = CompiledStatement::WriteClass::kWrite;
    out->is_ddl = true;
    return;
  }
  if (const auto* drop_table = std::get_if<DropTableStmt>(&stmt)) {
    AddTable(&out->tables, drop_table->table);
    out->write_class = CompiledStatement::WriteClass::kWrite;
    out->is_ddl = true;
    return;
  }
  if (const auto* explain = std::get_if<ExplainStmt>(&stmt)) {
    if (explain->inner != nullptr) {
      out->tables = explain->inner->tables;
      out->footprint_exact = explain->inner->footprint_exact;
      if (explain->profile) {
        // PROFILE executes the inner statement; inherit its classification.
        out->write_class = explain->inner->write_class;
        out->is_ddl = explain->inner->is_ddl;
      } else {
        out->write_class = CompiledStatement::WriteClass::kRead;
      }
    } else {
      // A hand-built ExplainStmt without a compiled inner: stay
      // conservative (exclusive lock, no invalidation scope known).
      out->write_class = explain->profile
                             ? CompiledStatement::WriteClass::kWrite
                             : CompiledStatement::WriteClass::kRead;
    }
    return;
  }
  // Unknown kinds stay at the conservative default (kWrite).
}

// --- parameter signature ----------------------------------------------------

// Accumulates placeholder occurrences while walking a statement's
// expressions.  `types[i]` is the inferred type of $i+1 (kNull = any);
// `seen[i]` distinguishes "never referenced" from "referenced, type
// unknown" so gaps ($1, $3) can be rejected at compile time.
struct ParamSig {
  std::vector<ValueType> types;
  std::vector<bool> seen;

  void Note(int index, ValueType hint) {
    if (index < 1) return;
    if (static_cast<size_t>(index) > seen.size()) {
      seen.resize(static_cast<size_t>(index), false);
      types.resize(static_cast<size_t>(index), ValueType::kNull);
    }
    seen[static_cast<size_t>(index) - 1] = true;
    if (hint == ValueType::kNull) return;
    ValueType& slot = types[static_cast<size_t>(index) - 1];
    if (slot == ValueType::kNull) {
      slot = hint;
      return;
    }
    const bool both_numeric =
        (slot == ValueType::kInt || slot == ValueType::kFloat) &&
        (hint == ValueType::kInt || hint == ValueType::kFloat);
    if (slot != hint && !both_numeric) {
      // Conflicting hints: widen back to "any" rather than guess.
      slot = ValueType::kNull;
    }
  }
};

void WalkExprParams(const DbExpr& expr, ParamSig* sig) {
  if (expr.kind == DbExpr::Kind::kParam) {
    sig->Note(expr.param_index, ValueType::kNull);
  }
  // Infer a type when a placeholder sits directly across a comparison or
  // arithmetic operator from a constant: `a.id = $1` says nothing, but
  // `$1 > 100` pins $1 to the numeric class and `$2 = 'x'` pins $2 to
  // text.  (Unary minus parses as `0 - expr`, so `-$1` is numeric too.)
  if ((expr.kind == DbExpr::Kind::kCompare ||
       expr.kind == DbExpr::Kind::kArith) &&
      expr.lhs && expr.rhs) {
    if (expr.lhs->kind == DbExpr::Kind::kParam &&
        expr.rhs->kind == DbExpr::Kind::kConst) {
      sig->Note(expr.lhs->param_index, expr.rhs->constant.type());
    }
    if (expr.rhs->kind == DbExpr::Kind::kParam &&
        expr.lhs->kind == DbExpr::Kind::kConst) {
      sig->Note(expr.rhs->param_index, expr.lhs->constant.type());
    }
  }
  if (expr.lhs) WalkExprParams(*expr.lhs, sig);
  if (expr.rhs) WalkExprParams(*expr.rhs, sig);
  for (const DbExprPtr& arg : expr.args) {
    if (arg) WalkExprParams(*arg, sig);
  }
}

void CollectParams(const Statement& stmt, ParamSig* sig) {
  if (const auto* retrieve = std::get_if<RetrieveStmt>(&stmt)) {
    for (const RetrieveStmt::Target& target : retrieve->targets) {
      if (target.expr) WalkExprParams(*target.expr, sig);
    }
    if (retrieve->where) WalkExprParams(*retrieve->where, sig);
    return;
  }
  if (const auto* append = std::get_if<AppendStmt>(&stmt)) {
    for (const auto& [column, value] : append->sets) {
      if (value) WalkExprParams(*value, sig);
    }
    return;
  }
  if (const auto* replace = std::get_if<ReplaceStmt>(&stmt)) {
    for (const auto& [column, value] : replace->sets) {
      if (value) WalkExprParams(*value, sig);
    }
    if (replace->where) WalkExprParams(*replace->where, sig);
    return;
  }
  if (const auto* del = std::get_if<DeleteStmt>(&stmt)) {
    if (del->where) WalkExprParams(*del->where, sig);
    return;
  }
  if (const auto* rule = std::get_if<DefineRuleStmt>(&stmt)) {
    // A rule's where clause and action run later, in event scopes that
    // carry no bind list — a placeholder there could never be bound.
    // CompileStatement rejects these; collecting them here makes the
    // rejection uniform.
    if (rule->where) WalkExprParams(*rule->where, sig);
    return;
  }
  if (const auto* explain = std::get_if<ExplainStmt>(&stmt)) {
    if (explain->inner != nullptr) {
      // Fold the inner handle's signature so `profile <stmt>` demands the
      // same bind list the statement itself would.
      for (size_t i = 0; i < explain->inner->param_types.size(); ++i) {
        sig->Note(static_cast<int>(i) + 1, explain->inner->param_types[i]);
      }
    }
    return;
  }
  // create table / create index / drop rule / drop table carry no
  // expressions.
}

std::string_view ParamTypeName(ValueType t) {
  return t == ValueType::kNull ? std::string_view("any") : ValueTypeName(t);
}

}  // namespace

StatementShape ShapeStatement(std::string_view text, bool lift_literals,
                              std::vector<Token>* tokens) {
  StatementShape shape;
  if (tokens != nullptr) tokens->clear();
  shape.key.reserve(text.size());
  // Where the statement stands for lifting, token by token: the verb
  // decides; a retrieve's target list runs from its '(' to the matching
  // ')', and its literals name result columns.
  enum class Where { kNever, kVerb, kTargetListOpen, kTargetList, kLift };
  Where where = lift_literals ? Where::kVerb : Where::kNever;
  int depth = 0;
  TokenKind prev = TokenKind::kEnd;
  // The key copies the text in runs: a run ends where the whitespace
  // between two tokens is not already one space, and at each lifted
  // literal.
  size_t run = std::string_view::npos;
  size_t prev_end = 0;
  Scanner scanner(text);
  Token tok;
  while (true) {
    if (!scanner.Next(&tok)) {
      // Text that does not scan keys as itself: compiling it reports the
      // scanner's error.
      if (tokens != nullptr) tokens->clear();
      return StatementShape{std::string(text), {}};
    }
    if (tok.kind == TokenKind::kEnd) break;
    if (tok.kind == TokenKind::kParam && lift_literals) {
      // A text with its own placeholders binds its own values.
      if (!shape.values.empty()) return ShapeStatement(text, false, tokens);
      where = Where::kNever;
    }
    switch (where) {
      case Where::kVerb:
        where = Where::kNever;
        if (tok.kind != TokenKind::kIdent) break;
        if (EqualsIgnoreCase(tok.text, "retrieve")) {
          where = Where::kTargetListOpen;
        } else if (EqualsIgnoreCase(tok.text, "append") ||
                   EqualsIgnoreCase(tok.text, "replace") ||
                   EqualsIgnoreCase(tok.text, "delete")) {
          where = Where::kLift;
        }
        break;
      case Where::kTargetListOpen:
        where = tok.kind == TokenKind::kLParen ? Where::kTargetList
                                               : Where::kNever;
        depth = 1;
        break;
      case Where::kTargetList:
        if (tok.kind == TokenKind::kLParen) ++depth;
        if (tok.kind == TokenKind::kRParen && --depth == 0) {
          where = Where::kLift;
        }
        break;
      case Where::kNever:
      case Where::kLift:
        break;
    }
    // Only whitespace can sit between two tokens.
    const size_t gap = tok.offset - prev_end;
    if (run == std::string_view::npos) {
      run = tok.offset;
    } else if (gap > 1 || (gap == 1 && text[prev_end] != ' ')) {
      shape.key.append(text.data() + run, prev_end - run);
      shape.key.push_back(' ');
      run = tok.offset;
    }
    prev_end = tok.end;
    const bool literal = tok.kind == TokenKind::kInt ||
                         tok.kind == TokenKind::kFloat ||
                         tok.kind == TokenKind::kString;
    if (literal && where == Where::kLift && prev != TokenKind::kMinus) {
      shape.values.push_back(tok.kind == TokenKind::kInt
                                 ? Value::Int(tok.int_value)
                             : tok.kind == TokenKind::kFloat
                                 ? Value::Float(tok.float_value)
                                 : Value::Text(std::string(tok.text)));
      shape.key.append(text.data() + run, tok.offset - run);
      char slot[12] = {'$'};
      const size_t n = shape.values.size();
      shape.key.append(slot, std::to_chars(slot + 1, std::end(slot), n).ptr);
      run = tok.end;
      // The parser reads the slot where the literal stood: its errors
      // still quote the text as written.
      tok.kind = TokenKind::kParam;
      tok.int_value = static_cast<int64_t>(shape.values.size());
      tok.text = {};
    }
    prev = tok.kind;
    if (tokens != nullptr) tokens->push_back(tok);
  }
  if (run != std::string_view::npos) {
    shape.key.append(text.data() + run, prev_end - run);
  }
  if (tokens != nullptr) tokens->push_back(tok);
  return shape;
}

std::string NormalizeStatementText(std::string_view text) {
  return ShapeStatement(text, /*lift_literals=*/false).key;
}

Result<CompiledStatementPtr> CompileStatement(std::string_view text,
                                              bool lift_literals) {
  const int64_t t0 = obs::Enabled() ? obs::NowNs() : 0;
  std::vector<Token> tokens;
  std::string source(text);
  if (lift_literals) source = ShapeStatement(text, true, &tokens).key;
  CALDB_ASSIGN_OR_RETURN(Statement stmt,
                         ParseStatement(text, std::move(tokens)));
  const int64_t parse_ns = t0 != 0 ? obs::NowNs() - t0 : 0;
  // Placeholder numbering must be contiguous from $1: a gap is almost
  // always a typo, and silently accepting `$1, $3` would make arity
  // checking meaningless.  Only the text path validates — hand-built ASTs
  // through CompileParsedStatement are the caller's contract.
  ParamSig sig;
  CollectParams(stmt, &sig);
  for (size_t i = 0; i < sig.seen.size(); ++i) {
    if (!sig.seen[i]) {
      return Status::ParseError(
          "placeholder $" + std::to_string(i + 1) +
          " is missing: parameters must be numbered contiguously from $1 "
          "($" +
          std::to_string(sig.seen.size()) + " is used)");
    }
  }
  if (!sig.seen.empty() && std::holds_alternative<DefineRuleStmt>(stmt)) {
    return Status::ParseError(
        "placeholders are not allowed in a rule's where clause: rule "
        "conditions are evaluated at event time with no bind list");
  }
  return CompileParsedStatement(std::move(stmt), std::move(source), parse_ns);
}

CompiledStatementPtr CompileParsedStatement(Statement stmt, std::string text,
                                            int64_t parse_ns) {
  auto compiled = std::make_shared<CompiledStatement>();
  compiled->stmt = std::make_shared<const Statement>(std::move(stmt));
  compiled->text = std::move(text);
  compiled->parse_ns = parse_ns;
  ComputeMetadata(*compiled->stmt, compiled.get());
  ParamSig sig;
  CollectParams(*compiled->stmt, &sig);
  compiled->param_count = static_cast<int>(sig.seen.size());
  compiled->param_types = std::move(sig.types);
  return compiled;
}

Result<EvalScope> BindParams(const CompiledStatement& compiled,
                             const ParamList* params) {
  const size_t bound = params == nullptr ? 0 : params->size();
  if (static_cast<int>(bound) != compiled.param_count) {
    return Status::InvalidArgument(
        "statement expects " + std::to_string(compiled.param_count) +
        " parameter(s) " + RenderParamSignature(compiled) + ", got " +
        std::to_string(bound) + "; bind one value per placeholder");
  }
  for (size_t i = 0; i < bound; ++i) {
    const ValueType expected = compiled.param_types[i];
    const ValueType actual = (*params)[i].type();
    if (expected == ValueType::kNull || actual == ValueType::kNull) continue;
    const bool both_numeric =
        (expected == ValueType::kInt || expected == ValueType::kFloat) &&
        (actual == ValueType::kInt || actual == ValueType::kFloat);
    if (actual != expected && !both_numeric) {
      return Status::InvalidArgument(
          "parameter $" + std::to_string(i + 1) + " expects " +
          std::string(ParamTypeName(expected)) + ", got " +
          std::string(ParamTypeName(actual)) + " (" +
          (*params)[i].ToString() + ")");
    }
  }
  EvalScope scope;
  scope.params = params;
  return scope;
}

std::string RenderParamSignature(const CompiledStatement& compiled) {
  std::string out = "(";
  for (int i = 0; i < compiled.param_count; ++i) {
    if (i > 0) out += ", ";
    out += "$" + std::to_string(i + 1) + ":";
    const ValueType t = static_cast<size_t>(i) < compiled.param_types.size()
                            ? compiled.param_types[static_cast<size_t>(i)]
                            : ValueType::kNull;
    out += ParamTypeName(t);
  }
  return out + ")";
}

}  // namespace caldb
