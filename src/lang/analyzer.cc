#include "lang/analyzer.h"

#include <map>

#include "common/macros.h"
#include "common/strings.h"
#include "obs/obs.h"
#include "time/civil.h"

namespace caldb {

struct Analyzer::Scope {
  // Variable name -> granularity of its current value.
  std::map<std::string, Granularity> vars;
};

namespace {

bool IsBaseCalendarName(const std::string& name, Granularity* g) {
  // Base-calendar names are case-insensitive (the paper writes both
  // "YEARS" and "Years"); any spelling a granularity parses from is base.
  Result<Granularity> r = ParseGranularity(name);
  if (!r.ok()) return false;
  *g = *r;
  return true;
}

}  // namespace

void Analyzer::RecordLeaf(Granularity g) {
  finest_ = Finest(finest_, g);
  if (g == Granularity::kWeeks) has_weeks_leaf_ = true;
  if (FinerThan(Granularity::kWeeks, g)) has_coarser_than_weeks_leaf_ = true;
}

Status Analyzer::AnalyzeScript(Script* script) {
  finest_ = Granularity::kCenturies;
  has_weeks_leaf_ = false;
  has_coarser_than_weeks_leaf_ = false;
  calendar_refs_.clear();
  inlines_ = 0;
  Scope scope;
  CALDB_RETURN_IF_ERROR(AnalyzeBody(&script->stmts, &scope));
  script->unit = finest_;
  // §3.4: the unit must express every calendar exactly.  Week boundaries
  // do not align with month/year boundaries, so mixing WEEKS with coarser
  // units forces evaluation down to DAYS.
  if (script->unit == Granularity::kWeeks && has_coarser_than_weeks_leaf_) {
    script->unit = Granularity::kDays;
  }
  script->repeated_calendars.clear();
  for (const auto& [name, count] : calendar_refs_) {
    if (count > 1) script->repeated_calendars.push_back(name);
  }
  return Status::OK();
}

Status Analyzer::AnalyzeBody(std::vector<Stmt>* body, Scope* scope) {
  for (Stmt& stmt : *body) {
    CALDB_RETURN_IF_ERROR(AnalyzeStmt(&stmt, scope));
  }
  return Status::OK();
}

Status Analyzer::AnalyzeStmt(Stmt* stmt, Scope* scope) {
  switch (stmt->kind) {
    case Stmt::Kind::kAssign: {
      CALDB_RETURN_IF_ERROR(AnalyzeExpr(&stmt->expr, scope));
      Granularity g = stmt->expr->sem_granularity;
      auto it = scope->vars.find(stmt->var);
      if (it == scope->vars.end()) {
        scope->vars[stmt->var] = g;
      } else {
        it->second = Finest(it->second, g);
      }
      return Status::OK();
    }
    case Stmt::Kind::kIf: {
      CALDB_RETURN_IF_ERROR(AnalyzeExpr(&stmt->expr, scope));
      CALDB_RETURN_IF_ERROR(AnalyzeBody(&stmt->body, scope));
      return AnalyzeBody(&stmt->else_body, scope);
    }
    case Stmt::Kind::kWhile: {
      CALDB_RETURN_IF_ERROR(AnalyzeExpr(&stmt->expr, scope));
      return AnalyzeBody(&stmt->body, scope);
    }
    case Stmt::Kind::kReturn:
      if (stmt->returns_string) return Status::OK();
      return AnalyzeExpr(&stmt->expr, scope);
    case Stmt::Kind::kBlock:
      return AnalyzeBody(&stmt->body, scope);
  }
  return Status::Internal("unknown statement kind");
}

Status Analyzer::AnalyzeExpr(ExprPtr* node_ptr, Scope* scope) {
  Expr* node = node_ptr->get();
  switch (node->kind) {
    case Expr::Kind::kIdent:
      return ResolveIdent(node_ptr, scope);
    case Expr::Kind::kLiteral:
      node->sem_granularity = node->literal.granularity();
      RecordLeaf(node->sem_granularity);
      return Status::OK();
    case Expr::Kind::kYearSelect: {
      if (!EqualsIgnoreCase(node->name, "YEARS") &&
          !EqualsIgnoreCase(node->name, "Years")) {
        return Status::TypeError(
            "label selection '" + std::to_string(node->year) + "/" + node->name +
            "' is only supported on YEARS (line " + std::to_string(node->line) +
            ")");
      }
      node->sem_granularity = Granularity::kYears;
      RecordLeaf(Granularity::kYears);
      return Status::OK();
    }
    case Expr::Kind::kForEach: {
      CALDB_RETURN_IF_ERROR(AnalyzeExpr(&node->rhs, scope));
      CALDB_RETURN_IF_ERROR(AnalyzeExpr(&node->lhs, scope));
      node->sem_granularity = node->lhs->sem_granularity;
      return Status::OK();
    }
    case Expr::Kind::kSelect: {
      CALDB_RETURN_IF_ERROR(AnalyzeExpr(&node->child, scope));
      node->sem_granularity = node->child->sem_granularity;
      return Status::OK();
    }
    case Expr::Kind::kSetOp: {
      CALDB_RETURN_IF_ERROR(AnalyzeExpr(&node->lhs, scope));
      CALDB_RETURN_IF_ERROR(AnalyzeExpr(&node->rhs, scope));
      node->sem_granularity =
          Finest(node->lhs->sem_granularity, node->rhs->sem_granularity);
      return Status::OK();
    }
    case Expr::Kind::kCall:
      return AnalyzeCall(node, scope);
    case Expr::Kind::kIntConst:
    case Expr::Kind::kStar:
      return Status::OK();
  }
  return Status::Internal("unknown expression kind");
}

Status Analyzer::ResolveIdent(ExprPtr* node_ptr, Scope* scope) {
  Expr* node = node_ptr->get();
  const std::string& name = node->name;

  // 1. Script-local variables shadow calendars.
  auto var = scope->vars.find(name);
  if (var != scope->vars.end()) {
    node->ident_class = IdentClass::kVariable;
    node->sem_granularity = var->second;
    return Status::OK();
  }

  // 2. `today`: the runtime's current time point.
  if (EqualsIgnoreCase(name, "today")) {
    node->ident_class = IdentClass::kToday;
    node->sem_granularity = Granularity::kDays;
    return Status::OK();
  }

  // 3. Base calendars.
  Granularity g;
  if (IsBaseCalendarName(name, &g)) {
    node->ident_class = IdentClass::kBaseCalendar;
    node->sem_granularity = g;
    RecordLeaf(g);
    ++calendar_refs_[AsciiToUpper(name)];
    return Status::OK();
  }

  // 4. The calendar source (the CALENDARS catalog).
  if (source_ == nullptr) {
    return Status::NotFound("unknown calendar or variable '" + name +
                            "' (line " + std::to_string(node->line) + ")");
  }
  CALDB_ASSIGN_OR_RETURN(ResolvedCalendar resolved, source_->Resolve(name));
  ++calendar_refs_[name];
  switch (resolved.kind) {
    case ResolvedCalendar::Kind::kBase:
      node->ident_class = IdentClass::kBaseCalendar;
      node->sem_granularity = resolved.granularity;
      RecordLeaf(resolved.granularity);
      return Status::OK();
    case ResolvedCalendar::Kind::kValues:
      node->ident_class = IdentClass::kValueCalendar;
      node->sem_granularity = resolved.granularity;
      RecordLeaf(resolved.granularity);
      return Status::OK();
    case ResolvedCalendar::Kind::kDerived: {
      if (resolved.script == nullptr) {
        return Status::Internal("derived calendar '" + name +
                                "' has no parsed derivation script");
      }
      // Single-expression derivations are inlined, as in the paper's
      // parsing algorithm; multi-statement scripts are invoked at runtime,
      // and so is a calendar with a lifespan, which kInvoke applies (an
      // inlined copy would read its expression over the caller's window).
      const Script& script = *resolved.script;
      const bool single_expr = script.stmts.size() == 1 &&
                               script.stmts[0].kind == Stmt::Kind::kReturn &&
                               !script.stmts[0].returns_string;
      if (!single_expr || resolved.lifespan_days.has_value()) {
        node->ident_class = IdentClass::kDerivedCalendar;
        node->sem_granularity = resolved.granularity;
        RecordLeaf(resolved.granularity);
        return Status::OK();
      }
      if (inlining_.count(name) > 0) {
        return Status::EvalError("cyclic calendar derivation involving '" +
                                 name + "'");
      }
      inlining_.insert(name);
      ExprPtr inlined = CloneExpr(*script.stmts[0].expr);
      Scope empty_scope;  // the derivation has no access to our variables
      Status st = AnalyzeExpr(&inlined, &empty_scope);
      inlining_.erase(name);
      CALDB_RETURN_IF_ERROR(st);
      *node_ptr = std::move(inlined);
      ++inlines_;
      static obs::Counter* inline_counter =
          obs::Metrics().counter("caldb.opt.rewrite.inline");
      inline_counter->Increment();
      return Status::OK();
    }
  }
  return Status::Internal("unknown resolved-calendar kind");
}

Status Analyzer::AnalyzeCall(Expr* node, Scope* scope) {
  if (EqualsIgnoreCase(node->name, "caloperate")) {
    // caloperate(expr, * | Te, x1, x2, ...)
    if (node->args.size() < 3) {
      return Status::InvalidArgument(
          "caloperate needs (calendar, end-time, group sizes...) (line " +
          std::to_string(node->line) + ")");
    }
    CALDB_RETURN_IF_ERROR(AnalyzeExpr(&node->args[0], scope));
    if (node->args[1]->kind != Expr::Kind::kStar &&
        node->args[1]->kind != Expr::Kind::kIntConst) {
      return Status::InvalidArgument(
          "caloperate end time must be '*' or an integer (line " +
          std::to_string(node->line) + ")");
    }
    for (size_t i = 2; i < node->args.size(); ++i) {
      if (node->args[i]->kind != Expr::Kind::kIntConst) {
        return Status::InvalidArgument(
            "caloperate group sizes must be integers (line " +
            std::to_string(node->line) + ")");
      }
    }
    node->sem_granularity = node->args[0]->sem_granularity;
    return Status::OK();
  }
  if (EqualsIgnoreCase(node->name, "generate")) {
    // generate(BASE, UNIT, "YYYY-MM-DD", "YYYY-MM-DD")
    if (node->args.size() != 4 || node->args[0]->kind != Expr::Kind::kIdent ||
        node->args[1]->kind != Expr::Kind::kIdent) {
      return Status::InvalidArgument(
          "generate needs (base-calendar, unit, start-date, end-date) (line " +
          std::to_string(node->line) + ")");
    }
    Granularity g;
    Granularity unit;
    if (!IsBaseCalendarName(node->args[0]->name, &g) ||
        !IsBaseCalendarName(node->args[1]->name, &unit)) {
      return Status::InvalidArgument(
          "generate arguments must be base calendars (line " +
          std::to_string(node->line) + ")");
    }
    for (size_t i = 2; i < 4; ++i) {
      if (node->args[i]->kind != Expr::Kind::kIntConst ||
          node->args[i]->name.empty()) {
        return Status::InvalidArgument(
            "generate start/end must be \"YYYY-MM-DD\" strings (line " +
            std::to_string(node->line) + ")");
      }
      CALDB_RETURN_IF_ERROR(ParseCivil(node->args[i]->name).status());
    }
    node->args[0]->sem_granularity = g;
    node->args[1]->sem_granularity = unit;
    node->sem_granularity = unit;
    RecordLeaf(unit);
    return Status::OK();
  }
  return Status::NotFound("unknown function '" + node->name + "' (line " +
                          std::to_string(node->line) + ")");
}

}  // namespace caldb
