#include "lang/planner.h"

#include <map>

#include "common/macros.h"
#include "obs/obs.h"
#include "common/strings.h"

namespace caldb {

namespace {

class Planner {
 public:
  explicit Planner(const Script& script) : script_(script) {}

  Result<Plan> Run() {
    plan_.unit = script_.unit;
    CALDB_RETURN_IF_ERROR(CompileBody(script_.stmts, &plan_.steps));
    plan_.num_registers = next_reg_;
    // Plans may be kept for long (the catalog's plan cache, rules): drop
    // the growth slack.
    plan_.steps.shrink_to_fit();
    return std::move(plan_);
  }

 private:
  int NewReg() { return next_reg_++; }

  // Appends `value` to a side table of the plan; returns its index, the
  // step's payload.
  template <typename T>
  static int32_t AddPayload(std::vector<T>* table, T value) {
    table->push_back(std::move(value));
    return static_cast<int32_t>(table->size() - 1);
  }

  // Stores the blocks of a kIf/kWhile consecutively; returns the first's
  // index.  Nested blocks were stored while these were compiled.
  int32_t AddBlocks(std::vector<std::vector<PlanStep>> blocks) {
    const int32_t first = static_cast<int32_t>(plan_.blocks.size());
    for (std::vector<PlanStep>& block : blocks) {
      block.shrink_to_fit();
      plan_.blocks.push_back(std::move(block));
    }
    return first;
  }

  Status CompileBody(const std::vector<Stmt>& body, std::vector<PlanStep>* out) {
    for (const Stmt& stmt : body) {
      CALDB_RETURN_IF_ERROR(CompileStmt(stmt, out));
    }
    return Status::OK();
  }

  Status CompileStmt(const Stmt& stmt, std::vector<PlanStep>* out) {
    switch (stmt.kind) {
      case Stmt::Kind::kAssign: {
        CALDB_ASSIGN_OR_RETURN(int value_reg,
                               CompileExpr(*stmt.expr, WindowHint{}, out));
        auto it = vars_.find(stmt.var);
        int var_reg;
        if (it == vars_.end()) {
          var_reg = NewReg();
          vars_[stmt.var] = var_reg;
        } else {
          var_reg = it->second;
        }
        PlanStep step;
        step.op = PlanOpCode::kCopy;
        step.dst = var_reg;
        step.lhs = value_reg;
        out->push_back(step);
        return Status::OK();
      }
      case Stmt::Kind::kIf:
      case Stmt::Kind::kWhile: {
        const bool is_if = stmt.kind == Stmt::Kind::kIf;
        PlanStep step;
        step.op = is_if ? PlanOpCode::kIf : PlanOpCode::kWhile;
        std::vector<std::vector<PlanStep>> blocks(is_if ? 3 : 2);
        CALDB_ASSIGN_OR_RETURN(
            step.lhs, CompileExpr(*stmt.expr, WindowHint{}, &blocks[0]));
        CALDB_RETURN_IF_ERROR(CompileBody(stmt.body, &blocks[1]));
        if (is_if) {
          CALDB_RETURN_IF_ERROR(CompileBody(stmt.else_body, &blocks[2]));
        }
        step.payload = AddBlocks(std::move(blocks));
        out->push_back(step);
        return Status::OK();
      }
      case Stmt::Kind::kReturn: {
        PlanStep step;
        if (stmt.returns_string) {
          step.op = PlanOpCode::kReturnString;
          step.payload = AddPayload(&plan_.names, stmt.str);
        } else {
          step.op = PlanOpCode::kReturn;
          CALDB_ASSIGN_OR_RETURN(step.lhs,
                                 CompileExpr(*stmt.expr, WindowHint{}, out));
        }
        out->push_back(step);
        return Status::OK();
      }
      case Stmt::Kind::kBlock:
        return CompileBody(stmt.body, out);
    }
    return Status::Internal("unknown statement kind");
  }

  // Compiles an expression; returns the register holding its value.
  Result<int> CompileExpr(const Expr& e, const WindowHint& hint,
                          std::vector<PlanStep>* out) {
    switch (e.kind) {
      case Expr::Kind::kIdent:
        return CompileIdent(e, hint, out);
      case Expr::Kind::kLiteral: {
        PlanStep step;
        step.op = PlanOpCode::kLiteral;
        step.dst = NewReg();
        step.payload = AddPayload(&plan_.literals, e.literal);
        out->push_back(step);
        return step.dst;
      }
      case Expr::Kind::kYearSelect: {
        PlanStep step;
        step.op = PlanOpCode::kYearSelect;
        step.dst = NewReg();
        step.year = e.year;
        out->push_back(step);
        return step.dst;
      }
      case Expr::Kind::kForEach: {
        CALDB_ASSIGN_OR_RETURN(int rhs_reg, CompileExpr(*e.rhs, hint, out));
        // The §3.4 selection pushdown: the left operand is generated only
        // within the span of the evaluated right operand.
        static obs::Counter* pushdown_counter =
            obs::Metrics().counter("caldb.opt.rewrite.pushdown");
        pushdown_counter->Increment();
        WindowHint lhs_hint;
        lhs_hint.reg = rhs_reg;
        lhs_hint.mode = (e.op == ListOp::kBefore || e.op == ListOp::kBeforeEq)
                            ? WindowHint::Mode::kBefore
                            : WindowHint::Mode::kSpan;
        CALDB_ASSIGN_OR_RETURN(int lhs_reg, CompileExpr(*e.lhs, lhs_hint, out));
        PlanStep step;
        step.op = PlanOpCode::kForEach;
        step.dst = NewReg();
        step.lhs = lhs_reg;
        step.rhs = rhs_reg;
        step.listop = e.op;
        step.strict = e.strict;
        out->push_back(step);
        return step.dst;
      }
      case Expr::Kind::kSelect: {
        CALDB_ASSIGN_OR_RETURN(int src_reg, CompileExpr(*e.child, hint, out));
        PlanStep step;
        step.op = PlanOpCode::kSelect;
        step.dst = NewReg();
        step.lhs = src_reg;
        step.payload = AddPayload(&plan_.selections, e.selection);
        out->push_back(step);
        return step.dst;
      }
      case Expr::Kind::kSetOp: {
        CALDB_ASSIGN_OR_RETURN(int lhs_reg, CompileExpr(*e.lhs, hint, out));
        CALDB_ASSIGN_OR_RETURN(int rhs_reg, CompileExpr(*e.rhs, hint, out));
        PlanStep step;
        step.op = e.set_op == '+' ? PlanOpCode::kUnion : PlanOpCode::kDifference;
        step.dst = NewReg();
        step.lhs = lhs_reg;
        step.rhs = rhs_reg;
        out->push_back(step);
        return step.dst;
      }
      case Expr::Kind::kCall:
        return CompileCall(e, hint, out);
      case Expr::Kind::kIntConst:
      case Expr::Kind::kStar:
        return Status::Internal("scalar call argument outside a call");
    }
    return Status::Internal("unknown expression kind");
  }

  Result<int> CompileIdent(const Expr& e, const WindowHint& hint,
                           std::vector<PlanStep>* out) {
    switch (e.ident_class) {
      case IdentClass::kVariable: {
        auto it = vars_.find(e.name);
        if (it == vars_.end()) {
          return Status::EvalError("variable '" + e.name +
                                   "' used before assignment (line " +
                                   std::to_string(e.line) + ")");
        }
        return it->second;
      }
      case IdentClass::kToday: {
        PlanStep step;
        step.op = PlanOpCode::kToday;
        step.dst = NewReg();
        out->push_back(step);
        return step.dst;
      }
      case IdentClass::kBaseCalendar: {
        PlanStep step;
        step.op = PlanOpCode::kGenerate;
        step.dst = NewReg();
        step.gran_arg = e.sem_granularity;
        step.hint = hint;
        out->push_back(step);
        return step.dst;
      }
      case IdentClass::kValueCalendar: {
        PlanStep step;
        step.op = PlanOpCode::kLoadValues;
        step.dst = NewReg();
        step.payload = AddPayload(&plan_.names, e.name);
        step.hint = hint;
        out->push_back(step);
        return step.dst;
      }
      case IdentClass::kDerivedCalendar: {
        PlanStep step;
        step.op = PlanOpCode::kInvoke;
        step.dst = NewReg();
        step.payload = AddPayload(&plan_.names, e.name);
        step.hint = hint;
        out->push_back(step);
        return step.dst;
      }
      case IdentClass::kUnresolved:
        return Status::Internal("unresolved identifier '" + e.name +
                                "' reached the planner (script not analyzed?)");
    }
    return Status::Internal("unknown identifier class");
  }

  Result<int> CompileCall(const Expr& e, const WindowHint& hint,
                          std::vector<PlanStep>* out) {
    if (EqualsIgnoreCase(e.name, "caloperate")) {
      CALDB_ASSIGN_OR_RETURN(int src_reg, CompileExpr(*e.args[0], hint, out));
      PlanStep step;
      step.op = PlanOpCode::kCalOperate;
      step.dst = NewReg();
      step.lhs = src_reg;
      CalOperateArgs args;
      if (e.args[1]->kind == Expr::Kind::kIntConst) {
        args.te = e.args[1]->int_value;
      }
      for (size_t i = 2; i < e.args.size(); ++i) {
        args.groups.push_back(e.args[i]->int_value);
      }
      step.payload = AddPayload(&plan_.caloperates, std::move(args));
      out->push_back(step);
      return step.dst;
    }
    if (EqualsIgnoreCase(e.name, "generate")) {
      PlanStep step;
      step.op = PlanOpCode::kGenerateSpan;
      step.dst = NewReg();
      step.gran_arg = e.args[0]->sem_granularity;
      step.unit_arg = e.args[1]->sem_granularity;
      step.payload = AddPayload(
          &plan_.civil_spans, CivilSpan{e.args[2]->name, e.args[3]->name});
      out->push_back(step);
      return step.dst;
    }
    return Status::Internal("unknown call '" + e.name +
                            "' reached the planner");
  }

  const Script& script_;
  Plan plan_;
  int next_reg_ = 0;
  std::map<std::string, int> vars_;
};

}  // namespace

Result<Plan> CompileScript(const Script& script) {
  return Planner(script).Run();
}

}  // namespace caldb
