#include "db/expression.h"

#include <algorithm>
#include <cstdint>

#include "common/macros.h"
#include "common/strings.h"

namespace caldb {

namespace {

std::string_view CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

}  // namespace

std::string DbExpr::ToString() const {
  switch (kind) {
    case Kind::kConst:
      return constant.ToString();
    case Kind::kColumnRef:
      return var.empty() ? column : var + "." + column;
    case Kind::kCompare:
      return "(" + lhs->ToString() + " " + std::string(CmpOpName(cmp)) + " " +
             rhs->ToString() + ")";
    case Kind::kLogical:
      if (log == LogOp::kNot) return "(not " + lhs->ToString() + ")";
      return "(" + lhs->ToString() + (log == LogOp::kAnd ? " and " : " or ") +
             rhs->ToString() + ")";
    case Kind::kArith:
      return "(" + lhs->ToString() + " " + arith + " " + rhs->ToString() + ")";
    case Kind::kCall: {
      std::string out = fn_name + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kParam:
      return "$" + std::to_string(param_index);
  }
  return "?";
}

Result<Value> EvalDbExpr(const DbExpr& expr, const EvalScope& scope) {
  switch (expr.kind) {
    case DbExpr::Kind::kConst:
      return expr.constant;

    case DbExpr::Kind::kColumnRef: {
      const TupleBinding* binding = nullptr;
      if (!expr.var.empty()) {
        auto it = scope.tuples.find(expr.var);
        if (it == scope.tuples.end()) {
          return Status::EvalError("unknown range variable '" + expr.var + "'");
        }
        binding = &it->second;
      } else {
        if (scope.tuples.size() != 1) {
          return Status::EvalError("unqualified column '" + expr.column +
                                   "' is ambiguous");
        }
        binding = &scope.tuples.begin()->second;
      }
      CALDB_ASSIGN_OR_RETURN(size_t idx, binding->schema->IndexOf(expr.column));
      return (*binding->row)[idx];
    }

    case DbExpr::Kind::kCompare: {
      CALDB_ASSIGN_OR_RETURN(Value a, EvalDbExpr(*expr.lhs, scope));
      CALDB_ASSIGN_OR_RETURN(Value b, EvalDbExpr(*expr.rhs, scope));
      if (expr.cmp == CmpOp::kEq) return Value::Bool(a.Equals(b));
      if (expr.cmp == CmpOp::kNe) return Value::Bool(!a.Equals(b));
      if (a.is_null() || b.is_null()) return Value::Bool(false);
      CALDB_ASSIGN_OR_RETURN(int c, a.Compare(b));
      switch (expr.cmp) {
        case CmpOp::kLt:
          return Value::Bool(c < 0);
        case CmpOp::kLe:
          return Value::Bool(c <= 0);
        case CmpOp::kGt:
          return Value::Bool(c > 0);
        case CmpOp::kGe:
          return Value::Bool(c >= 0);
        default:
          break;
      }
      return Status::Internal("unhandled comparison");
    }

    case DbExpr::Kind::kLogical: {
      CALDB_ASSIGN_OR_RETURN(Value a, EvalDbExpr(*expr.lhs, scope));
      CALDB_ASSIGN_OR_RETURN(bool av, a.Truthy());
      if (expr.log == LogOp::kNot) return Value::Bool(!av);
      // Short-circuit.
      if (expr.log == LogOp::kAnd && !av) return Value::Bool(false);
      if (expr.log == LogOp::kOr && av) return Value::Bool(true);
      CALDB_ASSIGN_OR_RETURN(Value b, EvalDbExpr(*expr.rhs, scope));
      CALDB_ASSIGN_OR_RETURN(bool bv, b.Truthy());
      return Value::Bool(bv);
    }

    case DbExpr::Kind::kArith: {
      CALDB_ASSIGN_OR_RETURN(Value a, EvalDbExpr(*expr.lhs, scope));
      CALDB_ASSIGN_OR_RETURN(Value b, EvalDbExpr(*expr.rhs, scope));
      if (a.is_null() || b.is_null()) return Value::Null();
      const bool both_int =
          a.type() == ValueType::kInt && b.type() == ValueType::kInt;
      if (both_int) {
        CALDB_ASSIGN_OR_RETURN(int64_t x, a.AsInt());
        CALDB_ASSIGN_OR_RETURN(int64_t y, b.AsInt());
        // Checked: a result past int64 is an error, not undefined
        // behaviour.
        int64_t r = 0;
        bool overflow = false;
        switch (expr.arith) {
          case '+':
            overflow = __builtin_add_overflow(x, y, &r);
            break;
          case '-':
            overflow = __builtin_sub_overflow(x, y, &r);
            break;
          case '*':
            overflow = __builtin_mul_overflow(x, y, &r);
            break;
          case '/':
            if (y == 0) return Status::EvalError("division by zero");
            overflow = x == INT64_MIN && y == -1;
            if (!overflow) r = x / y;
            break;
          default:
            return Status::Internal("unhandled arithmetic operator");
        }
        if (overflow) {
          return Status::EvalError("integer overflow: " + std::to_string(x) +
                                   " " + expr.arith + " " +
                                   std::to_string(y));
        }
        return Value::Int(r);
      }
      CALDB_ASSIGN_OR_RETURN(double x, a.AsFloat());
      CALDB_ASSIGN_OR_RETURN(double y, b.AsFloat());
      switch (expr.arith) {
        case '+':
          return Value::Float(x + y);
        case '-':
          return Value::Float(x - y);
        case '*':
          return Value::Float(x * y);
        case '/':
          if (y == 0.0) return Status::EvalError("division by zero");
          return Value::Float(x / y);
      }
      return Status::Internal("unhandled arithmetic operator");
    }

    case DbExpr::Kind::kCall: {
      if (IsAggregateName(expr.fn_name)) {
        return Status::EvalError("aggregate '" + expr.fn_name +
                                 "' outside an aggregating retrieve");
      }
      if (scope.registry == nullptr) {
        return Status::EvalError("no function registry available");
      }
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const DbExprPtr& arg : expr.args) {
        CALDB_ASSIGN_OR_RETURN(Value v, EvalDbExpr(*arg, scope));
        args.push_back(std::move(v));
      }
      return scope.registry->Call(expr.fn_name, args);
    }

    case DbExpr::Kind::kParam: {
      if (scope.params == nullptr ||
          static_cast<size_t>(expr.param_index) > scope.params->size() ||
          expr.param_index < 1) {
        return Status::EvalError("parameter $" +
                                 std::to_string(expr.param_index) +
                                 " is not bound");
      }
      return (*scope.params)[static_cast<size_t>(expr.param_index) - 1];
    }
  }
  return Status::Internal("unknown expression kind");
}

bool IsAggregateName(const std::string& name) {
  std::string lower = AsciiToLower(name);
  return lower == "count" || lower == "sum" || lower == "min" ||
         lower == "max" || lower == "avg";
}

bool ContainsAggregate(const DbExpr& expr) {
  if (expr.kind == DbExpr::Kind::kCall && IsAggregateName(expr.fn_name)) {
    return true;
  }
  if (expr.lhs && ContainsAggregate(*expr.lhs)) return true;
  if (expr.rhs && ContainsAggregate(*expr.rhs)) return true;
  for (const DbExprPtr& arg : expr.args) {
    if (ContainsAggregate(*arg)) return true;
  }
  return false;
}

namespace {

// Resolves an expression to an int key usable for index planning: an int
// constant, or — when a bind list is present — a placeholder whose bound
// value is an int.  Params make the plan per-execution: the same compiled
// shape index-scans with one bind list and may full-scan with another.
std::optional<int64_t> KeyFromExpr(const DbExpr& e,
                                   const std::vector<Value>* params) {
  const Value* v = nullptr;
  if (e.kind == DbExpr::Kind::kConst) {
    v = &e.constant;
  } else if (e.kind == DbExpr::Kind::kParam && params != nullptr &&
             e.param_index >= 1 &&
             static_cast<size_t>(e.param_index) <= params->size()) {
    v = &(*params)[e.param_index - 1];
  } else {
    return std::nullopt;
  }
  Result<int64_t> key = v->AsInt();
  if (!key.ok()) return std::nullopt;
  return *key;
}

// Narrows [lo, hi] using one comparison conjunct when it matches
// var.column <op> key (either operand order), where key is an int constant
// or a bound placeholder.
void NarrowFromCompare(const DbExpr& cmp, const std::string& var,
                       const std::string& column,
                       const std::vector<Value>* params, int64_t* lo,
                       int64_t* hi) {
  bool flipped = false;
  auto is_col = [&](const DbExpr& e) {
    return e.kind == DbExpr::Kind::kColumnRef && e.column == column &&
           (e.var == var || e.var.empty());
  };
  std::optional<int64_t> key;
  if (is_col(*cmp.lhs) && (key = KeyFromExpr(*cmp.rhs, params))) {
    // column on the left
  } else if (is_col(*cmp.rhs) && (key = KeyFromExpr(*cmp.lhs, params))) {
    flipped = true;
  } else {
    return;
  }
  CmpOp op = cmp.cmp;
  if (flipped) {
    switch (op) {
      case CmpOp::kLt:
        op = CmpOp::kGt;
        break;
      case CmpOp::kLe:
        op = CmpOp::kGe;
        break;
      case CmpOp::kGt:
        op = CmpOp::kLt;
        break;
      case CmpOp::kGe:
        op = CmpOp::kLe;
        break;
      default:
        break;
    }
  }
  switch (op) {
    case CmpOp::kEq:
      *lo = std::max(*lo, *key);
      *hi = std::min(*hi, *key);
      break;
    case CmpOp::kLt:
      *hi = std::min(*hi, *key - 1);
      break;
    case CmpOp::kLe:
      *hi = std::min(*hi, *key);
      break;
    case CmpOp::kGt:
      *lo = std::max(*lo, *key + 1);
      break;
    case CmpOp::kGe:
      *lo = std::max(*lo, *key);
      break;
    case CmpOp::kNe:
      break;
  }
}

void WalkConjuncts(const DbExpr& expr, const std::string& var,
                   const std::string& column,
                   const std::vector<Value>* params, int64_t* lo, int64_t* hi,
                   bool* narrowed) {
  if (expr.kind == DbExpr::Kind::kLogical && expr.log == LogOp::kAnd) {
    WalkConjuncts(*expr.lhs, var, column, params, lo, hi, narrowed);
    WalkConjuncts(*expr.rhs, var, column, params, lo, hi, narrowed);
    return;
  }
  if (expr.kind == DbExpr::Kind::kCompare) {
    int64_t before_lo = *lo;
    int64_t before_hi = *hi;
    NarrowFromCompare(expr, var, column, params, lo, hi);
    if (*lo != before_lo || *hi != before_hi) *narrowed = true;
  }
  // Other conjunct shapes are residual filters; they never widen the range.
}

}  // namespace

std::optional<std::pair<int64_t, int64_t>> ExtractIndexRange(
    const DbExpr& expr, const std::string& var, const std::string& column,
    const std::vector<Value>* params) {
  int64_t lo = INT64_MIN;
  int64_t hi = INT64_MAX;
  bool narrowed = false;
  WalkConjuncts(expr, var, column, params, &lo, &hi, &narrowed);
  if (!narrowed) return std::nullopt;
  return std::make_pair(lo, hi);
}

}  // namespace caldb
