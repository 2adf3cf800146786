#include "timeseries/pattern.h"

#include <memory>
#include <optional>

#include "common/macros.h"
#include "common/scanner.h"

namespace caldb {

namespace {

struct PExpr;
using PExprPtr = std::shared_ptr<PExpr>;

struct PExpr {
  enum class Kind { kSeries, kConst, kShift, kArith, kCompare, kLogic, kNot };
  Kind kind = Kind::kSeries;
  double constant = 0;
  int shift = 0;          // kShift
  char op = '+';          // kArith: + - * /; kCompare: one of < L(<=) > G(>=) = !
  bool logic_and = true;  // kLogic
  PExprPtr lhs;
  PExprPtr rhs;
};

// --- parser ---------------------------------------------------------------

class PatternParser : private TokenCursor {
 public:
  using TokenCursor::TokenCursor;

  Result<PExprPtr> Parse() {
    CALDB_ASSIGN_OR_RETURN(PExprPtr e, ParseOr());
    if (!Check(TokenKind::kEnd)) {
      return Status::ParseError("trailing input in pattern");
    }
    return e;
  }

 private:
  Result<PExprPtr> ParseOr() {
    CALDB_ASSIGN_OR_RETURN(PExprPtr lhs, ParseAnd());
    while (MatchKeyword("or")) {
      CALDB_ASSIGN_OR_RETURN(PExprPtr rhs, ParseAnd());
      auto node = std::make_shared<PExpr>();
      node->kind = PExpr::Kind::kLogic;
      node->logic_and = false;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<PExprPtr> ParseAnd() {
    CALDB_ASSIGN_OR_RETURN(PExprPtr lhs, ParseNot());
    while (MatchKeyword("and")) {
      CALDB_ASSIGN_OR_RETURN(PExprPtr rhs, ParseNot());
      auto node = std::make_shared<PExpr>();
      node->kind = PExpr::Kind::kLogic;
      node->logic_and = true;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<PExprPtr> ParseNot() {
    if (MatchKeyword("not")) {
      CALDB_ASSIGN_OR_RETURN(PExprPtr inner, ParseNot());
      auto node = std::make_shared<PExpr>();
      node->kind = PExpr::Kind::kNot;
      node->lhs = std::move(inner);
      return node;
    }
    return ParseCompare();
  }

  Result<PExprPtr> ParseCompare() {
    CALDB_ASSIGN_OR_RETURN(PExprPtr lhs, ParseAdd());
    char op = 0;
    if (Match(TokenKind::kLessEq)) {
      op = 'L';
    } else if (Match(TokenKind::kGreaterEq)) {
      op = 'G';
    } else if (Match(TokenKind::kNotEq)) {
      op = '!';
    } else if (Match(TokenKind::kLess)) {
      op = '<';
    } else if (Match(TokenKind::kGreater)) {
      op = '>';
    } else if (Match(TokenKind::kAssign)) {
      op = '=';
    } else {
      return lhs;
    }
    CALDB_ASSIGN_OR_RETURN(PExprPtr rhs, ParseAdd());
    auto node = std::make_shared<PExpr>();
    node->kind = PExpr::Kind::kCompare;
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  Result<PExprPtr> ParseAdd() {
    CALDB_ASSIGN_OR_RETURN(PExprPtr lhs, ParseMul());
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      char op = Advance().kind == TokenKind::kPlus ? '+' : '-';
      CALDB_ASSIGN_OR_RETURN(PExprPtr rhs, ParseMul());
      auto node = std::make_shared<PExpr>();
      node->kind = PExpr::Kind::kArith;
      node->op = op;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<PExprPtr> ParseMul() {
    CALDB_ASSIGN_OR_RETURN(PExprPtr lhs, ParseFactor());
    while (Check(TokenKind::kStar) || Check(TokenKind::kSlash)) {
      char op = Advance().kind == TokenKind::kStar ? '*' : '/';
      CALDB_ASSIGN_OR_RETURN(PExprPtr rhs, ParseFactor());
      auto node = std::make_shared<PExpr>();
      node->kind = PExpr::Kind::kArith;
      node->op = op;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<PExprPtr> ParseFactor() {
    if (Match(TokenKind::kLParen)) {
      CALDB_ASSIGN_OR_RETURN(PExprPtr inner, ParseOr());
      if (!Match(TokenKind::kRParen)) return Status::ParseError("expected ')' in pattern");
      return inner;
    }
    if (Match(TokenKind::kMinus)) {
      CALDB_ASSIGN_OR_RETURN(PExprPtr inner, ParseFactor());
      auto zero = std::make_shared<PExpr>();
      zero->kind = PExpr::Kind::kConst;
      zero->constant = 0;
      auto node = std::make_shared<PExpr>();
      node->kind = PExpr::Kind::kArith;
      node->op = '-';
      node->lhs = std::move(zero);
      node->rhs = std::move(inner);
      return node;
    }
    const Token& t = Peek();
    if (t.kind == TokenKind::kInt || t.kind == TokenKind::kFloat) {
      auto node = std::make_shared<PExpr>();
      node->kind = PExpr::Kind::kConst;
      node->constant = t.kind == TokenKind::kInt
                           ? static_cast<double>(Advance().int_value)
                           : Advance().float_value;
      return node;
    }
    if (t.kind == TokenKind::kIdent) {
      if (MatchKeyword("S")) {
        auto node = std::make_shared<PExpr>();
        node->kind = PExpr::Kind::kSeries;
        return node;
      }
      const bool forward = CheckKeyword("next");
      if (forward || CheckKeyword("prev")) {
        Advance();
        if (!Match(TokenKind::kLParen)) {
          return Status::ParseError("expected '(' after next/prev");
        }
        CALDB_ASSIGN_OR_RETURN(PExprPtr inner, ParseAdd());
        if (!Match(TokenKind::kRParen)) {
          return Status::ParseError("expected ')' after next/prev argument");
        }
        auto node = std::make_shared<PExpr>();
        node->kind = PExpr::Kind::kShift;
        node->shift = forward ? 1 : -1;
        node->lhs = std::move(inner);
        return node;
      }
      return Status::ParseError("unknown pattern identifier '" +
                                std::string(t.text) + "'");
    }
    return Status::ParseError("expected a pattern term");
  }
};

// --- evaluation -------------------------------------------------------------

// Numeric evaluation; nullopt when a series reference falls outside the
// observations.
std::optional<double> EvalNumeric(const PExpr& e, const std::vector<double>& values,
                                  int64_t index) {
  switch (e.kind) {
    case PExpr::Kind::kSeries:
      if (index < 0 || index >= static_cast<int64_t>(values.size())) {
        return std::nullopt;
      }
      return values[static_cast<size_t>(index)];
    case PExpr::Kind::kConst:
      return e.constant;
    case PExpr::Kind::kShift:
      return EvalNumeric(*e.lhs, values, index + e.shift);
    case PExpr::Kind::kArith: {
      std::optional<double> a = EvalNumeric(*e.lhs, values, index);
      std::optional<double> b = EvalNumeric(*e.rhs, values, index);
      if (!a || !b) return std::nullopt;
      switch (e.op) {
        case '+':
          return *a + *b;
        case '-':
          return *a - *b;
        case '*':
          return *a * *b;
        case '/':
          if (*b == 0) return std::nullopt;
          return *a / *b;
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;  // boolean node in numeric position
  }
}

bool EvalBool(const PExpr& e, const std::vector<double>& values, int64_t index) {
  switch (e.kind) {
    case PExpr::Kind::kCompare: {
      std::optional<double> a = EvalNumeric(*e.lhs, values, index);
      std::optional<double> b = EvalNumeric(*e.rhs, values, index);
      if (!a || !b) return false;
      switch (e.op) {
        case '<':
          return *a < *b;
        case 'L':
          return *a <= *b;
        case '>':
          return *a > *b;
        case 'G':
          return *a >= *b;
        case '=':
          return *a == *b;
        case '!':
          return *a != *b;
      }
      return false;
    }
    case PExpr::Kind::kLogic:
      if (e.logic_and) {
        return EvalBool(*e.lhs, values, index) && EvalBool(*e.rhs, values, index);
      }
      return EvalBool(*e.lhs, values, index) || EvalBool(*e.rhs, values, index);
    case PExpr::Kind::kNot:
      return !EvalBool(*e.lhs, values, index);
    default:
      return false;  // a bare numeric expression is not a predicate
  }
}

Status ValidateIsPredicate(const PExpr& e) {
  switch (e.kind) {
    case PExpr::Kind::kCompare:
    case PExpr::Kind::kNot:
    case PExpr::Kind::kLogic:
      return Status::OK();
    default:
      return Status::ParseError(
          "pattern must be a predicate (use a comparison, e.g. S < next(S))");
  }
}

}  // namespace

Result<std::vector<size_t>> MatchPatternIndices(const std::vector<double>& values,
                                                std::string_view pattern) {
  CALDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Scan(pattern));
  CALDB_ASSIGN_OR_RETURN(PExprPtr expr, PatternParser(std::move(tokens)).Parse());
  CALDB_RETURN_IF_ERROR(ValidateIsPredicate(*expr));
  std::vector<size_t> matches;
  for (size_t i = 0; i < values.size(); ++i) {
    if (EvalBool(*expr, values, static_cast<int64_t>(i))) matches.push_back(i);
  }
  return matches;
}

Result<Calendar> MatchPattern(const RegularTimeSeries& series,
                              std::string_view pattern) {
  std::vector<double> values;
  values.reserve(series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    CALDB_ASSIGN_OR_RETURN(double v, series.ValueAt(i));
    values.push_back(v);
  }
  CALDB_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                         MatchPatternIndices(values, pattern));
  std::vector<Interval> days;
  days.reserve(indices.size());
  for (size_t i : indices) {
    CALDB_ASSIGN_OR_RETURN(TimePoint day, series.DayAt(i));
    days.push_back(PointInterval(day));
  }
  return Calendar::Order1(Granularity::kDays, std::move(days));
}

Result<Calendar> MatchPattern(const IrregularTimeSeries& series,
                              std::string_view pattern) {
  std::vector<double> values;
  values.reserve(series.size());
  for (const auto& [day, value] : series.points()) values.push_back(value);
  CALDB_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                         MatchPatternIndices(values, pattern));
  std::vector<Interval> days;
  for (size_t i : indices) {
    days.push_back(PointInterval(series.points()[i].first));
  }
  return Calendar::Order1(Granularity::kDays, std::move(days));
}

}  // namespace caldb
