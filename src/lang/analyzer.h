// Semantic analysis of calendar scripts (§3.4, steps 1 and 4 of the
// parsing algorithm):
//  - resolve identifiers (base calendar / derived calendar / stored values /
//    script variable / `today`);
//  - inline single-expression derived calendars ("when a derived calendar
//    is encountered, replace it by its derivation script") that have no
//    lifespan; the rest are invoked, their lifespan applied at runtime;
//  - annotate every node with its semantic granularity (needed by the
//    factorization rule);
//  - determine the smallest time unit of the script;
//  - mark calendars referenced more than once.

#ifndef CALDB_LANG_ANALYZER_H_
#define CALDB_LANG_ANALYZER_H_

#include <map>
#include <set>
#include <string>

#include "common/status.h"
#include "lang/ast.h"
#include "lang/calendar_source.h"

namespace caldb {

class Analyzer {
 public:
  /// `source` may be null (only base calendars, literals, variables and
  /// `today` resolve then).  Does not take ownership.
  explicit Analyzer(const CalendarSource* source) : source_(source) {}

  /// Annotates the script in place.  Statement order defines variable
  /// visibility; derivation cycles are reported as errors.
  Status AnalyzeScript(Script* script);

  /// Derived calendars inlined by the last AnalyzeScript (nested inlines
  /// included).
  int inlines() const { return inlines_; }

 private:
  struct Scope;

  Status AnalyzeBody(std::vector<Stmt>* body, Scope* scope);
  Status AnalyzeStmt(Stmt* stmt, Scope* scope);
  Status AnalyzeExpr(ExprPtr* node, Scope* scope);
  Status ResolveIdent(ExprPtr* node, Scope* scope);
  Status AnalyzeCall(Expr* node, Scope* scope);

  void RecordLeaf(Granularity g);

  const CalendarSource* source_;
  std::set<std::string> inlining_;  // cycle detection
  // Per-script accumulators.  The smallest unit must be able to *express*
  // every leaf calendar exactly (§3.4); weeks cannot express months or
  // coarser units, so mixing them forces the unit down to days.
  Granularity finest_ = Granularity::kCenturies;
  bool has_weeks_leaf_ = false;
  bool has_coarser_than_weeks_leaf_ = false;
  std::map<std::string, int> calendar_refs_;
  int inlines_ = 0;
};

}  // namespace caldb

#endif  // CALDB_LANG_ANALYZER_H_
