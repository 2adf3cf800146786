// CompiledStatement — the parse-once handle of the statement pipeline.
//
// Every execution surface of the system (Session::Execute, rule firings,
// WAL replay, EXPLAIN/PROFILE) used to re-lex and re-parse statement text
// on each call.  CompileStatement runs the parser exactly once and wraps
// the result in an immutable, shareable handle carrying the metadata the
// layers above need without looking at the AST again:
//
//   - write classification, so the Engine picks its reader/writer lock
//     from precomputed data instead of text sniffing;
//   - the referenced tables, so the Engine's StatementCache can invalidate
//     exactly the entries a DDL statement could affect;
//   - whitespace-normalized text (quote-aware), the cache key under which
//     equivalent spellings of one statement share a single compilation;
//   - the measured parse cost, surfaced by benches and EXPLAIN tooling.
//
// Handles are deeply immutable (`shared_ptr<const ...>`): any number of
// sessions, the DBCRON thread and recovery may execute one concurrently.
// Pipeline: text → compile → cache → execute (see DESIGN.md §5).

#ifndef CALDB_DB_COMPILED_STATEMENT_H_
#define CALDB_DB_COMPILED_STATEMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/query.h"

namespace caldb {

struct CompiledStatement {
  /// How executing the statement interacts with the Engine's lock.
  /// kReadUnlessRetrieveRules is the dynamic case: a plain retrieve is a
  /// read, unless retrieve-event rules are armed at execution time (a §4
  /// rule action may write) — that half of the decision stays with the
  /// Engine, which reads Database::HasRetrieveRules() per execution.
  enum class WriteClass {
    kRead,                     // never writes (explain without profile)
    kWrite,                    // DML / DDL / rule DDL / retrieve into
    kReadUnlessRetrieveRules,  // plain retrieve
  };

  /// The parsed statement.  Shared and never mutated after compilation.
  std::shared_ptr<const Statement> stmt;
  /// The original source text, exactly as compiled (WAL redo records and
  /// slow-statement log lines carry this, so replay is byte-identical).
  std::string text;
  /// Whitespace-normalized text (NormalizeStatementText) — the statement
  /// cache key, so "retrieve  (x.v)" and "retrieve (x.v)" share an entry.
  std::string normalized;
  WriteClass write_class = WriteClass::kWrite;
  /// Tables the statement references (targets, range variables, rule
  /// tables), deduplicated.  DDL invalidation matches against this list.
  std::vector<std::string> tables;
  /// Whether the statement changes schema or rule state (create/drop
  /// table, create index, define/drop rule): executing it must invalidate
  /// cached statements that reference the affected tables.
  bool is_ddl = false;
  /// Whether `tables` is the statement's *complete* lock footprint: every
  /// table the execution can touch is in the list.  True for plain
  /// retrieves and single-table DML; false for anything that can reach
  /// tables not nameable at compile time (retrieve-into creates one, rule
  /// DDL re-arms firing paths, a hand-built explain has no metadata).
  /// The Engine's per-table lock path requires this — a statement without
  /// an exact footprint falls back to the global exclusive lock
  /// (engine/lock_manager.h).
  bool footprint_exact = false;
  /// Number of positional placeholders ($1..$param_count).  Placeholder
  /// numbering must be contiguous from $1; a gap ($1, $3) fails
  /// compilation.  0 for a statement without placeholders.
  int param_count = 0;
  /// Inferred type per parameter, index 0 = $1.  kNull means "any": the
  /// type could not be inferred from the statement shape.  kInt and
  /// kFloat are one numeric class at bind time — either binds both.
  std::vector<ValueType> param_types;
  /// Wall time the parse took, ns (0 when obs timing is disabled).
  int64_t parse_ns = 0;
};

using CompiledStatementPtr = std::shared_ptr<const CompiledStatement>;

/// Positional parameter values bound at execute time; element i binds $i+1.
using ParamList = std::vector<Value>;

/// Parses `text` once and precomputes the metadata above.  The returned
/// handle is immutable and safe to share across threads.
Result<CompiledStatementPtr> CompileStatement(std::string_view text);

/// Wraps an already parsed statement (used by the explain pipeline and by
/// callers that build ASTs programmatically).  `text` should be the
/// statement's source when available — it feeds logs and WAL records.
CompiledStatementPtr CompileParsedStatement(Statement stmt, std::string text,
                                            int64_t parse_ns = 0);

/// Collapses whitespace runs outside quoted literals to single spaces and
/// trims the ends.  Quote-aware: text inside '...' / "..." is preserved
/// byte for byte, so normalization never changes statement meaning.
/// Placeholders normalize like any other token, so "where a.id = $1" is
/// one cache entry no matter what values are later bound to it.
std::string NormalizeStatementText(std::string_view text);

/// The bind step: the one place a bind list is checked against a compiled
/// signature, run once per statement before any lock or WAL append.
/// Requires exact arity (a null `params` binds nothing, so it passes only
/// a statement without placeholders); kInt and kFloat interchange as one
/// numeric class; a null value binds any slot; an inferred kNull ("any")
/// slot accepts any value.  Returns InvalidArgument on mismatch, else the
/// scope evaluation reads the values from — in place, so `params` must
/// outlive it.
Result<EvalScope> BindParams(const CompiledStatement& compiled,
                             const ParamList* params);

/// Renders the parameter signature for tooling, e.g. "($1:int, $2:any)";
/// "()" when the statement takes no parameters.
std::string RenderParamSignature(const CompiledStatement& compiled);

}  // namespace caldb

#endif  // CALDB_DB_COMPILED_STATEMENT_H_
