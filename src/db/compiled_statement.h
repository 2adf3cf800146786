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
//   - the parameter signature the bind step checks;
//   - the measured parse cost, surfaced by benches and EXPLAIN tooling.
//
// ShapeStatement computes the cache key: one scan yields the
// whitespace-normalized text and, for DML, lifts literals into implicit
// $n slots, so every spelling of one statement shape shares a single
// compilation and binds its own values.
//
// Handles are deeply immutable (`shared_ptr<const ...>`): any number of
// sessions, the DBCRON thread and recovery may execute one concurrently.
// Pipeline: text → lift → cache → bind → execute (see DESIGN.md §5).

#ifndef CALDB_DB_COMPILED_STATEMENT_H_
#define CALDB_DB_COMPILED_STATEMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/scanner.h"
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
  /// The source text, exactly as compiled: a lifted shape's text for a
  /// statement whose literals were lifted (ShapeStatement).  WAL redo
  /// records carry this, so replay recompiles the same shape.
  std::string text;
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
/// handle is immutable and safe to share across threads.  With
/// `lift_literals` it compiles the text's lifted shape (ShapeStatement):
/// the parser reads each lifted literal as its $n slot, so a parse error
/// quotes the text as written, and the handle's `text` is the shape.
Result<CompiledStatementPtr> CompileStatement(std::string_view text,
                                              bool lift_literals = false);

/// Wraps an already parsed statement (used by the explain pipeline and by
/// callers that build ASTs programmatically).  `text` should be the
/// statement's source when available — it feeds logs and WAL records.
CompiledStatementPtr CompileParsedStatement(Statement stmt, std::string text,
                                            int64_t parse_ns = 0);

/// A statement's statement-cache key, and the literals lifted out of it.
struct StatementShape {
  /// The whitespace-normalized text, with each lifted literal spelled as
  /// its implicit placeholder: "... where a.id = $1".
  std::string key;
  /// The lifted literals in text order; values[i] binds $i+1.  Empty when
  /// nothing was lifted, and then `key` is the normalized text.
  ParamList values;
};

/// One scan of `text`: joins its tokens with single spaces where the text
/// had whitespace (string literals stay byte for byte), and with
/// `lift_literals` replaces literals by $1, $2, ... in text order.  A
/// literal's value is the scanner's, so it is exactly what the parser
/// would read in place.  Only retrieve/append/replace/delete texts with no
/// explicit placeholder are lifted, and never a literal in a retrieve's
/// target list (it names a result column) or right after '-' (so `-5`
/// still folds to a constant).  Text that does not scan keys as itself:
/// compiling it reports the scanner's error.  `tokens`, when given,
/// receives the text's tokens with each lifted literal turned into its
/// slot (source offsets kept), or nothing when the text does not scan.
StatementShape ShapeStatement(std::string_view text, bool lift_literals,
                              std::vector<Token>* tokens = nullptr);

/// ShapeStatement's key without lifting: whitespace runs between tokens
/// collapse to one space, the ends are trimmed, string literals keep their
/// contents.  Placeholders normalize like any other token, so "where a.id
/// = $1" is one cache entry no matter what values are later bound to it.
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
