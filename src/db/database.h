// Database: tables + catalogs + query execution + the event-rule system
// ("On Event where Condition do Action", §4).

#ifndef CALDB_DB_DATABASE_H_
#define CALDB_DB_DATABASE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "db/compiled_statement.h"
#include "db/function_registry.h"
#include "db/query.h"
#include "db/table.h"

namespace caldb {

class Database;

/// Query output: column names plus rows, or a DML summary.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  int64_t affected = 0;
  std::string message;

  /// Plain-text rendering for examples and debugging.
  std::string ToString() const;
};

/// An event rule.  Fires when `event` touches `table` and `where` (with
/// NEW and/or CURRENT bound) holds.  The action is either a query-language
/// command (re-executed with the same bindings) or a C++ callback.
struct EventRule {
  std::string name;
  DbEvent event = DbEvent::kAppend;
  std::string table;
  DbExprPtr where;      // may be null (always fire)
  std::string command;  // may be empty when callback is set
  /// The action command compiled at DefineRule time — firings execute this
  /// handle directly, never re-parsing `command` (and a command that does
  /// not parse is rejected at definition, not at first firing).
  CompiledStatementPtr compiled_command;
  std::function<Status(Database&, const EvalScope&)> callback;
};

// Thread safety: the Database itself is NOT internally locked.  Concurrent
// use goes through caldb::Engine (src/engine/engine.h), which serializes
// statements with a reader/writer lock — any number of concurrent
// retrieves, exclusive DDL/DML/rule firings.  Under that discipline the
// only members mutated on the shared (read) path are the scan counters,
// which are atomics below.  Direct construction is supported for
// single-threaded library use and tests; servers should embed an Engine.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  FunctionRegistry& registry() { return registry_; }
  const FunctionRegistry& registry() const { return registry_; }

  Status CreateTable(const std::string& name, Schema schema);
  /// Removes a table.  Refused while an event rule references it.
  Status DropTable(const std::string& name);
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  std::vector<std::string> ListTables() const;

  /// Compiles and runs one statement with no bind list (a statement with
  /// $n placeholders fails the bind step).
  Result<QueryResult> Execute(const std::string& query);

  /// Compiles one statement into an immutable, shareable handle without
  /// executing it (db/compiled_statement.h).  A thin wrapper over
  /// CompileStatement; servers go through the Engine, whose shared
  /// StatementCache memoizes this per statement text.
  static Result<CompiledStatementPtr> Prepare(std::string_view query);

  /// How Run treats a statement.  kReplay is recovery (src/storage/):
  /// a WAL record re-executes through the same dispatch, but skips the
  /// statement metrics and the slow-statement log — replay latency is
  /// recovery throughput, not user latency.  Event rules fire exactly as
  /// they did originally; a statement that failed originally fails
  /// identically on replay (same state either way).
  enum class RunMode { kStatement, kReplay };

  /// Executes a compiled statement: the one execute path every statement
  /// takes — Execute, the Engine, rule actions, temporal-rule firings and
  /// recovery.  `bound` comes from BindParams (db/compiled_statement.h),
  /// which the caller runs first (the Engine before taking any lock), and
  /// may carry extra tuple bindings (NEW / CURRENT) for rule actions.
  /// Records caldb.db.statements, caldb.db.statement_ns, the db.execute
  /// span and the slow-statement log, which names `text` (the statement as
  /// its sender wrote it; empty: compiled.text); repeated runs of one
  /// handle never touch the parser.  `clock_ns` carries the caller's
  /// statement timeline: on entry the stamp the run starts at (0: untimed),
  /// on return the stamp it ended at — one clock read per run.  Without
  /// it (rule actions, temporal-rule firings, Execute) Run reads its own
  /// pair.
  Result<QueryResult> Run(const CompiledStatement& compiled,
                          const EvalScope& bound,
                          RunMode mode = RunMode::kStatement,
                          std::string_view text = {},
                          int64_t* clock_ns = nullptr);

  /// Statements slower than this are logged ("db.slow_statement", warn)
  /// and counted in caldb.db.slow_statements.  Process-wide; initialized
  /// from CALDB_SLOW_STMT_MS (default 20ms); <= 0 disables.
  static void SetSlowStatementThresholdNs(int64_t ns);
  static int64_t SlowStatementThresholdNs();

  // --- event rules ----------------------------------------------------------

  Status DefineRule(EventRule rule);
  Status DropRule(const std::string& name);
  std::vector<std::string> ListRules() const;
  /// The armed rules, in definition order (the snapshot writer serializes
  /// them; storage/snapshot.h).
  const std::vector<EventRule>& event_rules() const { return rules_; }

  /// Whether any retrieve-event rule is armed.  An atomic read: the
  /// Engine uses it to classify retrieves (a retrieve that can fire rules
  /// must take the exclusive lock, since rule actions may write).
  bool HasRetrieveRules() const {
    return retrieve_rules_.load(std::memory_order_acquire) > 0;
  }

  /// Whether ANY event rule is armed, whatever its event.  An atomic
  /// read: the Engine's per-table lock path requires this to be false for
  /// DML — a firing's action may touch tables outside the statement's
  /// compiled footprint, so any armed rule forces the global exclusive
  /// fallback (engine/lock_manager.h).
  bool HasEventRules() const {
    return total_rules_.load(std::memory_order_acquire) > 0;
  }

 private:
  // The access path CollectMatches / the join enumerator would take for
  // (table, var, where): the indexed int column and key range, or nullopt
  // for a full scan.  Shared by execution and EXPLAIN so the explanation
  // can never drift from what actually runs.
  struct IndexChoice {
    std::string column;
    int64_t lo = 0;
    int64_t hi = 0;
  };
  static std::optional<IndexChoice> ChooseIndex(
      const Table& table, const std::string& var, const DbExpr* where,
      const std::vector<Value>* params = nullptr);

  // The dispatch body behind Run.
  Result<QueryResult> Dispatch(const Statement& stmt, const EvalScope* ambient);

  Result<QueryResult> ExecuteExplain(const ExplainStmt& stmt,
                                     const EvalScope* ambient);
  // Renders the access plan of a parsed statement ("EXPLAIN" body).
  Result<std::string> DescribePlan(const Statement& stmt) const;

  Result<QueryResult> ExecuteRetrieve(const RetrieveStmt& stmt,
                                      const EvalScope* ambient);
  Result<QueryResult> ExecuteAppend(const AppendStmt& stmt,
                                    const EvalScope* ambient);
  Result<QueryResult> ExecuteReplace(const ReplaceStmt& stmt,
                                     const EvalScope* ambient);
  Result<QueryResult> ExecuteDelete(const DeleteStmt& stmt,
                                    const EvalScope* ambient);

  // Collects (rowid, row) pairs of `table` matching `where` under range
  // variable `var`, using an index when the where clause permits.
  Status CollectMatches(Table* table, const std::string& var,
                        const DbExpr* where, const EvalScope* ambient,
                        std::vector<std::pair<RowId, Row>>* out);

  Status FireRules(DbEvent event, const std::string& table,
                   const Schema& schema, const Row* new_row,
                   const Row* current_row);

  EvalScope MakeScope(const EvalScope* ambient) const;

  FunctionRegistry registry_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::vector<EventRule> rules_;
  // Count of armed kRetrieve rules; see HasRetrieveRules().
  std::atomic<int> retrieve_rules_{0};
  // Count of all armed rules; see HasEventRules().
  std::atomic<int> total_rules_{0};
  // Cascade depth.  Only touched when a rule matching (event, table)
  // exists, which forces the statement onto the exclusive path.
  int fire_depth_ = 0;
  static constexpr int kMaxRuleDepth = 16;
};

}  // namespace caldb

#endif  // CALDB_DB_DATABASE_H_
