// Statements of the Postquel-style query language of the DB substrate:
//
//   create table payroll (student text, week int, hours int)
//   create index on payroll (week)
//   append payroll (student = 'ann', week = 3, hours = 22)
//   retrieve (w.student, sum(w.hours) as total) from w in payroll
//       where w.week >= 1 group by w.student order by total desc
//   replace w in payroll (hours = 10) where w.student = 'ann'
//   delete w in payroll where w.week = 3
//   define rule r1 on append to payroll where NEW.hours > 20
//       do append alerts (student = NEW.student)
//   drop rule r1

#ifndef CALDB_DB_QUERY_H_
#define CALDB_DB_QUERY_H_

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/scanner.h"
#include "db/expression.h"
#include "db/schema.h"

namespace caldb {

/// The rule-triggering database operations (§4).
enum class DbEvent { kAppend, kDelete, kReplace, kRetrieve };

std::string_view DbEventName(DbEvent event);

struct RetrieveStmt {
  struct Target {
    DbExprPtr expr;
    std::string alias;  // output column name
  };
  struct TableRef {
    std::string var;
    std::string table;
  };
  std::vector<Target> targets;
  // Postquel's materialization: "retrieve into t (...) from ..." creates
  // table `into` holding the result (empty = return rows to the caller).
  std::string into;
  // One or more range variables; several form a join:
  //   retrieve (s.name) from s in students, w in work where s.name = w.name
  std::vector<TableRef> tables;
  DbExprPtr where;  // may be null
  // Grouping columns as (var, column); var may be "" when unambiguous.
  std::vector<std::pair<std::string, std::string>> group_by;
  std::vector<std::pair<std::string, bool>> order_by;  // (output column, asc)
};

struct AppendStmt {
  std::string table;
  std::vector<std::pair<std::string, DbExprPtr>> sets;
};

struct ReplaceStmt {
  std::string var;
  std::string table;
  std::vector<std::pair<std::string, DbExprPtr>> sets;
  DbExprPtr where;  // may be null
};

struct DeleteStmt {
  std::string var;
  std::string table;
  DbExprPtr where;  // may be null
};

struct CreateTableStmt {
  std::string table;
  std::vector<Column> columns;
};

struct CreateIndexStmt {
  std::string table;
  std::string column;
};

struct DefineRuleStmt {
  std::string name;
  DbEvent event = DbEvent::kAppend;
  std::string table;
  DbExprPtr where;  // may be null; NEW/CURRENT are in scope
  std::string action_command;  // a statement executed when the rule fires
};

struct DropRuleStmt {
  std::string name;
};

struct DropTableStmt {
  std::string table;
};

struct CompiledStatement;  // db/compiled_statement.h

/// `explain <stmt>` / `profile <stmt>`.  The inner statement is compiled
/// exactly once at parse time and the handle shared here (the variant
/// stays non-recursive — the indirection is through the shared_ptr), so
/// plan rendering and the PROFILE timed run reuse one parse.
/// EXPLAIN describes the access plan (index vs full scan per range
/// variable, pushed-down conjuncts, rules armed); PROFILE additionally
/// executes the statement and reports scan counters and latency.
struct ExplainStmt {
  bool profile = false;
  std::string query;  // inner statement source (inner->text when compiled)
  std::shared_ptr<const CompiledStatement> inner;
};

using Statement =
    std::variant<RetrieveStmt, AppendStmt, ReplaceStmt, DeleteStmt,
                 CreateTableStmt, CreateIndexStmt, DefineRuleStmt, DropRuleStmt,
                 DropTableStmt, ExplainStmt>;

/// Parses one statement.  `tokens` are `query`'s own when the caller has
/// scanned it already (CompileStatement hands over a lifted shape's);
/// empty means scan here.
Result<Statement> ParseStatement(std::string_view query,
                                 std::vector<Token> tokens = {});

/// Parses a standalone expression (used by rule conditions and tests).
Result<DbExprPtr> ParseDbExpression(std::string_view text);

}  // namespace caldb

#endif  // CALDB_DB_QUERY_H_
