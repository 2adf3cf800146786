#include "db/database.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>

#include "common/macros.h"
#include "common/strings.h"
#include "obs/obs.h"

namespace caldb {

namespace {

// The DB substrate's scan and rule counters and the per-statement latency
// histogram.  Looked up once; see docs/OBSERVABILITY.md.
struct DbMetrics {
  obs::Counter* statements = obs::Metrics().counter("caldb.db.statements");
  obs::Counter* rows_scanned =
      obs::Metrics().counter("caldb.db.rows_scanned");
  obs::Counter* index_scans = obs::Metrics().counter("caldb.db.index_scans");
  obs::Counter* full_scans = obs::Metrics().counter("caldb.db.full_scans");
  obs::Counter* rules_fired = obs::Metrics().counter("caldb.db.rules_fired");
  obs::Counter* slow_statements =
      obs::Metrics().counter("caldb.db.slow_statements");
  obs::Histogram* statement_ns =
      obs::Metrics().histogram("caldb.db.statement_ns");
};

DbMetrics& Metrics() {
  static DbMetrics* m = new DbMetrics();
  return *m;
}

int64_t InitialSlowThresholdNs() {
  constexpr int64_t kDefaultNs = 20 * 1000 * 1000;  // 20ms
  const char* env = std::getenv("CALDB_SLOW_STMT_MS");
  if (env == nullptr || *env == '\0') return kDefaultNs;
  char* end = nullptr;
  long ms = std::strtol(env, &end, 10);
  if (end == env) return kDefaultNs;
  return static_cast<int64_t>(ms) * 1000 * 1000;
}

std::atomic<int64_t>& SlowThresholdNs() {
  static std::atomic<int64_t> ns{InitialSlowThresholdNs()};
  return ns;
}

}  // namespace

void Database::SetSlowStatementThresholdNs(int64_t ns) {
  SlowThresholdNs().store(ns, std::memory_order_relaxed);
}

int64_t Database::SlowStatementThresholdNs() {
  return SlowThresholdNs().load(std::memory_order_relaxed);
}

std::string QueryResult::ToString() const {
  if (columns.empty()) {
    return message.empty() ? "(" + std::to_string(affected) + " rows affected)"
                           : message;
  }
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns[i];
  }
  out += "\n";
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

Status Database::CreateTable(const std::string& name, Schema schema) {
  if (name.empty()) {
    return Status::InvalidArgument("table name must not be empty");
  }
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  tables_[name] = std::make_unique<Table>(name, std::move(schema));
  return Status::OK();
}

Status Database::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  for (const EventRule& rule : rules_) {
    if (rule.table == name) {
      return Status::InvalidArgument("table '" + name +
                                     "' is referenced by rule '" + rule.name +
                                     "'");
    }
  }
  tables_.erase(it);
  return Status::OK();
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second.get();
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return static_cast<const Table*>(it->second.get());
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

std::vector<std::string> Database::ListTables() const {
  std::vector<std::string> names;
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

EvalScope Database::MakeScope(const EvalScope* ambient) const {
  EvalScope scope;
  scope.registry = &registry_;
  if (ambient != nullptr) {
    scope.tuples = ambient->tuples;
    scope.params = ambient->params;
  }
  return scope;
}

Result<QueryResult> Database::Execute(const std::string& query) {
  CALDB_ASSIGN_OR_RETURN(CompiledStatementPtr compiled,
                         CompileStatement(query));
  CALDB_ASSIGN_OR_RETURN(EvalScope bound, BindParams(*compiled, nullptr));
  return Run(*compiled, bound);
}

Result<CompiledStatementPtr> Database::Prepare(std::string_view query) {
  return CompileStatement(query);
}

Result<QueryResult> Database::Run(const CompiledStatement& compiled,
                                  const EvalScope& bound, RunMode mode,
                                  std::string_view text, int64_t* clock_ns) {
  if (mode == RunMode::kReplay) return Dispatch(*compiled.stmt, &bound);
  Metrics().statements->Increment();
  // The run starts at the caller's stamp when it passes one (the engine's
  // lock-granted read), else at a read of its own; one more read at the
  // end feeds the span, the latency histogram and the slow-statement log.
  const int64_t start_ns = obs::PhaseStart(clock_ns);
  if (start_ns == 0) return Dispatch(*compiled.stmt, &bound);
  obs::Tracer::Span span = obs::StartSpan("db.execute", start_ns);
  Result<QueryResult> result = Dispatch(*compiled.stmt, &bound);
  const int64_t end_ns =
      obs::PhaseEnd(start_ns, Metrics().statement_ns, clock_ns);
  span.End(end_ns);
  const int64_t elapsed_ns = end_ns - start_ns;
  const int64_t threshold_ns = SlowStatementThresholdNs();
  if (threshold_ns > 0 && elapsed_ns >= threshold_ns) {
    Metrics().slow_statements->Increment();
    obs::LogEvent(obs::LogLevel::kWarn, "db.slow_statement",
                  {{"stmt", text.empty() ? compiled.text : text},
                   {"elapsed_ms", static_cast<double>(elapsed_ns) / 1e6},
                   {"threshold_ms", static_cast<double>(threshold_ns) / 1e6},
                   {"ok", result.ok()}});
  }
  return result;
}

Result<QueryResult> Database::Dispatch(const Statement& stmt,
                                       const EvalScope* ambient) {
  if (const auto* retrieve = std::get_if<RetrieveStmt>(&stmt)) {
    return ExecuteRetrieve(*retrieve, ambient);
  }
  if (const auto* append = std::get_if<AppendStmt>(&stmt)) {
    return ExecuteAppend(*append, ambient);
  }
  if (const auto* replace = std::get_if<ReplaceStmt>(&stmt)) {
    return ExecuteReplace(*replace, ambient);
  }
  if (const auto* del = std::get_if<DeleteStmt>(&stmt)) {
    return ExecuteDelete(*del, ambient);
  }
  if (const auto* create = std::get_if<CreateTableStmt>(&stmt)) {
    CALDB_ASSIGN_OR_RETURN(Schema schema, Schema::Make(create->columns));
    CALDB_RETURN_IF_ERROR(CreateTable(create->table, std::move(schema)));
    QueryResult result;
    result.message = "created table " + create->table;
    return result;
  }
  if (const auto* index = std::get_if<CreateIndexStmt>(&stmt)) {
    CALDB_ASSIGN_OR_RETURN(Table * table, GetTable(index->table));
    CALDB_RETURN_IF_ERROR(table->CreateIndex(index->column));
    QueryResult result;
    result.message = "created index on " + index->table + "(" + index->column + ")";
    return result;
  }
  if (const auto* rule = std::get_if<DefineRuleStmt>(&stmt)) {
    EventRule event_rule;
    event_rule.name = rule->name;
    event_rule.event = rule->event;
    event_rule.table = rule->table;
    event_rule.where = rule->where;
    event_rule.command = rule->action_command;
    CALDB_RETURN_IF_ERROR(DefineRule(std::move(event_rule)));
    QueryResult result;
    result.message = "defined rule " + rule->name;
    return result;
  }
  if (const auto* drop = std::get_if<DropRuleStmt>(&stmt)) {
    CALDB_RETURN_IF_ERROR(DropRule(drop->name));
    QueryResult result;
    result.message = "dropped rule " + drop->name;
    return result;
  }
  if (const auto* drop_table = std::get_if<DropTableStmt>(&stmt)) {
    CALDB_RETURN_IF_ERROR(DropTable(drop_table->table));
    QueryResult result;
    result.message = "dropped table " + drop_table->table;
    return result;
  }
  if (const auto* explain = std::get_if<ExplainStmt>(&stmt)) {
    return ExecuteExplain(*explain, ambient);
  }
  return Status::Internal("unhandled statement kind");
}

std::optional<Database::IndexChoice> Database::ChooseIndex(
    const Table& table, const std::string& var, const DbExpr* where,
    const std::vector<Value>* params) {
  if (where == nullptr) return std::nullopt;
  for (const Column& column : table.schema().columns()) {
    if (column.type != ValueType::kInt) continue;
    if (!table.HasIndex(column.name)) continue;
    std::optional<std::pair<int64_t, int64_t>> range =
        ExtractIndexRange(*where, var, column.name, params);
    if (!range.has_value()) continue;
    return IndexChoice{column.name, range->first, range->second};
  }
  return std::nullopt;
}

Status Database::CollectMatches(Table* table, const std::string& var,
                                const DbExpr* where, const EvalScope* ambient,
                                std::vector<std::pair<RowId, Row>>* out) {
  EvalScope scope = MakeScope(ambient);
  Status visit_status = Status::OK();
  auto visit = [&](RowId id, const Row& row) {
    Metrics().rows_scanned->Increment();
    if (where != nullptr) {
      scope.tuples[var] = TupleBinding{&table->schema(), &row};
      Result<Value> cond = EvalDbExpr(*where, scope);
      if (!cond.ok()) {
        visit_status = cond.status();
        return false;
      }
      Result<bool> truth = cond->Truthy();
      if (!truth.ok()) {
        visit_status = truth.status();
        return false;
      }
      if (!*truth) return true;
    }
    out->emplace_back(id, row);
    return true;
  };

  // Try index acceleration: any indexed int column constrained by `where`
  // — by a constant, or by a placeholder whose value is bound this call.
  if (std::optional<IndexChoice> choice =
          ChooseIndex(*table, var, where, scope.params)) {
    Metrics().index_scans->Increment();
    CALDB_RETURN_IF_ERROR(
        table->IndexScan(choice->column, choice->lo, choice->hi, visit));
    return visit_status;
  }
  Metrics().full_scans->Increment();
  table->Scan(visit);
  return visit_status;
}

Status Database::FireRules(DbEvent event, const std::string& table,
                           const Schema& schema, const Row* new_row,
                           const Row* current_row) {
  // Match before touching any mutable state: retrieves run concurrently
  // under the Engine's shared lock when no retrieve rule is armed, and on
  // that path this function must stay read-only.
  bool any_match = false;
  for (const EventRule& rule : rules_) {
    if (rule.event == event && rule.table == table) {
      any_match = true;
      break;
    }
  }
  if (!any_match) return Status::OK();
  if (fire_depth_ >= kMaxRuleDepth) {
    return Status::EvalError("rule cascade exceeds depth " +
                             std::to_string(kMaxRuleDepth));
  }
  ++fire_depth_;
  Status status = Status::OK();
  for (const EventRule& rule : rules_) {
    if (rule.event != event || rule.table != table) continue;
    EvalScope scope;
    scope.registry = &registry_;
    if (new_row != nullptr) {
      scope.tuples["NEW"] = TupleBinding{&schema, new_row};
    }
    if (current_row != nullptr) {
      scope.tuples["CURRENT"] = TupleBinding{&schema, current_row};
    }
    if (rule.where != nullptr) {
      Result<Value> cond = EvalDbExpr(*rule.where, scope);
      if (!cond.ok()) {
        status = cond.status().WithContext("rule " + rule.name);
        break;
      }
      Result<bool> truth = cond->Truthy();
      if (!truth.ok() || !*truth) {
        if (!truth.ok()) {
          status = truth.status().WithContext("rule " + rule.name);
          break;
        }
        continue;
      }
    }
    Metrics().rules_fired->Increment();
    const int64_t action_start_ns = obs::NowNs();
    if (rule.callback) {
      status = rule.callback(*this, scope);
    } else {
      // The pre-compiled action (DefineRule compiles every command and
      // rejects placeholders, so NEW/CURRENT is the whole binding):
      // firings never parse.
      status = Run(*rule.compiled_command, scope).status();
    }
    {
      // The thread's LogContext still carries the outermost triggering
      // statement/session here (nested rule-command Executes don't reset
      // it), so cascaded firings attribute to the statement the user ran.
      const obs::LogContext& ctx = obs::CurrentLogContext();
      obs::AuditRecord record;
      record.source = obs::AuditRecord::Source::kStatement;
      record.rule = rule.name;
      record.duration_ns = obs::NowNs() - action_start_ns;
      record.session_id = ctx.session_id;
      record.trigger = ctx.statement;
      if (!status.ok()) {
        record.outcome = obs::AuditRecord::Outcome::kError;
        record.error = status.ToString();
      }
      obs::Audit().Record(std::move(record));
    }
    if (!status.ok()) {
      status = status.WithContext("rule " + rule.name);
      break;
    }
  }
  --fire_depth_;
  return status;
}

Status Database::DefineRule(EventRule rule) {
  if (rule.name.empty()) {
    return Status::InvalidArgument("rule name must not be empty");
  }
  for (const EventRule& existing : rules_) {
    if (existing.name == rule.name) {
      return Status::AlreadyExists("rule '" + rule.name + "' already exists");
    }
  }
  if (!HasTable(rule.table)) {
    return Status::NotFound("rule table '" + rule.table + "' does not exist");
  }
  if (!rule.callback && rule.command.empty()) {
    return Status::InvalidArgument("rule '" + rule.name + "' has no action");
  }
  if (!rule.command.empty() && rule.compiled_command == nullptr) {
    // Fail fast: an action that does not parse is an error here, at
    // definition time, not at the rule's first firing.  The compiled
    // handle is what firings execute.
    Result<CompiledStatementPtr> compiled = CompileStatement(rule.command);
    if (!compiled.ok()) {
      return compiled.status().WithContext("rule '" + rule.name +
                                           "' action does not parse");
    }
    rule.compiled_command = *std::move(compiled);
  }
  if (rule.compiled_command != nullptr &&
      rule.compiled_command->param_count > 0) {
    // Firings evaluate actions in a fresh NEW/CURRENT scope with no bind
    // list; a placeholder could never be bound.  Reject at definition.
    return Status::InvalidArgument(
        "rule '" + rule.name + "' action uses placeholders " +
        RenderParamSignature(*rule.compiled_command) +
        "; event-rule actions cannot take parameters");
  }
  if (rule.event == DbEvent::kRetrieve) {
    retrieve_rules_.fetch_add(1, std::memory_order_release);
  }
  total_rules_.fetch_add(1, std::memory_order_release);
  rules_.push_back(std::move(rule));
  return Status::OK();
}

Status Database::DropRule(const std::string& name) {
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if (it->name == name) {
      if (it->event == DbEvent::kRetrieve) {
        retrieve_rules_.fetch_sub(1, std::memory_order_release);
      }
      total_rules_.fetch_sub(1, std::memory_order_release);
      rules_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no rule named '" + name + "'");
}

std::vector<std::string> Database::ListRules() const {
  std::vector<std::string> names;
  names.reserve(rules_.size());
  for (const EventRule& rule : rules_) names.push_back(rule.name);
  return names;
}

namespace {

// Aggregate accumulator for one (target, group).
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool sum_is_int = true;
  int64_t sum_int = 0;
  Value min;
  Value max;
};

// Group key: rendered group-by values (order matters).
std::string GroupKey(const std::vector<Value>& values) {
  std::string key;
  for (const Value& v : values) {
    key += v.ToString();
    key += '\x1f';
  }
  return key;
}

}  // namespace

namespace {

// Collects the range variables an expression references.  An unqualified
// column reference could bind to any table, so it references all of them.
void CollectVars(const DbExpr& e, const std::vector<std::string>& all_vars,
                 std::set<std::string>* out) {
  if (e.kind == DbExpr::Kind::kColumnRef) {
    if (e.var.empty()) {
      out->insert(all_vars.begin(), all_vars.end());
    } else {
      out->insert(e.var);
    }
    return;
  }
  if (e.lhs) CollectVars(*e.lhs, all_vars, out);
  if (e.rhs) CollectVars(*e.rhs, all_vars, out);
  for (const DbExprPtr& arg : e.args) CollectVars(*arg, all_vars, out);
}

// Flattens the AND-tree of a where clause into conjuncts.
void FlattenConjuncts(const DbExprPtr& e, std::vector<const DbExpr*>* out) {
  if (e == nullptr) return;
  if (e->kind == DbExpr::Kind::kLogical && e->log == LogOp::kAnd) {
    FlattenConjuncts(e->lhs, out);
    FlattenConjuncts(e->rhs, out);
    return;
  }
  out->push_back(e.get());
}

}  // namespace

Result<QueryResult> Database::ExecuteRetrieve(const RetrieveStmt& stmt,
                                              const EvalScope* ambient) {
  if (stmt.tables.empty()) {
    return Status::InvalidArgument("retrieve needs at least one table");
  }
  // Resolve the sources.
  std::vector<Table*> tables;
  std::vector<std::string> vars;
  for (const RetrieveStmt::TableRef& ref : stmt.tables) {
    CALDB_ASSIGN_OR_RETURN(Table * table, GetTable(ref.table));
    tables.push_back(table);
    vars.push_back(ref.var);
  }

  // Predicate pushdown into the nested-loop join: each conjunct is
  // evaluated at the innermost level where all its variables are bound.
  std::vector<const DbExpr*> conjuncts;
  FlattenConjuncts(stmt.where, &conjuncts);
  std::vector<std::vector<const DbExpr*>> conjuncts_at(stmt.tables.size());
  for (const DbExpr* conjunct : conjuncts) {
    std::set<std::string> used;
    CollectVars(*conjunct, vars, &used);
    size_t level = 0;
    for (size_t k = 0; k < vars.size(); ++k) {
      if (used.count(vars[k]) > 0) level = std::max(level, k);
    }
    conjuncts_at[level].push_back(conjunct);
  }

  const bool aggregating =
      !stmt.group_by.empty() ||
      std::any_of(stmt.targets.begin(), stmt.targets.end(),
                  [](const RetrieveStmt::Target& t) {
                    return ContainsAggregate(*t.expr);
                  });

  QueryResult result;
  for (const RetrieveStmt::Target& target : stmt.targets) {
    result.columns.push_back(target.alias);
  }

  // Aggregation validation + state.
  if (aggregating) {
    for (const RetrieveStmt::Target& target : stmt.targets) {
      const DbExpr& e = *target.expr;
      const bool is_agg =
          e.kind == DbExpr::Kind::kCall && IsAggregateName(e.fn_name);
      const bool is_group_col =
          e.kind == DbExpr::Kind::kColumnRef &&
          std::any_of(stmt.group_by.begin(), stmt.group_by.end(),
                      [&e](const std::pair<std::string, std::string>& g) {
                        return g.second == e.column &&
                               (g.first.empty() || e.var.empty() ||
                                g.first == e.var);
                      });
      if (!is_agg && !is_group_col) {
        return Status::InvalidArgument(
            "target '" + e.ToString() +
            "' must be an aggregate or a group-by column");
      }
      if (is_agg && e.args.size() > 1) {
        return Status::InvalidArgument("aggregate '" + e.fn_name +
                                       "' takes at most one argument");
      }
    }
  }
  std::map<std::string, std::pair<Row, std::vector<AggState>>> groups;
  std::vector<std::string> group_order;

  EvalScope scope = MakeScope(ambient);
  // Rows currently bound at each join level (stable storage for bindings).
  std::vector<Row> bound_rows(stmt.tables.size());
  // Tuples touched, for retrieve-rule firing (deduplicated).
  std::set<std::pair<std::string, RowId>> touched;

  // Group-by columns resolve to (level, column index) pairs.
  struct GroupCol {
    size_t level;
    size_t column;
  };
  std::vector<GroupCol> group_cols;
  for (const auto& [var, column] : stmt.group_by) {
    bool found = false;
    for (size_t k = 0; k < vars.size(); ++k) {
      if (!var.empty() && vars[k] != var) continue;
      Result<size_t> idx = tables[k]->schema().IndexOf(column);
      if (!idx.ok()) {
        if (!var.empty()) return idx.status();
        continue;
      }
      group_cols.push_back(GroupCol{k, *idx});
      found = true;
      break;
    }
    if (!found) {
      return Status::NotFound("group by column '" + column + "' not found");
    }
  }

  // One fully bound combination: emit a row or feed the aggregates.
  auto emit = [&]() -> Status {
    if (!aggregating) {
      Row out;
      out.reserve(stmt.targets.size());
      for (const RetrieveStmt::Target& target : stmt.targets) {
        CALDB_ASSIGN_OR_RETURN(Value v, EvalDbExpr(*target.expr, scope));
        out.push_back(std::move(v));
      }
      result.rows.push_back(std::move(out));
      return Status::OK();
    }
    std::vector<Value> key_values;
    key_values.reserve(group_cols.size());
    for (const GroupCol& g : group_cols) {
      key_values.push_back(bound_rows[g.level][g.column]);
    }
    std::string key = GroupKey(key_values);
    auto [it, inserted] = groups.try_emplace(
        key, Row{}, std::vector<AggState>(stmt.targets.size()));
    if (inserted) {
      it->second.first = key_values;
      group_order.push_back(key);
    }
    std::vector<AggState>& states = it->second.second;
    for (size_t t = 0; t < stmt.targets.size(); ++t) {
      const DbExpr& e = *stmt.targets[t].expr;
      if (e.kind != DbExpr::Kind::kCall || !IsAggregateName(e.fn_name)) {
        continue;
      }
      Value v = Value::Null();
      if (!e.args.empty()) {
        CALDB_ASSIGN_OR_RETURN(v, EvalDbExpr(*e.args[0], scope));
        if (v.is_null()) continue;  // nulls are ignored by aggregates
      }
      AggState& state = states[t];
      ++state.count;
      if (!e.args.empty() &&
          (v.type() == ValueType::kInt || v.type() == ValueType::kFloat)) {
        if (v.type() == ValueType::kInt) {
          state.sum_int += v.AsInt().value();
        } else {
          state.sum_is_int = false;
        }
        state.sum += v.AsFloat().value();
      }
      if (state.min.is_null()) {
        state.min = v;
        state.max = v;
      } else if (!v.is_null()) {
        Result<int> cmp_min = v.Compare(state.min);
        if (cmp_min.ok() && *cmp_min < 0) state.min = v;
        Result<int> cmp_max = v.Compare(state.max);
        if (cmp_max.ok() && *cmp_max > 0) state.max = v;
      }
    }
    return Status::OK();
  };

  // Recursive nested-loop enumeration with per-level filtering; level 0
  // may use an index range extracted from the where clause.
  std::function<Status(size_t)> enumerate = [&](size_t level) -> Status {
    if (level == stmt.tables.size()) return emit();
    Table* table = tables[level];
    Status inner_status = Status::OK();
    auto visit = [&](RowId id, const Row& row) {
      Metrics().rows_scanned->Increment();
      bound_rows[level] = row;
      scope.tuples[vars[level]] =
          TupleBinding{&table->schema(), &bound_rows[level]};
      for (const DbExpr* conjunct : conjuncts_at[level]) {
        Result<Value> cond = EvalDbExpr(*conjunct, scope);
        if (!cond.ok()) {
          inner_status = cond.status();
          return false;
        }
        Result<bool> truth = cond->Truthy();
        if (!truth.ok()) {
          inner_status = truth.status();
          return false;
        }
        if (!*truth) return true;  // filtered out; next row
      }
      touched.emplace(stmt.tables[level].table, id);
      inner_status = enumerate(level + 1);
      return inner_status.ok();
    };
    if (std::optional<IndexChoice> choice =
            ChooseIndex(*table, vars[level], stmt.where.get(),
                        scope.params)) {
      Metrics().index_scans->Increment();
      CALDB_RETURN_IF_ERROR(
          table->IndexScan(choice->column, choice->lo, choice->hi, visit));
      return inner_status;
    }
    Metrics().full_scans->Increment();
    table->Scan(visit);
    return inner_status;
  };
  CALDB_RETURN_IF_ERROR(enumerate(0));

  if (aggregating) {
    // Emit one row per group, in first-seen order.
    for (const std::string& key : group_order) {
      auto& [key_values, states] = groups[key];
      Row out;
      for (size_t t = 0; t < stmt.targets.size(); ++t) {
        const DbExpr& e = *stmt.targets[t].expr;
        if (e.kind == DbExpr::Kind::kColumnRef) {
          // Position of the column in the group-by key.
          size_t pos = 0;
          for (size_t g = 0; g < stmt.group_by.size(); ++g) {
            if (stmt.group_by[g].second == e.column &&
                (stmt.group_by[g].first.empty() || e.var.empty() ||
                 stmt.group_by[g].first == e.var)) {
              pos = g;
              break;
            }
          }
          out.push_back(key_values[pos]);
          continue;
        }
        const AggState& state = states[t];
        std::string agg = AsciiToLower(e.fn_name);
        if (agg == "count") {
          out.push_back(Value::Int(state.count));
        } else if (agg == "sum") {
          out.push_back(state.sum_is_int ? Value::Int(state.sum_int)
                                         : Value::Float(state.sum));
        } else if (agg == "avg") {
          out.push_back(state.count == 0
                            ? Value::Null()
                            : Value::Float(state.sum /
                                           static_cast<double>(state.count)));
        } else if (agg == "min") {
          out.push_back(state.min);
        } else {
          out.push_back(state.max);
        }
      }
      result.rows.push_back(std::move(out));
    }
  }

  // order by named output columns.
  if (!stmt.order_by.empty()) {
    std::vector<size_t> order_idx;
    std::vector<bool> order_asc;
    for (const auto& [column, asc] : stmt.order_by) {
      auto it = std::find(result.columns.begin(), result.columns.end(), column);
      if (it == result.columns.end()) {
        return Status::InvalidArgument("order by column '" + column +
                                       "' is not in the target list");
      }
      order_idx.push_back(static_cast<size_t>(it - result.columns.begin()));
      order_asc.push_back(asc);
    }
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [&](const Row& a, const Row& b) {
                       for (size_t k = 0; k < order_idx.size(); ++k) {
                         Result<int> cmp = a[order_idx[k]].Compare(b[order_idx[k]]);
                         int c = cmp.ok() ? *cmp : 0;
                         if (c != 0) return order_asc[k] ? c < 0 : c > 0;
                       }
                       return false;
                     });
  }

  // Postquel's "retrieve into": materialize the result as a new table.
  if (!stmt.into.empty()) {
    std::vector<Column> columns;
    for (size_t c = 0; c < result.columns.size(); ++c) {
      ValueType type = ValueType::kText;  // all-null columns default to text
      for (const Row& row : result.rows) {
        if (!row[c].is_null()) {
          type = row[c].type();
          break;
        }
      }
      columns.push_back(Column{result.columns[c], type});
    }
    CALDB_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(columns)));
    CALDB_RETURN_IF_ERROR(CreateTable(stmt.into, std::move(schema)));
    CALDB_ASSIGN_OR_RETURN(Table * into_table, GetTable(stmt.into));
    for (Row& row : result.rows) {
      CALDB_RETURN_IF_ERROR(into_table->Insert(std::move(row)).status());
    }
    int64_t materialized = static_cast<int64_t>(result.rows.size());
    result = QueryResult{};
    result.affected = materialized;
    result.message = "retrieved " + std::to_string(materialized) +
                     " rows into " + stmt.into;
  }

  // Fire retrieve rules once per accessed tuple of each table.
  for (const auto& [table_name, id] : touched) {
    CALDB_ASSIGN_OR_RETURN(Table * touched_table, GetTable(table_name));
    Result<Row> row = touched_table->Get(id);
    if (!row.ok()) continue;  // deleted mid-statement by a rule
    CALDB_RETURN_IF_ERROR(FireRules(DbEvent::kRetrieve, table_name,
                                    touched_table->schema(), nullptr,
                                    &row.value()));
  }
  if (stmt.into.empty()) {
    result.affected = static_cast<int64_t>(result.rows.size());
  }
  return result;
}

Result<QueryResult> Database::ExecuteAppend(const AppendStmt& stmt,
                                            const EvalScope* ambient) {
  CALDB_ASSIGN_OR_RETURN(Table * table, GetTable(stmt.table));
  const Schema& schema = table->schema();
  Row row(schema.size(), Value::Null());
  EvalScope scope = MakeScope(ambient);
  std::vector<bool> assigned(schema.size(), false);
  for (const auto& [column, expr] : stmt.sets) {
    CALDB_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(column));
    if (assigned[idx]) {
      return Status::InvalidArgument("column '" + column + "' set twice");
    }
    assigned[idx] = true;
    CALDB_ASSIGN_OR_RETURN(row[idx], EvalDbExpr(*expr, scope));
  }
  CALDB_ASSIGN_OR_RETURN(RowId id, table->Insert(row));
  (void)id;
  CALDB_RETURN_IF_ERROR(
      FireRules(DbEvent::kAppend, stmt.table, schema, &row, nullptr));
  QueryResult result;
  result.affected = 1;
  result.message = "appended 1 row to " + stmt.table;
  return result;
}

Result<QueryResult> Database::ExecuteReplace(const ReplaceStmt& stmt,
                                             const EvalScope* ambient) {
  CALDB_ASSIGN_OR_RETURN(Table * table, GetTable(stmt.table));
  const Schema& schema = table->schema();
  // Validate the set list up front, even when no row matches.
  for (const auto& [column, expr] : stmt.sets) {
    CALDB_RETURN_IF_ERROR(schema.IndexOf(column).status());
  }
  std::vector<std::pair<RowId, Row>> matches;
  CALDB_RETURN_IF_ERROR(
      CollectMatches(table, stmt.var, stmt.where.get(), ambient, &matches));
  EvalScope scope = MakeScope(ambient);
  for (const auto& [id, old_row] : matches) {
    scope.tuples[stmt.var] = TupleBinding{&schema, &old_row};
    Row new_row = old_row;
    for (const auto& [column, expr] : stmt.sets) {
      CALDB_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(column));
      CALDB_ASSIGN_OR_RETURN(new_row[idx], EvalDbExpr(*expr, scope));
    }
    CALDB_RETURN_IF_ERROR(table->Update(id, new_row));
    CALDB_RETURN_IF_ERROR(
        FireRules(DbEvent::kReplace, stmt.table, schema, &new_row, &old_row));
  }
  QueryResult result;
  result.affected = static_cast<int64_t>(matches.size());
  result.message = "replaced " + std::to_string(matches.size()) + " rows in " +
                   stmt.table;
  return result;
}

Result<QueryResult> Database::ExecuteDelete(const DeleteStmt& stmt,
                                            const EvalScope* ambient) {
  CALDB_ASSIGN_OR_RETURN(Table * table, GetTable(stmt.table));
  std::vector<std::pair<RowId, Row>> matches;
  CALDB_RETURN_IF_ERROR(
      CollectMatches(table, stmt.var, stmt.where.get(), ambient, &matches));
  for (const auto& [id, row] : matches) {
    CALDB_RETURN_IF_ERROR(
        FireRules(DbEvent::kDelete, stmt.table, table->schema(), nullptr, &row));
    CALDB_RETURN_IF_ERROR(table->Delete(id));
  }
  QueryResult result;
  result.affected = static_cast<int64_t>(matches.size());
  result.message = "deleted " + std::to_string(matches.size()) + " rows from " +
                   stmt.table;
  return result;
}

namespace {

std::string RangeToString(int64_t lo, int64_t hi) {
  return "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

}  // namespace

Result<std::string> Database::DescribePlan(const Statement& stmt) const {
  std::string out;
  auto describe_scan = [&](const Table& table, const std::string& var,
                           const DbExpr* where) {
    std::optional<IndexChoice> choice = ChooseIndex(table, var, where);
    out += "  scan " + var + " in " + table.name();
    if (choice.has_value()) {
      out += ": index scan on (" + choice->column + ") range " +
             RangeToString(choice->lo, choice->hi);
    } else {
      out += ": full scan (" + std::to_string(table.size()) + " rows)";
    }
    out += "\n";
  };
  auto describe_rules = [&](DbEvent event, const std::string& table) {
    int armed = 0;
    for (const EventRule& rule : rules_) {
      if (rule.event == event && rule.table == table) ++armed;
    }
    if (armed > 0) {
      out += "  rules armed on " + std::string(DbEventName(event)) + " " +
             table + ": " + std::to_string(armed) + "\n";
    }
  };

  if (const auto* retrieve = std::get_if<RetrieveStmt>(&stmt)) {
    out += "retrieve: nested-loop join over " +
           std::to_string(retrieve->tables.size()) + " range variable" +
           (retrieve->tables.size() == 1 ? "" : "s") + "\n";
    for (const RetrieveStmt::TableRef& ref : retrieve->tables) {
      CALDB_ASSIGN_OR_RETURN(const Table* table, GetTable(ref.table));
      describe_scan(*table, ref.var, retrieve->where.get());
      describe_rules(DbEvent::kRetrieve, ref.table);
    }
    if (!retrieve->group_by.empty()) {
      out += "  group by " + std::to_string(retrieve->group_by.size()) +
             " column" + (retrieve->group_by.size() == 1 ? "" : "s") + "\n";
    }
    if (!retrieve->order_by.empty()) {
      out += "  sort by " + std::to_string(retrieve->order_by.size()) +
             " column" + (retrieve->order_by.size() == 1 ? "" : "s") + "\n";
    }
    if (!retrieve->into.empty()) {
      out += "  materialize into " + retrieve->into + "\n";
    }
    return out;
  }
  if (const auto* replace = std::get_if<ReplaceStmt>(&stmt)) {
    out += "replace in " + replace->table + "\n";
    CALDB_ASSIGN_OR_RETURN(const Table* table, GetTable(replace->table));
    describe_scan(*table, replace->var, replace->where.get());
    describe_rules(DbEvent::kReplace, replace->table);
    return out;
  }
  if (const auto* del = std::get_if<DeleteStmt>(&stmt)) {
    out += "delete from " + del->table + "\n";
    CALDB_ASSIGN_OR_RETURN(const Table* table, GetTable(del->table));
    describe_scan(*table, del->var, del->where.get());
    describe_rules(DbEvent::kDelete, del->table);
    return out;
  }
  if (const auto* append = std::get_if<AppendStmt>(&stmt)) {
    out += "append 1 row to " + append->table + "\n";
    describe_rules(DbEvent::kAppend, append->table);
    return out;
  }
  if (std::holds_alternative<ExplainStmt>(stmt)) {
    return Status::InvalidArgument("explain of an explain statement");
  }
  // DDL and rule management have no access plan.
  out += "utility statement (no access plan)\n";
  return out;
}

Result<QueryResult> Database::ExecuteExplain(const ExplainStmt& stmt,
                                             const EvalScope* ambient) {
  // One compiled handle serves both the plan rendering and the PROFILE
  // timed run.  The parse-time handle is reused when present; only a
  // hand-built ExplainStmt (inner == nullptr) compiles here.
  CompiledStatementPtr inner = stmt.inner;
  if (inner == nullptr) {
    CALDB_ASSIGN_OR_RETURN(inner, CompileStatement(stmt.query));
  }
  QueryResult result;
  CALDB_ASSIGN_OR_RETURN(result.message, DescribePlan(*inner->stmt));
  if (!stmt.profile) return result;

  // Deltas of the registry counters around the run (process-wide, so a
  // statement running concurrently in another session counts too).
  DbMetrics& m = Metrics();
  const int64_t rows_before = m.rows_scanned->value();
  const int64_t index_before = m.index_scans->value();
  const int64_t full_before = m.full_scans->value();
  const int64_t rules_before = m.rules_fired->value();
  const int64_t t0 = obs::NowNs();
  CALDB_ASSIGN_OR_RETURN(QueryResult run, Dispatch(*inner->stmt, ambient));
  const int64_t ns = obs::NowNs() - t0;

  result.message += "profile: rows_scanned=" +
                    std::to_string(m.rows_scanned->value() - rows_before) +
                    " index_scans=" +
                    std::to_string(m.index_scans->value() - index_before) +
                    " full_scans=" +
                    std::to_string(m.full_scans->value() - full_before) +
                    " rules_fired=" +
                    std::to_string(m.rules_fired->value() - rules_before) +
                    " rows_out=" + std::to_string(run.affected) + " time=" +
                    std::to_string(ns / 1000) + "." +
                    std::to_string(ns / 100 % 10) + "us\n";
  return result;
}

}  // namespace caldb
