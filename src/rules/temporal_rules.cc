#include "rules/temporal_rules.h"

#include "common/macros.h"
#include "obs/obs.h"

namespace caldb {

namespace {
constexpr char kRuleInfoTable[] = "RULE_INFO";
constexpr char kRuleTimeTable[] = "RULE_TIME";

// Either statement of a rule may reference $1 — FireRule binds it to the
// firing day (the parameterized sibling of the fire_day() function, and
// the path a bind-at-execute client would take).  Higher placeholders are
// rejected at declaration: a firing supplies exactly one value.
Status CheckRuleParams(const std::string& name, const char* part,
                       const CompiledStatement& compiled) {
  if (compiled.param_count > 1) {
    return Status::InvalidArgument(
        "temporal rule '" + name + "' " + part + " uses " +
        RenderParamSignature(compiled) +
        ": rule statements may use at most $1, which is bound to the firing "
        "day");
  }
  return Status::OK();
}

// Builds a rule being declared or restored: its calendar expression
// compiled with the §3.4 algorithm (inlining, factorization, planning),
// its action command and condition query compiled to handles.  Fail-fast
// contract: an expression, action or condition that does not parse (or a
// condition that is not a retrieve) is an error at declaration time,
// never at first firing.  `verb` names the caller in an expression error
// ("declaring temporal rule 'x'").
Result<TemporalRule> BuildRule(const CalendarCatalog& catalog, const char* verb,
                               const std::string& name,
                               const std::string& expression,
                               TemporalAction action,
                               const std::string& condition_query) {
  Result<Plan> plan = catalog.CompileScriptText(expression);
  if (!plan.ok()) {
    return plan.status().WithContext(std::string(verb) + " temporal rule '" +
                                     name + "'");
  }
  TemporalRule rule;
  rule.name = name;
  rule.expression = expression;
  rule.plan = std::make_shared<const Plan>(std::move(plan).value());
  rule.action = std::move(action);
  rule.condition_query = condition_query;
  if (!rule.action.command.empty()) {
    Result<CompiledStatementPtr> command =
        CompileStatement(rule.action.command);
    if (!command.ok()) {
      return command.status().WithContext("temporal rule '" + name +
                                          "' action does not parse");
    }
    CALDB_RETURN_IF_ERROR(CheckRuleParams(name, "action", **command));
    rule.compiled_command = *std::move(command);
  }
  if (!rule.condition_query.empty()) {
    Result<CompiledStatementPtr> condition =
        CompileStatement(rule.condition_query);
    if (!condition.ok()) {
      return condition.status().WithContext("temporal rule '" + name +
                                            "' condition does not parse");
    }
    if (!std::holds_alternative<RetrieveStmt>(*(*condition)->stmt)) {
      return Status::InvalidArgument("temporal rule '" + name +
                                     "' condition must be a retrieve");
    }
    CALDB_RETURN_IF_ERROR(CheckRuleParams(name, "condition", **condition));
    rule.compiled_condition = *std::move(condition);
  }
  return rule;
}

}  // namespace

Result<std::unique_ptr<TemporalRuleManager>> TemporalRuleManager::Create(
    const CalendarCatalog* catalog, Database* db, TimePoint horizon,
    Granularity unit) {
  auto manager = std::unique_ptr<TemporalRuleManager>(
      new TemporalRuleManager(catalog, db, horizon, unit));
  if (!db->HasTable(kRuleInfoTable)) {
    CALDB_ASSIGN_OR_RETURN(
        Schema info_schema,
        Schema::Make({{"rule_id", ValueType::kInt},
                      {"name", ValueType::kText},
                      {"expression", ValueType::kText},
                      {"declared_at", ValueType::kInt}}));
    CALDB_RETURN_IF_ERROR(db->CreateTable(kRuleInfoTable, std::move(info_schema)));
  }
  if (!db->HasTable(kRuleTimeTable)) {
    CALDB_ASSIGN_OR_RETURN(Schema time_schema,
                           Schema::Make({{"rule_id", ValueType::kInt},
                                         {"next_fire", ValueType::kInt}}));
    CALDB_RETURN_IF_ERROR(db->CreateTable(kRuleTimeTable, std::move(time_schema)));
    CALDB_ASSIGN_OR_RETURN(Table * time_table, db->GetTable(kRuleTimeTable));
    CALDB_RETURN_IF_ERROR(time_table->CreateIndex("next_fire"));
  }
  // RULE-TIME rows are found by rule id on every firing.  A table restored
  // from an older snapshot may carry only the next_fire index: add it.
  CALDB_ASSIGN_OR_RETURN(Table * time_table, db->GetTable(kRuleTimeTable));
  if (!time_table->HasIndex("rule_id")) {
    CALDB_RETURN_IF_ERROR(time_table->CreateIndex("rule_id"));
  }
  // The action-command escape hatch: fire_day() reads the day the firing
  // rule triggered at.
  TemporalRuleManager* raw = manager.get();
  if (!db->registry().Contains("fire_day")) {
    CALDB_RETURN_IF_ERROR(db->registry().Register(
        "fire_day", 0, 0, [raw](const std::vector<Value>&) -> Result<Value> {
          return Value::Int(raw->current_fire_day_);
        }));
  }
  return manager;
}

Result<int64_t> TemporalRuleManager::DeclareRule(
    const std::string& name, const std::string& expression,
    TemporalAction action, TimePoint now_day,
    const std::string& condition_query) {
  if (name.empty()) {
    return Status::InvalidArgument("rule name must not be empty");
  }
  for (const auto& [id, rule] : rules_) {
    if (rule.name == name) {
      return Status::AlreadyExists("temporal rule '" + name + "' already exists");
    }
  }
  if (!action.callback && action.command.empty()) {
    return Status::InvalidArgument("temporal rule '" + name + "' has no action");
  }
  CALDB_ASSIGN_OR_RETURN(TemporalRule rule,
                         BuildRule(*catalog_, "declaring", name, expression,
                                   std::move(action), condition_query));
  rule.id = next_id_++;

  // First firing strictly after `now_day`.
  CALDB_ASSIGN_OR_RETURN(
      std::optional<TimePoint> first_fire,
      catalog_->NextFirePointForPlan(*rule.plan, now_day, horizon_day_, unit_));

  // Durable rows.
  CALDB_ASSIGN_OR_RETURN(Table * info, db_->GetTable(kRuleInfoTable));
  CALDB_RETURN_IF_ERROR(info->Insert({Value::Int(rule.id), Value::Text(name),
                                      Value::Text(expression),
                                      Value::Int(now_day)})
                            .status());
  CALDB_RETURN_IF_ERROR(UpdateRuleTime(rule.id, first_fire));
  int64_t id = rule.id;
  rules_[id] = std::move(rule);
  return id;
}

Status TemporalRuleManager::DropRule(const std::string& name) {
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if (it->second.name != name) continue;
    int64_t id = it->first;
    rules_.erase(it);
    // Remove catalog rows.
    CALDB_ASSIGN_OR_RETURN(Table * info, db_->GetTable(kRuleInfoTable));
    std::vector<RowId> dead;
    info->Scan([&](RowId row_id, const Row& row) {
      if (row[0].AsInt().value_or(-1) == id) dead.push_back(row_id);
      return true;
    });
    for (RowId row_id : dead) CALDB_RETURN_IF_ERROR(info->Delete(row_id));
    CALDB_RETURN_IF_ERROR(UpdateRuleTime(id, std::nullopt));
    return Status::OK();
  }
  return Status::NotFound("no temporal rule named '" + name + "'");
}

Status TemporalRuleManager::RestoreRule(int64_t id, const std::string& name,
                                        const std::string& expression,
                                        TemporalAction action,
                                        const std::string& condition_query) {
  if (rules_.count(id) > 0) {
    return Status::AlreadyExists("temporal rule id " + std::to_string(id) +
                                 " already restored");
  }
  CALDB_ASSIGN_OR_RETURN(TemporalRule rule,
                         BuildRule(*catalog_, "restoring", name, expression,
                                   std::move(action), condition_query));
  rule.id = id;
  rules_[id] = std::move(rule);
  SetNextId(id + 1);
  return Status::OK();
}

std::vector<std::string> TemporalRuleManager::ListRules() const {
  std::vector<std::string> names;
  names.reserve(rules_.size());
  for (const auto& [id, rule] : rules_) names.push_back(rule.name);
  return names;
}

std::vector<TemporalRule> TemporalRuleManager::ListRuleDefs() const {
  std::vector<TemporalRule> defs;
  defs.reserve(rules_.size());
  for (const auto& [id, rule] : rules_) defs.push_back(rule);
  return defs;
}

Result<TemporalRule> TemporalRuleManager::GetRule(int64_t id) const {
  auto it = rules_.find(id);
  if (it == rules_.end()) {
    return Status::NotFound("no temporal rule with id " + std::to_string(id));
  }
  return it->second;
}

Result<TemporalRule> TemporalRuleManager::GetRuleByName(
    const std::string& name) const {
  for (const auto& [id, rule] : rules_) {
    if (rule.name == name) return rule;
  }
  return Status::NotFound("no temporal rule named '" + name + "'");
}

Result<std::vector<std::pair<TimePoint, int64_t>>>
TemporalRuleManager::DueBetween(TimePoint lo, TimePoint hi) const {
  CALDB_ASSIGN_OR_RETURN(const Table* time_table, static_cast<const Database*>(db_)->GetTable(kRuleTimeTable));
  std::vector<std::pair<TimePoint, int64_t>> due;
  CALDB_RETURN_IF_ERROR(time_table->IndexScan(
      "next_fire", lo, hi, [&](RowId, const Row& row) {
        due.emplace_back(row[1].AsInt().value(), row[0].AsInt().value());
        return true;
      }));
  return due;
}

Status TemporalRuleManager::UpdateRuleTime(int64_t id,
                                           std::optional<TimePoint> next_fire) {
  CALDB_ASSIGN_OR_RETURN(Table * time_table, db_->GetTable(kRuleTimeTable));
  // At most one row per rule: every RULE-TIME write outside snapshot
  // restore comes through here.
  std::optional<RowId> existing;
  CALDB_RETURN_IF_ERROR(
      time_table->IndexScan("rule_id", id, id, [&](RowId row_id, const Row&) {
        existing = row_id;
        return false;
      }));
  if (!next_fire.has_value()) {
    return existing.has_value() ? time_table->Delete(*existing) : Status::OK();
  }
  Row row = {Value::Int(id), Value::Int(*next_fire)};
  // In place: a firing leaves no tombstone behind.
  if (existing.has_value()) return time_table->Update(*existing, std::move(row));
  return time_table->Insert(std::move(row)).status();
}

Result<std::optional<TimePoint>> TemporalRuleManager::FireRule(
    int64_t id, TimePoint fire_day, FireOutcome* outcome) {
  const int64_t start_ns = obs::NowNs();
  // Every exit path funnels through `fail`/success so `outcome` is always
  // complete — DBCRON turns it into the audit record either way.
  auto finish = [&](Status st) -> Status {
    if (outcome != nullptr) {
      outcome->status = st;
      outcome->duration_ns = obs::NowNs() - start_ns;
    }
    return st;
  };
  auto it = rules_.find(id);
  if (it == rules_.end()) {
    return finish(
        Status::NotFound("no temporal rule with id " + std::to_string(id)));
  }
  TemporalRule& rule = it->second;
  if (outcome != nullptr) outcome->rule_name = rule.name;
  current_fire_day_ = fire_day;
  // The firing day, bound to $1 of any rule statement that declares it.
  // Binding (not text splicing) keeps one compiled shape per rule across
  // every firing — and the same bind list replays from the WAL.
  const ParamList fire_params = {Value::Int(fire_day)};
  auto run = [&](const CompiledStatement& stmt) -> Result<QueryResult> {
    CALDB_ASSIGN_OR_RETURN(
        EvalScope bound,
        BindParams(stmt, stmt.param_count == 1 ? &fire_params : nullptr));
    return db_->Run(stmt, bound);
  };
  // The firing itself: the condition, then the action.  Its failure, by
  // error or by throw, is this firing's outcome, not the rule's end: the
  // rule is rescheduled below either way, so it neither fires again at
  // the next probe nor stalls.
  Status fired = NoThrow("AdvanceTo", [&]() -> Status {
    if (rule.compiled_condition != nullptr) {
      // The pre-compiled condition (DeclareRule): firings never parse.
      Result<QueryResult> cond = run(*rule.compiled_condition);
      if (!cond.ok()) {
        return cond.status().WithContext("temporal rule " + rule.name +
                                         " condition");
      }
      if (cond->rows.empty()) {
        ++fire_stats_.suppressed_by_condition;
        if (outcome != nullptr) outcome->suppressed = true;
        return Status::OK();
      }
    }
    ++fire_stats_.fired;
    if (rule.action.callback) {
      Status st = rule.action.callback(fire_day);
      if (!st.ok()) return st.WithContext("temporal rule " + rule.name);
    }
    if (rule.compiled_command != nullptr) {
      Result<QueryResult> r = run(*rule.compiled_command);
      if (!r.ok()) {
        return r.status().WithContext("temporal rule " + rule.name +
                                      " action");
      }
    }
    return Status::OK();
  });
  Result<std::optional<TimePoint>> next =
      catalog_->NextFirePointForPlan(*rule.plan, fire_day, horizon_day_, unit_);
  // With no next firing to move to, the rule goes dormant rather than
  // keep a RULE-TIME row in the past, which every probe would fire again.
  Status st = UpdateRuleTime(id, next.ok() ? *next : std::nullopt);
  if (!next.ok()) st = next.status();
  finish(fired.ok() ? st : fired);
  if (!st.ok()) return st;
  return *next;
}

}  // namespace caldb
