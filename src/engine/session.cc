#include "engine/session.h"

#include "common/macros.h"
#include "common/strings.h"
#include "engine/engine.h"
#include "obs/obs.h"
#include "time/civil.h"

namespace caldb {

namespace {

struct SessionMetrics {
  obs::Counter* scripts = obs::Metrics().counter("caldb.engine.scripts");
};

SessionMetrics& Metrics() {
  static SessionMetrics* m = new SessionMetrics();
  return *m;
}

// Splits the first whitespace-delimited word off `s` (already trimmed)
// and leaves the trimmed remainder in `*rest`.
std::string_view SplitWord(std::string_view s, std::string_view* rest) {
  const size_t end = s.find_first_of(" \t\r\n");
  if (end == std::string_view::npos) {
    *rest = {};
    return s;
  }
  *rest = TrimWhitespace(s.substr(end));
  return s.substr(0, end);
}

// Whether `*rest` starts with the word `kw` (ASCII case-insensitive); if
// so, consumes it.
bool ConsumeWord(std::string_view kw, std::string_view* rest) {
  std::string_view after;
  if (!EqualsIgnoreCase(SplitWord(*rest, &after), kw)) return false;
  *rest = after;
  return true;
}

QueryResult MessageResult(std::string message) {
  QueryResult result;
  result.message = std::move(message);
  return result;
}

std::string RenderScriptValue(const ScriptValue& value) {
  switch (value.kind) {
    case ScriptValue::Kind::kCalendar:
      return value.calendar.ToString();
    case ScriptValue::Kind::kString:
      return "\"" + value.text + "\"";
    case ScriptValue::Kind::kBlocked:
      return "(blocked: the script is waiting for a later day)";
    case ScriptValue::Kind::kNull:
      return "(null)";
  }
  return "(?)";
}

}  // namespace

Session::Session(Engine* engine, uint64_t id)
    : engine_(engine),
      id_(id),
      evaluator_(&engine->time_system(), &engine->catalog()) {
  opts_.window_days = Interval{1, 365};
  opts_.gen_cache_max_entries = engine->options().session_gen_cache_entries;
  opts_.gen_cache_max_bytes = engine->options().session_gen_cache_bytes;
}

Session::~Session() { engine_->ReleaseSession(); }

TimePoint Session::Today() const {
  return today_override_.value_or(engine_->Now());
}

EvalOptions Session::EffectiveOptions() const {
  EvalOptions opts = opts_;
  opts.today_day = Today();
  // Stamp the catalog's current definition version so this session's
  // evaluator invalidates its gen-cache across another session's
  // define/drop (the two-session staleness bug PR 10 fixes).
  opts.catalog_version = engine_->catalog().version();
  return opts;
}

Status Session::SetWindowYears(int32_t first_year, int32_t last_year) {
  CALDB_ASSIGN_OR_RETURN(opts_.window_days,
                         engine_->catalog().YearWindow(first_year, last_year));
  return Status::OK();
}

Result<ScriptValue> Session::EvalScript(const std::string& script) {
  return NoThrow("EvalScript", [&]() -> Result<ScriptValue> {
    Metrics().scripts->Increment();
    CALDB_ASSIGN_OR_RETURN(std::shared_ptr<const Plan> plan,
                           engine_->catalog().CachedPlan(script));
    last_stats_ = EvalStats{};
    return evaluator_.Run(*plan, EffectiveOptions(), &last_stats_);
  });
}

Result<Calendar> Session::EvalCalendar(const std::string& name) {
  return NoThrow("EvalCalendar", [&] {
    last_stats_ = EvalStats{};
    return engine_->catalog().EvaluateCalendar(name, EffectiveOptions(),
                                               &last_stats_);
  });
}

Result<std::string> Session::ExplainScript(const std::string& script) {
  return NoThrow("ExplainScript", [&] {
    return engine_->catalog().ExplainScript(script, EffectiveOptions());
  });
}

Status Session::DefineCalendar(const std::string& name,
                               const std::string& script,
                               std::optional<Interval> lifespan_days) {
  // Via the engine so a durable engine WAL-logs the definition.
  return NoThrow("DefineCalendar", [&] {
    return engine_->DefineCalendar(name, script, lifespan_days);
  });
}

Result<QueryResult> PreparedStatement::Execute(const ParamList& params) const {
  if (engine_ == nullptr || compiled_ == nullptr) {
    return Status::InvalidArgument(
        "invalid prepared statement (default-constructed or moved-from)");
  }
  // Liveness first, before engine_ is dereferenced at all: a handle that
  // outlived its engine must fail cleanly, not read freed memory.  Then
  // the stop flag — after Engine::Stop() the pool and DBCRON are gone,
  // and a handle's execution contract ends with them.
  if (engine_alive_ == nullptr ||
      !engine_alive_->load(std::memory_order_acquire)) {
    return Status::InvalidArgument(
        "prepared statement outlived its engine (the Engine was destroyed)");
  }
  if (engine_->stopped()) {
    return Status::InvalidArgument(
        "cannot execute a prepared statement after Engine::Stop()");
  }
  return NoThrow("Execute", [&] {
    obs::ScopedLogContext log_scope{session_id_, compiled_->text};
    // The empty bind list goes through the same path: the bind step
    // enforces exact arity, so a 0-param handle accepts {} and a
    // parameterized one reports the missing values up front.
    return engine_->Run(*compiled_, &params);
  });
}

int PreparedStatement::param_count() const {
  return compiled_ == nullptr ? 0 : compiled_->param_count;
}

std::string PreparedStatement::signature() const {
  return compiled_ == nullptr ? "()" : RenderParamSignature(*compiled_);
}

const std::string& PreparedStatement::text() const {
  static const std::string kEmpty;
  return compiled_ == nullptr ? kEmpty : compiled_->text;
}

Result<PreparedStatement> Session::Prepare(const std::string& text) {
  // Engine::Prepare carries the no-throw catch-all.
  CALDB_ASSIGN_OR_RETURN(CompiledStatementPtr compiled,
                         engine_->Prepare(text));
  return PreparedStatement(engine_, engine_->alive_, id_, std::move(compiled));
}

Result<QueryResult> Session::Execute(const std::string& text) {
  return NoThrow("Execute", [&] {
    // Stamp this session and the command text into the thread's log
    // context for the duration: the one install for this statement
    // (Engine::Execute sees its text is already there).
    obs::ScopedLogContext log_scope{id_, text};
    return ExecuteImpl(text);
  });
}

Result<QueryResult> Session::ExecuteImpl(const std::string& text) {
  // One trim and one split decide the verb; only the session verbs look
  // at a second word.  Anything else is a database statement.
  std::string_view rest;
  const std::string_view verb = SplitWord(TrimWhitespace(text), &rest);

  // Calendar-expression verbs, layered over the database language so the
  // whole system is reachable through one entry point.
  if (EqualsIgnoreCase(verb, "cal")) {
    CALDB_ASSIGN_OR_RETURN(ScriptValue value, EvalScript(std::string(rest)));
    return MessageResult(RenderScriptValue(value));
  }
  if ((EqualsIgnoreCase(verb, "explain") ||
       EqualsIgnoreCase(verb, "profile")) &&
      ConsumeWord("cal", &rest)) {
    CALDB_ASSIGN_OR_RETURN(std::string report,
                           ExplainScript(std::string(rest)));
    return MessageResult(std::move(report));
  }
  if (EqualsIgnoreCase(verb, "define") && ConsumeWord("calendar", &rest)) {
    size_t as_pos = AsciiToLower(std::string(rest)).find(" as ");
    if (as_pos == std::string::npos || as_pos == 0) {
      return Status::ParseError(
          "usage: define calendar <name> as <script>");
    }
    std::string name(TrimWhitespace(rest.substr(0, as_pos)));
    std::string script(TrimWhitespace(rest.substr(as_pos + 4)));
    CALDB_RETURN_IF_ERROR(DefineCalendar(name, script));
    return MessageResult("defined calendar " + name);
  }
  if (EqualsIgnoreCase(verb, "drop")) {
    if (ConsumeWord("calendar", &rest)) {
      std::string name(rest);
      CALDB_RETURN_IF_ERROR(engine_->DropCalendar(name));
      return MessageResult("dropped calendar " + name);
    }
    if (ConsumeWord("temporal", &rest) && ConsumeWord("rule", &rest)) {
      std::string name(rest);
      CALDB_RETURN_IF_ERROR(engine_->DropTemporalRule(name));
      return MessageResult("dropped temporal rule " + name);
    }
  }
  if (EqualsIgnoreCase(verb, "declare") && ConsumeWord("rule", &rest)) {
    size_t on_pos = AsciiToLower(std::string(rest)).find(" on ");
    size_t do_pos = AsciiToLower(std::string(rest)).find(" do ");
    if (on_pos == std::string::npos || do_pos == std::string::npos ||
        do_pos < on_pos) {
      return Status::ParseError(
          "usage: declare rule <name> on <calendar-expr> do <command>");
    }
    std::string name(TrimWhitespace(rest.substr(0, on_pos)));
    std::string expr(
        TrimWhitespace(rest.substr(on_pos + 4, do_pos - on_pos - 4)));
    TemporalAction action;
    action.command = std::string(TrimWhitespace(rest.substr(do_pos + 4)));
    CALDB_ASSIGN_OR_RETURN(int64_t id,
                           engine_->DeclareRule(name, expr, std::move(action)));
    return MessageResult("declared rule " + name + " (id " +
                         std::to_string(id) + ")");
  }
  if (EqualsIgnoreCase(verb, "advance") && ConsumeWord("to", &rest)) {
    TimePoint target = 0;
    Result<CivilDate> date = ParseCivil(rest);
    if (date.ok()) {
      target = engine_->time_system().DayPointFromCivil(*date);
    } else {
      CALDB_ASSIGN_OR_RETURN(int64_t day, ParseInt64(rest));
      target = day;
    }
    CALDB_RETURN_IF_ERROR(engine_->AdvanceTo(target));
    return MessageResult(
        "advanced to day " + std::to_string(engine_->Now()) + " (" +
        std::to_string(engine_->CronStats().fires) + " firings so far)");
  }

  // Everything else is a database statement (including explain/profile of
  // one), executed under the engine's reader/writer lock.
  return engine_->Execute(text);
}

}  // namespace caldb
