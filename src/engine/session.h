// caldb::Session — a per-client handle on a caldb::Engine.
//
// A Session carries the client-local state a connection would hold in the
// paper's DBMS: the evaluation window, "today" (pinned or tracking the
// engine's virtual clock), and a private Evaluator whose bounded gen-cache
// stays warm across calls — so repeated calendar probes from one client
// cost pointer copies, while different clients never contend on a shared
// evaluator.
//
// Sessions are single-threaded by design (create one per thread via
// Engine::CreateSession); the Engine they point into is fully thread-safe
// and must outlive them.
//
// Execute() is the uniform entry point of the facade: every verb of the
// system is reachable through it —
//
//   retrieve (w.day) from w in alerts       database statements (Postquel)
//   explain <stmt> / profile <stmt>         DB access-plan EXPLAIN (§5)
//   cal <script>                            calendar-expression evaluation
//   explain cal <script>                    CalendarCatalog::ExplainScript
//   define calendar <name> as <script>      catalog DDL
//   drop calendar <name>
//   declare rule <name> on <expr> do <cmd>  temporal rules (§4)
//   drop temporal rule <name>
//   advance to <YYYY-MM-DD | day>           drive DBCRON's virtual clock
//
// No exception escapes Execute or any other public method (see the
// no-throw contract in common/result.h).

#ifndef CALDB_ENGINE_SESSION_H_
#define CALDB_ENGINE_SESSION_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "common/result.h"
#include "db/database.h"
#include "lang/evaluator.h"

namespace caldb {

class Engine;

/// A bound-at-execute statement handle: the one prepared-execution path of
/// the facade.  Session::Prepare compiles the text (through the engine's
/// shared statement cache) into an immutable CompiledStatementPtr and wraps
/// it with the originating session's identity, so log lines and audit
/// records produced by Execute carry the right "session":N even though the
/// underlying handle is shared engine-wide.
///
/// Placeholders: statement text may contain $1, $2, ... positional
/// parameters (docs/LANGUAGE.md).  Execute binds one Value per placeholder,
/// checked for arity and type against the compiled signature before any
/// lock or WAL traffic.  A handle with no placeholders executes with the
/// default empty bind list.
///
///   auto stmt = session->Prepare(
///       "retrieve (a.balance) from a in accounts where a.id = $1");
///   auto row = stmt->Execute({Value::Int(37)});
///
/// Handles are cheap to copy (two shared_ptrs + two scalars) and may
/// outlive the Session that prepared them — and, since PR 10, even the
/// Engine: the handle carries the engine's liveness token, so Execute
/// after Engine::Stop() or ~Engine fails with a clean InvalidArgument
/// instead of undefined behavior.  (Destroying the engine *concurrently
/// with* an in-flight Execute is still a caller race; the token makes
/// sequential misuse safe and diagnosable.)  Execute is safe to call from
/// any thread; the handle itself is immutable after Prepare.
class PreparedStatement {
 public:
  /// Default-constructed handles are invalid; Execute on one fails with
  /// InvalidArgument instead of crashing.
  PreparedStatement() = default;

  /// Executes the statement with `params` bound to $1..$n (left to right).
  /// Fails with InvalidArgument on arity or type mismatch, before any
  /// side effect.  No exception escapes (common/result.h contract).
  Result<QueryResult> Execute(const ParamList& params = {}) const;

  /// Number of placeholders in the statement ($n with the largest n).
  int param_count() const;

  /// Human-readable parameter signature, e.g. "($1:int, $2:any)".
  std::string signature() const;

  /// The statement text this handle was compiled from (as written by
  /// whoever first compiled its cache entry).
  const std::string& text() const;

  /// The shared compiled handle (null when invalid).
  const CompiledStatementPtr& compiled() const { return compiled_; }

  bool valid() const { return compiled_ != nullptr; }

 private:
  friend class Session;
  PreparedStatement(Engine* engine,
                    std::shared_ptr<const std::atomic<bool>> engine_alive,
                    uint64_t session_id, CompiledStatementPtr compiled)
      : engine_(engine),
        engine_alive_(std::move(engine_alive)),
        session_id_(session_id),
        compiled_(std::move(compiled)) {}

  Engine* engine_ = nullptr;
  // The engine's liveness token (engine/engine.h): flipped false at the
  // top of ~Engine.  Checked before engine_ is ever dereferenced, so a
  // handle that outlived its engine fails cleanly.
  std::shared_ptr<const std::atomic<bool>> engine_alive_;
  uint64_t session_id_ = 0;
  CompiledStatementPtr compiled_;
};

class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- the uniform entry point ----------------------------------------------

  /// Executes one command (see the header comment for the verb list).
  /// Calendar values and reports are rendered into QueryResult::message.
  Result<QueryResult> Execute(const std::string& text);

  // --- prepared statements --------------------------------------------------

  /// Compiles a *database* statement (including explain/profile of one)
  /// into a PreparedStatement handle through the engine's shared statement
  /// cache.  The text may contain $1..$n placeholders, bound at
  /// handle.Execute({...}).  Session-level verbs (cal, define calendar,
  /// declare rule, advance to, ...) are not preparable — they fail to
  /// parse here.
  Result<PreparedStatement> Prepare(const std::string& text);

  // --- typed calendar surface -----------------------------------------------

  /// Runs a calendar script on this session's evaluator.  The plan comes
  /// from the catalog's plan cache (CalendarCatalog::CachedPlan), so a
  /// script text already compiled against the current catalog is not
  /// compiled again.
  Result<ScriptValue> EvalScript(const std::string& script);

  /// Evaluates a named calendar over this session's window.
  Result<Calendar> EvalCalendar(const std::string& name);

  /// CalendarCatalog::ExplainScript with this session's options.
  Result<std::string> ExplainScript(const std::string& script);

  /// Defines a derived calendar in the engine's catalog.
  Status DefineCalendar(const std::string& name, const std::string& script,
                        std::optional<Interval> lifespan_days = std::nullopt);

  // --- session state --------------------------------------------------------

  /// Evaluation window, in DAYS points.
  void SetWindow(Interval window_days) { opts_.window_days = window_days; }
  /// Convenience: the window covering civil years [first, last].
  Status SetWindowYears(int32_t first_year, int32_t last_year);
  Interval window() const { return opts_.window_days; }

  /// Pins `today` for this session; by default it tracks the engine's
  /// virtual clock.
  void SetToday(TimePoint day) { today_override_ = day; }
  void ClearToday() { today_override_.reset(); }
  TimePoint Today() const;

  /// Evaluation counters of the most recent EvalScript/EvalCalendar.
  const EvalStats& last_eval_stats() const { return last_stats_; }

  /// This session's engine-assigned id (1, 2, ...).  Log lines and audit
  /// records produced while the session executes carry it ("session":N).
  uint64_t id() const { return id_; }

  Engine& engine() { return *engine_; }

 private:
  friend class Engine;
  Session(Engine* engine, uint64_t id);

  EvalOptions EffectiveOptions() const;
  Result<QueryResult> ExecuteImpl(const std::string& text);

  Engine* engine_;
  const uint64_t id_;
  Evaluator evaluator_;
  EvalOptions opts_;
  std::optional<TimePoint> today_override_;
  EvalStats last_stats_;
};

}  // namespace caldb

#endif  // CALDB_ENGINE_SESSION_H_
