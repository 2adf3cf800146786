// The evaluation plan (§3.2's eval-plan column, §3.4 step 5): a register
// program of generate / caloperate / foreach / selection / set steps with
// structured control flow, produced by the Planner and executed by the
// Evaluator.
//
// Each materializing step can carry a *window hint*: the register whose
// evaluated span bounds the interval over which calendar values are
// generated.  This realizes the paper's look-ahead ("the selection
// predicate determines the time interval within which values of calendars
// are generated") dynamically: the right operand of a foreach is always
// evaluated first, and the left operand's generation window is derived
// from its actual span.

#ifndef CALDB_LANG_PLAN_H_
#define CALDB_LANG_PLAN_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/algebra.h"
#include "core/calendar.h"
#include "time/granularity.h"

namespace caldb {

enum class PlanOpCode {
  kGenerate,      // dst <- base calendar gran_arg at plan unit, within window
  kLoadValues,    // dst <- stored values of calendar `name`
  kInvoke,        // dst <- result of derived calendar `name`'s plan
  kToday,         // dst <- singleton for the current time point
  kLiteral,       // dst <- literal calendar
  kYearSelect,    // dst <- singleton spanning civil year `year`
  kGenerateSpan,  // dst <- generate(gran_arg, unit_arg, [civil_start,civil_end])
  kForEach,       // dst <- foreach(lhs, listop, rhs, strict)
  kSelect,        // dst <- select(selection, lhs)
  kUnion,         // dst <- lhs + rhs
  kDifference,    // dst <- lhs - rhs
  kCalOperate,    // dst <- caloperate(lhs, te, groups)
  kCopy,          // dst <- lhs
  kReturn,        // script returns register lhs
  kReturnString,  // script returns string `name`
  kIf,            // run cond_steps; lhs = condition register
  kWhile,         // run cond_steps repeatedly; empty body => Blocked
};

struct WindowHint {
  enum class Mode {
    kNone,    // use the global evaluation window
    kSpan,    // generate within the span of register `reg`
    kBefore,  // generate from the global window start to span(reg).hi
  };
  Mode mode = Mode::kNone;
  int reg = -1;
};

struct PlanStep {
  PlanOpCode op = PlanOpCode::kCopy;
  int dst = -1;
  int lhs = -1;
  int rhs = -1;

  std::string name;  // calendar name / returned string
  Granularity gran_arg = Granularity::kDays;   // kGenerate/kGenerateSpan base
  Granularity unit_arg = Granularity::kDays;   // kGenerateSpan unit
  std::string civil_start;                     // kGenerateSpan "YYYY-MM-DD"
  std::string civil_end;
  ListOp listop = ListOp::kDuring;
  bool strict = true;
  std::vector<SelectionItem> selection;
  Calendar literal;
  int32_t year = 0;
  std::optional<int64_t> te;     // kCalOperate end time (nullopt = '*')
  std::vector<int64_t> groups;   // kCalOperate group sizes
  WindowHint hint;

  std::vector<PlanStep> cond_steps;  // kIf / kWhile condition
  std::vector<PlanStep> body_steps;  // kIf then / kWhile body
  std::vector<PlanStep> else_steps;  // kIf else
};

/// Per-plan-node execution profile, collected by the Evaluator when
/// EvalOptions::profile is set (the substrate of EXPLAIN/PROFILE).  Keyed
/// by step address, so it is only meaningful while the plan is alive.
/// For kIf/kWhile the time includes the nested condition/body steps.
struct StepProfile {
  struct Node {
    int64_t execs = 0;
    int64_t total_ns = 0;
    int64_t out_intervals = 0;  // intervals in dst after the last execution
  };
  std::unordered_map<const PlanStep*, Node> nodes;

  Node& NodeFor(const PlanStep& step) { return nodes[&step]; }
  const Node* Find(const PlanStep& step) const {
    auto it = nodes.find(&step);
    return it == nodes.end() ? nullptr : &it->second;
  }
};

/// The next-fire memo of a compiled plan (CalendarCatalog::
/// NextFirePointForPlan): the last year window the plan was evaluated over,
/// kept as sorted, disjoint, merged intervals of the rule's point unit, so
/// that a next-fire lookup inside that window is a binary search instead
/// of an evaluation.  The key is everything such an evaluation depends on
/// apart from `today`; the catalog never stores an evaluation that read
/// `today`.  Thread-safe: DBCRON and client threads share rule plans.
class NextFireMemo {
 public:
  struct Key {
    int32_t first_year = 0;
    int32_t last_year = 0;
    uint64_t catalog_version = 0;
    Granularity unit = Granularity::kDays;
    bool operator==(const Key&) const = default;
  };
  using Points = std::vector<Interval>;

  NextFireMemo() = default;
  // A copied plan starts cold: the memo belongs to one Plan object.
  NextFireMemo(const NextFireMemo&) {}
  NextFireMemo& operator=(const NextFireMemo&) { return *this; }

  /// The stored points when `key` matches the stored window, else null.
  std::shared_ptr<const Points> Find(const Key& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return points_ != nullptr && key_ == key ? points_ : nullptr;
  }

  /// Replaces the stored window.
  void Store(const Key& key, std::shared_ptr<const Points> points) {
    std::lock_guard<std::mutex> lock(mu_);
    key_ = key;
    points_ = std::move(points);
  }

 private:
  mutable std::mutex mu_;
  Key key_;
  std::shared_ptr<const Points> points_;
};

struct Plan {
  std::vector<PlanStep> steps;
  int num_registers = 0;
  // Every calendar in the plan is expressed in this unit (the script's
  // smallest time unit, §3.4).
  Granularity unit = Granularity::kDays;
  // Filled by next-fire lookups on a const plan (rules hold their plans
  // as shared_ptr<const Plan>).
  mutable NextFireMemo next_fire_memo;

  /// Human-readable listing ("the set of procedural statements" shown in
  /// the paper's Figure 1).  With a profile, each step is annotated with
  /// its execution count, accumulated time and output size.
  std::string ToString(const StepProfile* profile = nullptr) const;
};

/// Name of a plan opcode ("GENERATE", "FOREACH", ...).
std::string_view PlanOpCodeName(PlanOpCode op);

}  // namespace caldb

#endif  // CALDB_LANG_PLAN_H_
