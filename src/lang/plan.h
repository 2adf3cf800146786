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

enum class PlanOpCode : uint8_t {
  kGenerate,      // dst <- base calendar gran_arg at plan unit, within window
  kLoadValues,    // dst <- stored values of calendar `name`
  kInvoke,        // dst <- result of derived calendar `name`'s plan
  kToday,         // dst <- singleton for the current time point
  kLiteral,       // dst <- literal calendar
  kYearSelect,    // dst <- singleton spanning civil year `year`
  kGenerateSpan,  // dst <- generate(gran_arg, unit_arg, civil span)
  kForEach,       // dst <- foreach(lhs, listop, rhs, strict)
  kSelect,        // dst <- select(selection, lhs)
  kUnion,         // dst <- lhs + rhs
  kDifference,    // dst <- lhs - rhs
  kCalOperate,    // dst <- caloperate(lhs, te, groups)
  kCopy,          // dst <- lhs
  kReturn,        // script returns register lhs
  kReturnString,  // script returns string `name`
  kIf,            // run the condition block; lhs = condition register
  kWhile,         // run the condition block repeatedly; empty body => Blocked
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

// One plan instruction.  Only the fields every opcode reads are inline —
// the opcode, its registers, the foreach operator, the granularities, the
// window hint and the year — so a step stays a few dozen bytes and a plan
// is cheap to keep in the catalog's plan cache.  The rarer payloads (names,
// literal calendars, civil dates, caloperate arguments, selection lists
// and the nested steps of if/while) live in side tables of the owning
// Plan, indexed by `payload`.
struct PlanStep {
  PlanOpCode op = PlanOpCode::kCopy;
  bool strict = true;
  ListOp listop = ListOp::kDuring;
  Granularity gran_arg = Granularity::kDays;   // kGenerate/kGenerateSpan base
  Granularity unit_arg = Granularity::kDays;   // kGenerateSpan unit
  int dst = -1;
  int lhs = -1;
  int rhs = -1;
  WindowHint hint;
  int32_t year = 0;  // kYearSelect
  // Index into the Plan side table of this opcode: names (kLoadValues,
  // kInvoke, kReturnString), literals, civil_spans (kGenerateSpan),
  // caloperates, selections; for kIf/kWhile the first of its consecutive
  // blocks (condition, then/body, else).  -1 when the opcode has none.
  int32_t payload = -1;
};
static_assert(sizeof(PlanStep) <= 96, "PlanStep must stay compact");

/// kGenerateSpan's civil bounds, "YYYY-MM-DD" as written.
struct CivilSpan {
  std::string start;
  std::string end;
};

/// kCalOperate's arguments.
struct CalOperateArgs {
  std::optional<int64_t> te;    // end time (nullopt = '*')
  std::vector<int64_t> groups;  // group sizes
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
  // Side tables of the steps' out-of-line payloads (PlanStep::payload).
  std::vector<std::string> names;
  std::vector<Calendar> literals;
  std::vector<CivilSpan> civil_spans;
  std::vector<CalOperateArgs> caloperates;
  std::vector<std::vector<SelectionItem>> selections;
  std::vector<std::vector<PlanStep>> blocks;
  // Filled by next-fire lookups on a const plan (rules hold their plans
  // as shared_ptr<const Plan>).
  mutable NextFireMemo next_fire_memo;

  const std::string& name(const PlanStep& s) const {
    return names[static_cast<size_t>(s.payload)];
  }
  /// Block `k` of a kIf (0 condition, 1 then, 2 else) or kWhile (0
  /// condition, 1 body).
  const std::vector<PlanStep>& block(const PlanStep& s, int k) const {
    return blocks[static_cast<size_t>(s.payload + k)];
  }

  /// Human-readable listing ("the set of procedural statements" shown in
  /// the paper's Figure 1).  With a profile, each step is annotated with
  /// its execution count, accumulated time and output size.
  std::string ToString(const StepProfile* profile = nullptr) const;
};

/// Name of a plan opcode ("GENERATE", "FOREACH", ...).
std::string_view PlanOpCodeName(PlanOpCode op);

}  // namespace caldb

#endif  // CALDB_LANG_PLAN_H_
