#include "lang/evaluator.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/macros.h"
#include "core/generate.h"
#include "obs/obs.h"
#include "time/civil.h"

namespace caldb {

namespace {

// Registry instruments of the evaluator, resolved once.
struct EvalMetrics {
  obs::Counter* steps = obs::Metrics().counter("caldb.eval.steps");
  obs::Counter* generate_calls =
      obs::Metrics().counter("caldb.eval.generate_calls");
  obs::Counter* intervals_generated =
      obs::Metrics().counter("caldb.eval.intervals_generated");
  obs::Counter* cache_hits =
      obs::Metrics().counter("caldb.eval.gen_cache.hits");
  obs::Counter* cache_covered_hits =
      obs::Metrics().counter("caldb.eval.gen_cache.covered_hits");
  obs::Counter* cache_misses =
      obs::Metrics().counter("caldb.eval.gen_cache.misses");
  obs::Counter* cache_evictions =
      obs::Metrics().counter("caldb.eval.gen_cache.evictions");
  obs::Histogram* run_ns = obs::Metrics().histogram("caldb.eval.run_ns");
};

EvalMetrics& Metrics() {
  static EvalMetrics* metrics = new EvalMetrics();
  return *metrics;
}

}  // namespace

void GenCache::SetBudget(size_t max_entries, size_t max_bytes) {
  max_entries_ = max_entries;
  max_bytes_ = max_bytes;
  EvictPastBudget();
}

void GenCache::Touch(std::list<Entry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

const Calendar* GenCache::Find(const Key& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  Touch(it->second);
  return &it->second->value;
}

const Calendar* GenCache::FindCovering(const Key& key) {
  // Keys order by (granularity, unit, lo, hi): the candidates are one run
  // of the index, and past lo > key.lo none can cover.
  constexpr TimePoint kMin = std::numeric_limits<TimePoint>::min();
  for (auto it = index_.lower_bound(
           Key(std::get<0>(key), std::get<1>(key), kMin, kMin));
       it != index_.end(); ++it) {
    const Key& ckey = it->first;
    if (std::get<0>(ckey) != std::get<0>(key) ||
        std::get<1>(ckey) != std::get<1>(key) ||
        std::get<2>(ckey) > std::get<2>(key)) {
      break;
    }
    if (std::get<3>(ckey) < std::get<3>(key)) continue;
    Touch(it->second);
    return &it->second->value;
  }
  return nullptr;
}

void GenCache::Insert(const Key& key, Calendar value) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  Entry entry;
  entry.key = key;
  entry.bytes = static_cast<size_t>(value.TotalIntervals()) * sizeof(Interval) +
                sizeof(Entry);
  entry.value = std::move(value);
  bytes_ += entry.bytes;
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  EvictPastBudget();
}

void GenCache::EvictPastBudget() {
  while (!lru_.empty() &&
         (index_.size() > max_entries_ || bytes_ > max_bytes_)) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    Metrics().cache_evictions->Increment();
  }
}

void GenCache::Clear() {
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

struct Evaluator::Frame {
  const Plan* plan = nullptr;
  const EvalOptions* opts = nullptr;
  Interval window_unit{1, 1};  // the global window in plan-unit points
  int depth = 0;
  std::vector<std::optional<Calendar>> regs;
};

Result<ScriptValue> Evaluator::Run(const Plan& plan, const EvalOptions& opts,
                                   EvalStats* stats) {
  stats_ = stats;
  read_today_ = false;
  // The catalog was redefined since the cache was filled: drop everything.
  // Cheap insurance today (only catalog-independent base generations are
  // cached), load-bearing the moment any catalog-derived value lands in
  // the gen-cache — and it pins the Session-facing guarantee that one
  // session's cache never outlives another session's redefinition.
  if (opts.catalog_version != 0 &&
      opts.catalog_version != gen_cache_version_) {
    gen_cache_.Clear();
    gen_cache_version_ = opts.catalog_version;
  }
  gen_cache_.SetBudget(opts.gen_cache_max_entries, opts.gen_cache_max_bytes);
  obs::ScopedLatency latency(Metrics().run_ns);
  obs::Tracer::Span span = obs::StartSpan("eval.run");
  Result<ScriptValue> result = RunPlan(plan, opts, /*depth=*/0);
  stats_ = nullptr;
  return result;
}

Result<ScriptValue> Evaluator::RunPlan(const Plan& plan,
                                       const EvalOptions& opts, int depth) {
  if (depth > opts.max_invoke_depth) {
    return Status::EvalError("calendar invocation depth exceeds " +
                             std::to_string(opts.max_invoke_depth) +
                             " (cyclic derivation?)");
  }
  Frame frame;
  frame.plan = &plan;
  frame.opts = &opts;
  frame.depth = depth;
  frame.regs.resize(static_cast<size_t>(plan.num_registers));
  CALDB_ASSIGN_OR_RETURN(frame.window_unit,
                         IntervalToUnit(*ts_, Granularity::kDays,
                                        opts.window_days, plan.unit));
  ScriptValue returned;
  bool did_return = false;
  CALDB_RETURN_IF_ERROR(RunSteps(plan.steps, &frame, &returned, &did_return));
  if (!did_return) return ScriptValue::Null();
  return returned;
}

Status Evaluator::RunSteps(const std::vector<PlanStep>& steps, Frame* frame,
                           ScriptValue* returned, bool* did_return) {
  for (const PlanStep& step : steps) {
    CALDB_RETURN_IF_ERROR(RunStep(step, frame, returned, did_return));
    if (*did_return) return Status::OK();
  }
  return Status::OK();
}

Result<Calendar> Evaluator::ReadReg(const Frame& frame, int reg,
                                    int /*line_hint*/) const {
  if (reg < 0 || static_cast<size_t>(reg) >= frame.regs.size()) {
    return Status::Internal("plan references register r" + std::to_string(reg) +
                            " out of range");
  }
  if (!frame.regs[static_cast<size_t>(reg)].has_value()) {
    return Status::EvalError("variable read before assignment (register r" +
                             std::to_string(reg) + ")");
  }
  return *frame.regs[static_cast<size_t>(reg)];
}

Result<std::optional<Interval>> Evaluator::WindowFor(
    const PlanStep& step, const Frame& frame) const {
  using Window = std::optional<Interval>;
  if (!frame.opts->use_window_hints) return Window(frame.window_unit);
  // Window hints realize the §3.4 look-ahead: a calendar being compared
  // against an already evaluated operand is generated over that operand's
  // actual span (which may extend past the global window where a coarse
  // granule overlaps its edge — that is what keeps positional selections
  // like [2]/DAYS:during:WEEKS meaningful for the boundary week).
  switch (step.hint.mode) {
    case WindowHint::Mode::kNone:
      return Window(frame.window_unit);
    case WindowHint::Mode::kSpan: {
      CALDB_ASSIGN_OR_RETURN(Calendar bound, ReadReg(frame, step.hint.reg, 0));
      return bound.Span();  // empty operand: nothing to generate
    }
    case WindowHint::Mode::kBefore: {
      CALDB_ASSIGN_OR_RETURN(Calendar bound, ReadReg(frame, step.hint.reg, 0));
      Window span = bound.Span();
      if (span) span->lo = std::min(frame.window_unit.lo, span->hi);
      return span;
    }
  }
  return Status::Internal("unknown window-hint mode");
}

Result<std::optional<Interval>> Evaluator::StoredWindow(
    const PlanStep& step, const Frame& frame,
    const std::optional<Interval>& lifespan_days, Interval* days) const {
  CALDB_ASSIGN_OR_RETURN(std::optional<Interval> window, WindowFor(step, frame));
  if (!window) return window;
  // A step without a hint reads the global window, passed on in the
  // caller's own DAYS form, so a reference at any depth sees exactly
  // window ∩ lifespan, not the coarser-unit granules touching both.
  *days = frame.opts->window_days;
  if (frame.opts->use_window_hints &&
      step.hint.mode != WindowHint::Mode::kNone) {
    CALDB_ASSIGN_OR_RETURN(*days, IntervalToUnit(*ts_, frame.plan->unit,
                                                 *window, Granularity::kDays));
  }
  if (!lifespan_days) return window;
  std::optional<Interval> lived = Intersect(*days, *lifespan_days);
  if (!lived) return lived;
  *days = *lived;
  CALDB_ASSIGN_OR_RETURN(
      Interval lived_unit,
      IntervalToUnit(*ts_, Granularity::kDays, *days, frame.plan->unit));
  return Intersect(*window, lived_unit);
}

Status Evaluator::RunStep(const PlanStep& step, Frame* frame,
                          ScriptValue* returned, bool* did_return) {
  if (stats_ != nullptr) ++stats_->steps_executed;
  Metrics().steps->Increment();
  StepProfile* profile = frame->opts->profile;
  if (profile == nullptr) {
    return RunStepImpl(step, frame, returned, did_return);
  }
  const int64_t start_ns = obs::NowNs();
  Status status = RunStepImpl(step, frame, returned, did_return);
  StepProfile::Node& node = profile->NodeFor(step);
  ++node.execs;
  node.total_ns += obs::NowNs() - start_ns;
  if (status.ok() && step.dst >= 0 &&
      static_cast<size_t>(step.dst) < frame->regs.size() &&
      frame->regs[static_cast<size_t>(step.dst)].has_value()) {
    node.out_intervals =
        frame->regs[static_cast<size_t>(step.dst)]->TotalIntervals();
  }
  return status;
}

Status Evaluator::RunStepImpl(const PlanStep& step, Frame* frame,
                              ScriptValue* returned, bool* did_return) {
  const Granularity unit = frame->plan->unit;
  auto set = [frame](int reg, Calendar value) {
    frame->regs[static_cast<size_t>(reg)] = std::move(value);
  };

  switch (step.op) {
    case PlanOpCode::kGenerate: {
      CALDB_ASSIGN_OR_RETURN(std::optional<Interval> window,
                             WindowFor(step, *frame));
      if (!window) {
        set(step.dst, Calendar::Order1(unit, {}));
        return Status::OK();
      }
      const GenCache::Key key(static_cast<int>(step.gran_arg),
                              static_cast<int>(unit), window->lo, window->hi);
      if (const Calendar* cached = gen_cache_.Find(key)) {
        // Exact hit: a shared-rep handle copy, O(1) in the interval count.
        if (stats_ != nullptr) ++stats_->cache_hits;
        Metrics().cache_hits->Increment();
        set(step.dst, *cached);
        return Status::OK();
      }
      // No exact entry — reuse any cached window covering the request.
      // Generation over W materializes exactly the granules overlapping W,
      // so filtering a covering entry with relaxed overlaps is
      // bit-identical to generating afresh; on a hi-monotone entry the
      // filter is a zero-copy slice of it (the cache stays coherent
      // without storing per-slice copies).
      if (const Calendar* covering = gen_cache_.FindCovering(key)) {
        CALDB_ASSIGN_OR_RETURN(
            Calendar sliced,
            ForEachInterval(*covering, ListOp::kOverlaps, *window,
                            /*strict=*/false));
        if (stats_ != nullptr) ++stats_->cache_hits;
        Metrics().cache_covered_hits->Increment();
        set(step.dst, std::move(sliced));
        return Status::OK();
      }
      Metrics().cache_misses->Increment();
      CALDB_ASSIGN_OR_RETURN(
          Calendar generated,
          GenerateBaseCalendar(*ts_, step.gran_arg, unit, *window,
                               /*clip=*/false));
      if (stats_ != nullptr) {
        ++stats_->generate_calls;
        stats_->intervals_generated += generated.TotalIntervals();
      }
      Metrics().generate_calls->Increment();
      Metrics().intervals_generated->Add(generated.TotalIntervals());
      gen_cache_.Insert(key, generated);
      set(step.dst, std::move(generated));
      return Status::OK();
    }

    case PlanOpCode::kLoadValues: {
      const std::string& name = frame->plan->name(step);
      if (source_ == nullptr) {
        return Status::EvalError("no calendar source to load '" + name +
                                 "' from");
      }
      CALDB_ASSIGN_OR_RETURN(ResolvedCalendar resolved, source_->Resolve(name));
      if (resolved.kind != ResolvedCalendar::Kind::kValues) {
        return Status::EvalError("calendar '" + name +
                                 "' is not a value calendar");
      }
      CALDB_ASSIGN_OR_RETURN(Calendar values,
                             Rescale(*ts_, resolved.values, unit));
      Interval days;
      CALDB_ASSIGN_OR_RETURN(
          std::optional<Interval> window,
          StoredWindow(step, *frame, resolved.lifespan_days, &days));
      if (!window) {
        set(step.dst, Calendar::Order1(unit, {}));
        return Status::OK();
      }
      // Keep whole stored elements overlapping the window.
      CALDB_ASSIGN_OR_RETURN(
          Calendar filtered,
          ForEachInterval(values, ListOp::kOverlaps, *window, /*strict=*/false));
      set(step.dst, std::move(filtered));
      return Status::OK();
    }

    case PlanOpCode::kInvoke: {
      const std::string& name = frame->plan->name(step);
      if (source_ == nullptr) {
        return Status::EvalError("no calendar source to invoke '" + name +
                                 "'");
      }
      CALDB_ASSIGN_OR_RETURN(ResolvedCalendar resolved, source_->Resolve(name));
      if (resolved.kind != ResolvedCalendar::Kind::kDerived ||
          resolved.plan == nullptr) {
        return Status::EvalError("calendar '" + name +
                                 "' has no evaluation plan");
      }
      // The nested evaluation takes its window in DAYS.
      EvalOptions inner_opts = *frame->opts;
      CALDB_ASSIGN_OR_RETURN(
          std::optional<Interval> window,
          StoredWindow(step, *frame, resolved.lifespan_days,
                       &inner_opts.window_days));
      if (!window) {
        set(step.dst, Calendar::Order1(unit, {}));
        return Status::OK();
      }
      CALDB_ASSIGN_OR_RETURN(
          ScriptValue value,
          RunPlan(*resolved.plan, inner_opts, frame->depth + 1));
      if (value.kind == ScriptValue::Kind::kNull) {
        set(step.dst, Calendar::Order1(unit, {}));
        return Status::OK();
      }
      if (value.kind != ScriptValue::Kind::kCalendar) {
        return Status::EvalError("derived calendar '" + name +
                                 "' returned a non-calendar value");
      }
      CALDB_ASSIGN_OR_RETURN(Calendar rescaled,
                             Rescale(*ts_, value.calendar, unit));
      set(step.dst, std::move(rescaled));
      return Status::OK();
    }

    case PlanOpCode::kToday: {
      read_today_ = true;
      // Validated first: the same-unit conversion takes the day as is.
      CALDB_ASSIGN_OR_RETURN(
          Interval today,
          MakeInterval(frame->opts->today_day, frame->opts->today_day));
      CALDB_ASSIGN_OR_RETURN(
          today, IntervalToUnit(*ts_, Granularity::kDays, today, unit));
      set(step.dst, Calendar::Singleton(unit, today));
      return Status::OK();
    }

    case PlanOpCode::kLiteral: {
      CALDB_ASSIGN_OR_RETURN(
          Calendar value,
          Rescale(*ts_, frame->plan->literals[static_cast<size_t>(step.payload)],
                  unit));
      set(step.dst, std::move(value));
      return Status::OK();
    }

    case PlanOpCode::kYearSelect: {
      CALDB_ASSIGN_OR_RETURN(
          Interval i,
          IntervalToUnit(*ts_, Granularity::kYears,
                         PointInterval(ts_->YearIndex(step.year)), unit));
      set(step.dst, Calendar::Singleton(unit, i));
      return Status::OK();
    }

    case PlanOpCode::kGenerateSpan: {
      const CivilSpan& civil =
          frame->plan->civil_spans[static_cast<size_t>(step.payload)];
      CALDB_ASSIGN_OR_RETURN(CivilDate start, ParseCivil(civil.start));
      CALDB_ASSIGN_OR_RETURN(CivilDate end, ParseCivil(civil.end));
      CALDB_ASSIGN_OR_RETURN(Interval days, ts_->DayIntervalFromCivil(start, end));
      CALDB_ASSIGN_OR_RETURN(
          Interval span,
          IntervalToUnit(*ts_, Granularity::kDays, days, step.unit_arg));
      CALDB_ASSIGN_OR_RETURN(
          Calendar generated,
          GenerateBaseCalendar(*ts_, step.gran_arg, step.unit_arg, span,
                               /*clip=*/true));
      if (stats_ != nullptr) {
        ++stats_->generate_calls;
        stats_->intervals_generated += generated.TotalIntervals();
      }
      Metrics().generate_calls->Increment();
      Metrics().intervals_generated->Add(generated.TotalIntervals());
      CALDB_ASSIGN_OR_RETURN(Calendar value, Rescale(*ts_, generated, unit));
      set(step.dst, std::move(value));
      return Status::OK();
    }

    case PlanOpCode::kForEach: {
      CALDB_ASSIGN_OR_RETURN(Calendar lhs, ReadReg(*frame, step.lhs, 0));
      CALDB_ASSIGN_OR_RETURN(Calendar rhs, ReadReg(*frame, step.rhs, 0));
      CALDB_ASSIGN_OR_RETURN(Calendar value,
                             ForEach(lhs, step.listop, rhs, step.strict));
      set(step.dst, std::move(value));
      return Status::OK();
    }

    case PlanOpCode::kSelect: {
      CALDB_ASSIGN_OR_RETURN(Calendar src, ReadReg(*frame, step.lhs, 0));
      CALDB_ASSIGN_OR_RETURN(
          Calendar value,
          Select(frame->plan->selections[static_cast<size_t>(step.payload)],
                 src));
      set(step.dst, std::move(value));
      return Status::OK();
    }

    case PlanOpCode::kUnion:
    case PlanOpCode::kDifference: {
      CALDB_ASSIGN_OR_RETURN(Calendar lhs, ReadReg(*frame, step.lhs, 0));
      CALDB_ASSIGN_OR_RETURN(Calendar rhs, ReadReg(*frame, step.rhs, 0));
      Result<Calendar> value = step.op == PlanOpCode::kUnion
                                   ? Union(lhs, rhs)
                                   : Difference(lhs, rhs);
      CALDB_RETURN_IF_ERROR(value.status());
      set(step.dst, std::move(value).value());
      return Status::OK();
    }

    case PlanOpCode::kCalOperate: {
      CALDB_ASSIGN_OR_RETURN(Calendar src, ReadReg(*frame, step.lhs, 0));
      const CalOperateArgs& args =
          frame->plan->caloperates[static_cast<size_t>(step.payload)];
      std::optional<TimePoint> te;
      if (args.te.has_value()) te = *args.te;
      CALDB_ASSIGN_OR_RETURN(Calendar value, CalOperate(src, te, args.groups));
      set(step.dst, std::move(value));
      return Status::OK();
    }

    case PlanOpCode::kCopy: {
      CALDB_ASSIGN_OR_RETURN(Calendar value, ReadReg(*frame, step.lhs, 0));
      set(step.dst, std::move(value));
      return Status::OK();
    }

    case PlanOpCode::kReturn: {
      CALDB_ASSIGN_OR_RETURN(Calendar value, ReadReg(*frame, step.lhs, 0));
      *returned = value.IsNull() ? ScriptValue::Null()
                                 : ScriptValue::Of(std::move(value));
      *did_return = true;
      return Status::OK();
    }

    case PlanOpCode::kReturnString: {
      *returned = ScriptValue::Of(frame->plan->name(step));
      *did_return = true;
      return Status::OK();
    }

    case PlanOpCode::kIf: {
      const Plan& plan = *frame->plan;
      CALDB_RETURN_IF_ERROR(
          RunSteps(plan.block(step, 0), frame, returned, did_return));
      if (*did_return) return Status::OK();
      CALDB_ASSIGN_OR_RETURN(Calendar cond, ReadReg(*frame, step.lhs, 0));
      return RunSteps(plan.block(step, cond.IsNull() ? 2 : 1), frame, returned,
                      did_return);
    }

    case PlanOpCode::kWhile: {
      const std::vector<PlanStep>& cond_steps = frame->plan->block(step, 0);
      const std::vector<PlanStep>& body_steps = frame->plan->block(step, 1);
      for (int64_t iter = 0;; ++iter) {
        if (iter >= frame->opts->max_loop_iterations) {
          return Status::EvalError("while loop exceeded " +
                                   std::to_string(frame->opts->max_loop_iterations) +
                                   " iterations");
        }
        CALDB_RETURN_IF_ERROR(
            RunSteps(cond_steps, frame, returned, did_return));
        if (*did_return) return Status::OK();
        CALDB_ASSIGN_OR_RETURN(Calendar cond, ReadReg(*frame, step.lhs, 0));
        if (cond.IsNull()) return Status::OK();
        if (body_steps.empty()) {
          // The paper's "while (today:<:temp2) ;" busy-wait: the script is
          // blocked until the condition turns false.
          *returned = ScriptValue::Blocked();
          *did_return = true;
          return Status::OK();
        }
        CALDB_RETURN_IF_ERROR(
            RunSteps(body_steps, frame, returned, did_return));
        if (*did_return) return Status::OK();
      }
    }
  }
  return Status::Internal("unknown plan opcode");
}

}  // namespace caldb
