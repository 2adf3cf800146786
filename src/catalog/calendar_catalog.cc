#include "catalog/calendar_catalog.h"

#include <algorithm>

#include "common/macros.h"
#include "common/strings.h"
#include "core/generate.h"
#include "lang/analyzer.h"
#include "lang/lexer.h"
#include "lang/optimizer.h"
#include "lang/parser.h"
#include "lang/planner.h"
#include "obs/obs.h"

namespace caldb {

namespace {

bool IsBaseName(const std::string& name) {
  return ParseGranularity(name).ok();
}

// Registry instruments of the catalog layer.
struct CatalogMetrics {
  obs::Counter* defines = obs::Metrics().counter("caldb.catalog.defines");
  obs::Counter* eval_cache_hits =
      obs::Metrics().counter("caldb.catalog.eval_cache.hits");
  obs::Counter* eval_cache_misses =
      obs::Metrics().counter("caldb.catalog.eval_cache.misses");
  obs::Histogram* eval_ns = obs::Metrics().histogram("caldb.catalog.eval_ns");
  obs::Counter* next_fire_memo_hits =
      obs::Metrics().counter("caldb.catalog.next_fire_memo.hits");
  obs::Counter* next_fire_memo_misses =
      obs::Metrics().counter("caldb.catalog.next_fire_memo.misses");
  obs::Counter* plan_cache_hits =
      obs::Metrics().counter("caldb.catalog.plan_cache.hits");
  obs::Counter* plan_cache_misses =
      obs::Metrics().counter("caldb.catalog.plan_cache.misses");
  obs::Counter* plan_cache_evictions =
      obs::Metrics().counter("caldb.catalog.plan_cache.evictions");
  obs::Gauge* plan_cache_size =
      obs::Metrics().gauge("caldb.catalog.plan_cache.size");
};

CatalogMetrics& Metrics() {
  static CatalogMetrics* metrics = new CatalogMetrics();
  return *metrics;
}

}  // namespace

Status CalendarCatalog::CheckNameFreeLocked(const std::string& name) const {
  // A name must lex as one identifier (EMP-DAYS fuses into one): any
  // other could be neither referenced by a script nor read back from a
  // checkpoint.
  Result<std::vector<Token>> tokens = Lex(name);
  if (!tokens.ok() || tokens->size() != 2 ||
      (*tokens)[0].kind != TokenKind::kIdent || (*tokens)[0].text != name) {
    return Status::InvalidArgument("calendar name '" + name +
                                   "' is not a single identifier");
  }
  if (IsBaseName(name)) {
    return Status::AlreadyExists("'" + name + "' names a base calendar");
  }
  if (EqualsIgnoreCase(name, "today")) {
    return Status::AlreadyExists("'today' is reserved");
  }
  if (defs_.count(name) > 0) {
    return Status::AlreadyExists("calendar '" + name + "' already exists");
  }
  return Status::OK();
}

Status CalendarCatalog::DefineDerived(const std::string& name,
                                      const std::string& script_text,
                                      std::optional<Interval> lifespan_days) {
  obs::Tracer::Span span = obs::StartSpan("catalog.define");
  span.AddAttr("name", name);
  Metrics().defines->Increment();
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    CALDB_RETURN_IF_ERROR(CheckNameFreeLocked(name));
  }
  // Compile outside the lock: analysis re-enters Resolve(), and plans can
  // take a while to build.  The name is re-checked before insertion.
  Script script;
  Result<Plan> plan = CompileScriptText(script_text, &script, nullptr);
  if (!plan.ok()) {
    return plan.status().WithContext("defining calendar '" + name + "'");
  }
  CalendarDef def;
  def.name = name;
  def.derivation_script = script_text;
  def.granularity = script.unit;
  def.parsed_script = std::make_shared<const Script>(std::move(script));
  def.eval_plan = std::make_shared<const Plan>(std::move(plan).value());
  def.lifespan_days = lifespan_days;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    CALDB_RETURN_IF_ERROR(CheckNameFreeLocked(name));
    defs_[name] = std::move(def);
  }
  BumpVersionAndClearCaches();
  return Status::OK();
}

Status CalendarCatalog::DefineValues(const std::string& name, Calendar values,
                                     std::optional<Interval> lifespan_days) {
  if (values.order() != 1) {
    return Status::InvalidArgument(
        "explicit calendar values must be an order-1 calendar");
  }
  CalendarDef def;
  def.name = name;
  def.granularity = values.granularity();
  def.values = std::move(values);
  def.lifespan_days = lifespan_days;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    CALDB_RETURN_IF_ERROR(CheckNameFreeLocked(name));
    defs_[name] = std::move(def);
  }
  // A new values calendar changes what derived plans referencing the name
  // evaluate to (the reference was dangling until now), so it bumps and
  // clears like the other mutators.
  BumpVersionAndClearCaches();
  return Status::OK();
}

Status CalendarCatalog::Drop(const std::string& name) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (defs_.erase(name) == 0) {
      return Status::NotFound("calendar '" + name + "' does not exist");
    }
  }
  BumpVersionAndClearCaches();
  return Status::OK();
}

void CalendarCatalog::BumpVersionAndClearCaches() {
  // Version bump before the clears: a racing miss that evaluated or
  // compiled against the old catalog inserts under the old version, where
  // no later lookup can find it.
  version_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    eval_cache_.clear();
  }
  std::lock_guard<std::mutex> plan_lock(plan_cache_mu_);
  plan_cache_.clear();
  plan_lru_.clear();
  Metrics().plan_cache_size->Set(0);
}

bool CalendarCatalog::Contains(const std::string& name) const {
  if (IsBaseName(name)) return true;
  std::shared_lock<std::shared_mutex> lock(mu_);
  return defs_.count(name) > 0;
}

Result<CalendarDef> CalendarCatalog::Describe(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = defs_.find(name);
  if (it == defs_.end()) {
    return Status::NotFound("calendar '" + name + "' has no catalog row");
  }
  return it->second;
}

std::vector<std::string> CalendarCatalog::ListCalendars() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(defs_.size());
  for (const auto& [name, def] : defs_) names.push_back(name);
  return names;
}

Result<std::string> CalendarCatalog::FormatRow(const std::string& name) const {
  CALDB_ASSIGN_OR_RETURN(CalendarDef def, Describe(name));
  std::string out;
  out += "Name              | " + def.name + "\n";
  out += "Derivation-Script | " +
         (def.derivation_script.empty() ? "(none)" : def.derivation_script) +
         "\n";
  out += "Eval-Plan         | " +
         std::string(def.eval_plan ? "set of procedural statements" : "(none)") +
         "\n";
  std::string lifespan = "(-inf, inf)";
  if (def.lifespan_days.has_value()) {
    lifespan = "(" + FormatCivil(time_system_.CivilFromDayPoint(def.lifespan_days->lo)) +
               ", " +
               FormatCivil(time_system_.CivilFromDayPoint(def.lifespan_days->hi)) +
               ")";
  }
  out += "Lifespan          | " + lifespan + "\n";
  out += "Granularity       | " + std::string(GranularityName(def.granularity)) +
         "\n";
  out += "Values            | " +
         (def.values.has_value() ? def.values->ToString() : "") + "\n";
  return out;
}

Result<ResolvedCalendar> CalendarCatalog::Resolve(const std::string& name) const {
  Result<Granularity> base = ParseGranularity(name);
  if (base.ok()) {
    ResolvedCalendar resolved;
    resolved.kind = ResolvedCalendar::Kind::kBase;
    resolved.granularity = *base;
    return resolved;
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = defs_.find(name);
  if (it == defs_.end()) {
    return Status::NotFound("unknown calendar '" + name + "'");
  }
  // Copied out (shared_ptr script/plan, COW values), so the caller holds
  // no lock while it evaluates.
  const CalendarDef& def = it->second;
  ResolvedCalendar resolved;
  resolved.granularity = def.granularity;
  resolved.lifespan_days = def.lifespan_days;
  if (def.values.has_value()) {
    resolved.kind = ResolvedCalendar::Kind::kValues;
    resolved.values = *def.values;
  } else {
    resolved.kind = ResolvedCalendar::Kind::kDerived;
    resolved.script = def.parsed_script;
    resolved.plan = def.eval_plan;
  }
  return resolved;
}

Result<Calendar> CalendarCatalog::EvaluateCalendar(const std::string& name,
                                                   const EvalOptions& opts,
                                                   EvalStats* stats) const {
  // Captured before anything is read: the plan and the calendars it reads
  // during the unlocked evaluation are at-or-after this version, so if a
  // Define*/Drop lands mid-evaluation (bumping the version and clearing
  // the cache), this miss's insert files under the old version, where no
  // later lookup finds it.  Only a name that was a calendar at this
  // version has entries under it, so a hit needs no name check.
  const uint64_t version_at_lookup = version();
  auto key = std::make_tuple(name, version_at_lookup, opts.window_days.lo,
                             opts.window_days.hi);
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    auto cached = eval_cache_.find(key);
    if (cached != eval_cache_.end()) {
      Metrics().eval_cache_hits->Increment();
      return cached->second;  // a COW handle copy
    }
  }
  // Evaluate unlocked: two racing misses both compute the (identical)
  // value; the second insert overwrites the first.
  CALDB_ASSIGN_OR_RETURN(std::shared_ptr<const Plan> plan, PlanOfName(name));
  Metrics().eval_cache_misses->Increment();
  obs::ScopedLatency latency(Metrics().eval_ns);
  Evaluator evaluator(&time_system_, this);
  CALDB_ASSIGN_OR_RETURN(ScriptValue value, evaluator.Run(*plan, opts, stats));
  if (value.kind == ScriptValue::Kind::kNull) {
    return Calendar::Order1(plan->unit, {});
  }
  if (value.kind != ScriptValue::Kind::kCalendar) {
    return Status::EvalError("calendar '" + name +
                             "' evaluated to a non-calendar value");
  }
  // A value that read `today` depends on opts.today_day, which the key
  // leaves out: never keep it.
  if (!evaluator.read_today()) {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    if (eval_cache_.size() >= kPlanCacheCapacity) eval_cache_.clear();
    eval_cache_[key] = value.calendar;
  }
  return value.calendar;
}

Result<std::shared_ptr<const Plan>> CalendarCatalog::PlanOfName(
    const std::string& name) const {
  // Checked first: text that is not a name is never compiled or run.
  if (!Contains(name)) {
    return Status::NotFound("unknown calendar '" + name + "'");
  }
  return CachedPlan(name);
}

Result<ScriptValue> CalendarCatalog::EvaluateScript(
    const std::string& script_text, const EvalOptions& opts,
    EvalStats* stats) const {
  CALDB_ASSIGN_OR_RETURN(std::shared_ptr<const Plan> plan,
                         CachedPlan(script_text));
  Evaluator evaluator(&time_system_, this);
  return evaluator.Run(*plan, opts, stats);
}

Result<std::shared_ptr<const Plan>> CalendarCatalog::CachedPlan(
    const std::string& script_text) const {
  // Read before the lookup and the compile, as in EvaluateCalendar: a plan
  // compiled while a Define*/Drop lands is filed under the old version.
  const uint64_t version_at_lookup = version();
  {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    auto it = plan_cache_.find(script_text);
    if (it != plan_cache_.end() && it->second.version == version_at_lookup) {
      Metrics().plan_cache_hits->Increment();
      plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second.lru);
      return it->second.plan;
    }
  }
  // Compile unlocked: a slow compile must not stall the sessions that hit.
  Metrics().plan_cache_misses->Increment();
  CALDB_ASSIGN_OR_RETURN(Plan compiled, CompileScriptText(script_text));
  auto plan = std::make_shared<const Plan>(std::move(compiled));
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  auto [it, inserted] = plan_cache_.try_emplace(script_text);
  PlanCacheEntry& entry = it->second;
  if (inserted) {
    plan_lru_.push_front(&it->first);
    entry.lru = plan_lru_.begin();
  } else {
    plan_lru_.splice(plan_lru_.begin(), plan_lru_, entry.lru);
    // A racing compile under the same or a later version got here first:
    // share its plan.
    if (entry.version >= version_at_lookup) return entry.plan;
  }
  entry.version = version_at_lookup;
  entry.plan = plan;
  while (plan_cache_.size() > kPlanCacheCapacity) {
    auto victim = plan_cache_.find(*plan_lru_.back());
    plan_lru_.pop_back();
    plan_cache_.erase(victim);
    Metrics().plan_cache_evictions->Increment();
  }
  Metrics().plan_cache_size->Set(static_cast<int64_t>(plan_cache_.size()));
  return plan;
}

namespace {

int CountScriptNodes(const std::vector<Stmt>& stmts) {
  int count = 0;
  for (const Stmt& stmt : stmts) {
    if (stmt.expr) count += CountExprNodes(*stmt.expr);
    count += CountScriptNodes(stmt.body);
    count += CountScriptNodes(stmt.else_body);
  }
  return count;
}

std::string FormatNsAsUs(int64_t ns) {
  int64_t tenths = ns / 100;
  return std::to_string(tenths / 10) + "." + std::to_string(tenths % 10) +
         "us";
}

}  // namespace

// What EXPLAIN reports of one compile: a clock stamp at the start and at
// the end of each phase, and the rewrites this compile made.
struct CalendarCatalog::CompileReport {
  int64_t start_ns = 0;
  int64_t parsed_ns = 0;
  int64_t analyzed_ns = 0;
  int64_t optimized_ns = 0;
  int64_t planned_ns = 0;
  int nodes_parsed = 0;
  int nodes_optimized = 0;
  int inlines = 0;
  OptimizeStats optimize;
};

Result<Plan> CalendarCatalog::CompileScriptText(
    const std::string& script_text) const {
  Script script;
  return CompileScriptText(script_text, &script, nullptr);
}

Result<Plan> CalendarCatalog::CompileScriptText(const std::string& script_text,
                                                Script* script,
                                                CompileReport* report) const {
  if (report != nullptr) report->start_ns = obs::NowNs();
  CALDB_ASSIGN_OR_RETURN(*script, ParseScript(script_text));
  if (report != nullptr) {
    report->parsed_ns = obs::NowNs();
    report->nodes_parsed = CountScriptNodes(script->stmts);
  }
  Analyzer analyzer(this);
  CALDB_RETURN_IF_ERROR(analyzer.AnalyzeScript(script));
  if (report != nullptr) {
    report->analyzed_ns = obs::NowNs();
    report->inlines = analyzer.inlines();
  }
  CALDB_RETURN_IF_ERROR(
      OptimizeScript(script, report != nullptr ? &report->optimize : nullptr));
  if (report != nullptr) {
    report->optimized_ns = obs::NowNs();
    report->nodes_optimized = CountScriptNodes(script->stmts);
  }
  if (report == nullptr) return CompileScript(*script);
  Result<Plan> plan = CompileScript(*script);
  report->planned_ns = obs::NowNs();
  return plan;
}

Result<std::string> CalendarCatalog::ExplainScript(
    const std::string& script_text, const EvalOptions& opts_in) const {
  obs::Tracer::Span span = obs::StartSpan("catalog.explain");
  Script script;
  CompileReport compile;
  CALDB_ASSIGN_OR_RETURN(Plan plan,
                         CompileScriptText(script_text, &script, &compile));

  int pushdowns = 0;
  for (const PlanStep& step : plan.steps) {
    // Counting only top-level steps keeps this a property of this plan
    // (the registry counter is process-wide).
    if (step.hint.mode != WindowHint::Mode::kNone) ++pushdowns;
  }

  EvalOptions opts = opts_in;
  StepProfile profile;
  opts.profile = &profile;
  EvalStats stats;
  Evaluator evaluator(&time_system_, this);
  int64_t run0 = obs::NowNs();
  CALDB_ASSIGN_OR_RETURN(ScriptValue value, evaluator.Run(plan, opts, &stats));
  int64_t run_ns = obs::NowNs() - run0;

  std::string out = "EXPLAIN " + script_text + "\n";
  out += "compile: parse=" + FormatNsAsUs(compile.parsed_ns - compile.start_ns) +
         " analyze=" + FormatNsAsUs(compile.analyzed_ns - compile.parsed_ns) +
         " optimize=" +
         FormatNsAsUs(compile.optimized_ns - compile.analyzed_ns) +
         " plan=" + FormatNsAsUs(compile.planned_ns - compile.optimized_ns) +
         "\n";
  out += "rewrites: inline=" + std::to_string(compile.inlines) +
         " factorize=" + std::to_string(compile.optimize.factorizations) +
         " pushdown=" + std::to_string(pushdowns) + " nodes " +
         std::to_string(compile.nodes_parsed) + " -> " +
         std::to_string(compile.nodes_optimized) + "\n";
  out += plan.ToString(&profile);
  out += "eval: steps=" + std::to_string(stats.steps_executed) +
         " generate_calls=" + std::to_string(stats.generate_calls) +
         " intervals_generated=" + std::to_string(stats.intervals_generated) +
         " gen_cache_hits=" + std::to_string(stats.cache_hits) +
         " time=" + FormatNsAsUs(run_ns) + "\n";
  switch (value.kind) {
    case ScriptValue::Kind::kCalendar:
      out += "result: calendar order=" + std::to_string(value.calendar.order()) +
             " intervals=" + std::to_string(value.calendar.TotalIntervals()) +
             "\n";
      break;
    case ScriptValue::Kind::kString:
      out += "result: \"" + value.text + "\"\n";
      break;
    case ScriptValue::Kind::kBlocked:
      out += "result: (blocked)\n";
      break;
    case ScriptValue::Kind::kNull:
      out += "result: (null)\n";
      break;
  }
  return out;
}

namespace {

// The points of `cal` as `unit` granules, sorted and merged into disjoint
// intervals: the form FirstPointAfter searches and the next-fire memo
// keeps.
Result<std::shared_ptr<const NextFireMemo::Points>> UnitPoints(
    const TimeSystem& ts, const Calendar& cal, Granularity unit) {
  NextFireMemo::Points converted;
  for (const Interval& i : cal.Leaves()) {
    CALDB_ASSIGN_OR_RETURN(Interval points,
                           IntervalToUnit(ts, cal.granularity(), i, unit));
    converted.push_back(points);
  }
  std::sort(converted.begin(), converted.end(),
            [](const Interval& a, const Interval& b) {
              return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
            });
  auto merged = std::make_shared<NextFireMemo::Points>();
  for (const Interval& i : converted) {
    if (!merged->empty() && i.lo <= PointAdd(merged->back().hi, 1)) {
      merged->back().hi = std::max(merged->back().hi, i.hi);
    } else {
      merged->push_back(i);
    }
  }
  return std::shared_ptr<const NextFireMemo::Points>(std::move(merged));
}

// Earliest point > after covered by `points` (sorted, disjoint), or
// nullopt.
std::optional<TimePoint> FirstPointAfter(const NextFireMemo::Points& points,
                                         TimePoint after) {
  auto it = std::partition_point(
      points.begin(), points.end(),
      [after](const Interval& i) { return i.hi <= after; });
  if (it == points.end()) return std::nullopt;
  return it->lo > after ? it->lo : PointAdd(after, 1);
}

// The next-fire search: the first point in (after, limit] found in
// year-aligned windows of doubling width, [start_year, start_year + span
// - 1] clamped to limit_year, so that month/year-relative selections
// ([n]/DAYS:during:MONTHS) stay meaningful.  `window_points(first_year,
// last_year)` supplies a window's points in the search unit, sorted and
// merged (UnitPoints).
template <typename WindowPoints>
Result<std::optional<TimePoint>> SearchYearWindows(
    int32_t start_year, int32_t limit_year, TimePoint after, TimePoint limit,
    const WindowPoints& window_points) {
  for (int32_t span = 1;; span *= 2) {
    const int32_t end_year =
        std::min<int32_t>(start_year + span - 1, limit_year);
    CALDB_ASSIGN_OR_RETURN(std::shared_ptr<const NextFireMemo::Points> points,
                           window_points(start_year, end_year));
    std::optional<TimePoint> hit = FirstPointAfter(*points, after);
    if (hit.has_value() && *hit <= limit) return hit;
    if (end_year >= limit_year) return std::optional<TimePoint>(std::nullopt);
  }
}

}  // namespace

Result<std::optional<TimePoint>> CalendarCatalog::NextFireDay(
    const std::string& name, TimePoint after_day, TimePoint limit_day) const {
  CALDB_ASSIGN_OR_RETURN(std::shared_ptr<const Plan> plan, PlanOfName(name));
  return NextFirePoint(*plan, after_day, limit_day, Granularity::kDays,
                       PointAdd(after_day, 1));
}

Result<std::optional<TimePoint>> CalendarCatalog::NextFireDayForPlan(
    const Plan& plan, TimePoint after_day, TimePoint limit_day) const {
  return NextFirePointForPlan(plan, after_day, limit_day, Granularity::kDays);
}

Result<std::optional<TimePoint>> CalendarCatalog::NextFirePointForPlan(
    const Plan& plan, TimePoint after_point, TimePoint limit_point,
    Granularity unit) const {
  // `today` is the day of after_point.
  CALDB_ASSIGN_OR_RETURN(
      Interval after_days,
      IntervalToUnit(time_system_, unit, PointInterval(after_point),
                     Granularity::kDays));
  return NextFirePoint(plan, after_point, limit_point, unit, after_days.lo);
}

Result<std::optional<TimePoint>> CalendarCatalog::NextFirePoint(
    const Plan& plan, TimePoint after_point, TimePoint limit_point,
    Granularity unit, TimePoint today_day) const {
  CALDB_ASSIGN_OR_RETURN(
      Interval limit_days,
      IntervalToUnit(time_system_, unit, PointInterval(limit_point),
                     Granularity::kDays));
  // Captured before any evaluation, as in EvaluateCalendar: a window
  // evaluated while a Define*/Drop lands is stored under the old version,
  // where no later lookup finds it.
  const uint64_t version_at_start = version();
  std::optional<Evaluator> evaluator;  // built on the first memo miss
  return SearchYearWindows(
      time_system_.CivilFromDayPoint(today_day).year,
      time_system_.CivilFromDayPoint(limit_days.hi).year, after_point,
      limit_point,
      [&](int32_t first_year, int32_t last_year)
          -> Result<std::shared_ptr<const NextFireMemo::Points>> {
        // Everything the window's evaluation depends on except `today`,
        // whose readers are never stored: a hit equals a fresh evaluation.
        const NextFireMemo::Key key{first_year, last_year, version_at_start,
                                    unit};
        if (std::shared_ptr<const NextFireMemo::Points> points =
                plan.next_fire_memo.Find(key)) {
          Metrics().next_fire_memo_hits->Increment();
          return points;
        }
        Metrics().next_fire_memo_misses->Increment();
        EvalOptions opts;
        CALDB_ASSIGN_OR_RETURN(opts.window_days,
                               YearWindow(first_year, last_year));
        opts.today_day = today_day;
        if (!evaluator.has_value()) evaluator.emplace(&time_system_, this);
        CALDB_ASSIGN_OR_RETURN(ScriptValue value, evaluator->Run(plan, opts));
        std::shared_ptr<const NextFireMemo::Points> points;
        if (value.kind == ScriptValue::Kind::kCalendar) {
          CALDB_ASSIGN_OR_RETURN(
              points, UnitPoints(time_system_, value.calendar, unit));
        } else {
          points = std::make_shared<const NextFireMemo::Points>();
        }
        if (!evaluator->read_today()) plan.next_fire_memo.Store(key, points);
        return points;
      });
}

Result<Interval> CalendarCatalog::YearWindow(int32_t first_year,
                                             int32_t last_year) const {
  if (last_year < first_year) {
    return Status::InvalidArgument("year window end precedes start");
  }
  return time_system_.DayIntervalFromCivil(CivilDate{first_year, 1, 1},
                                           CivilDate{last_year, 12, 31});
}

}  // namespace caldb
