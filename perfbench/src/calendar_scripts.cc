// calendar_scripts: an in-memory engine with HOLIDAYS / AM_BUS_DAYS
// installed for 30 years and a few derived calendars.  One client runs a
// closed loop over a fixed, seeded pool of the paper's calendar
// expressions (the light op: quarter ends, a relaxed foreach, selection
// ranges, and EMP_DAYS, a stored §3.3 calendar read by name) and §3.3
// scripts (the heavy op: EMP-DAYS, the option-expiration if-script).
// Expressions and scripts go through Session::Execute("cal ..."); the
// stored calendar goes through Session::EvalCalendar, the one path that
// consults the catalog's eval cache (a `cal` of its name would run its
// plan inline).  Each pool entry carries a 2-year window whose start year
// is drawn over the 30 years, so the session's 64-entry gen-cache holds
// only part of the working set.  The lang, core and catalog layers do all
// the work; db and storage do none.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "lang/analyzer.h"
#include "lang/lexer.h"
#include "lang/optimizer.h"
#include "lang/parser.h"
#include "lang/planner.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

constexpr int kFirstYear = 1993;
constexpr int kYears = 30;

// EMP-DAYS (§3.3): the last day of every month, or the preceding business
// day when it is a holiday.
constexpr const char* kEmpDays =
    "{LDOM_HOL = LDOM:intersects:HOLIDAYS;"
    " LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL;"
    " return (LDOM - LDOM_HOL + LAST_BUS_DAY);}";

// The pool's templates, in MakePool's order, and the weight each op type
// draws its templates by.  Each template's latency is a mode of its own
// (the run metadata lists every template's p50/p90), so the weights keep
// every named percentile inside one mode rather than on the border between
// two.  Heavy: option expiry (~33 µs) 1, EMP-DAYS (~95 µs) 3, so p50 and
// p90 fall at EMP-DAYS's 33rd and 87th percentiles.  Light: the stored
// calendar (~3 µs) 1, the relaxed foreach (~22 µs) 1, quarter ends (~42
// µs) 4 and the order-3 selection (~98 µs) 2, so p50 falls at the median
// of quarter ends and p90 at the selection's 60th percentile.
struct Template {
  const char* name;
  bool heavy;
  int weight;
};
constexpr Template kTemplates[] = {
    {"emp_days_script", true, 3},  {"option_expiry", true, 1},
    {"quarter_ends", false, 4},    {"relaxed_foreach", false, 1},
    {"selection_range", false, 2}, {"emp_days_by_name", false, 1},
};
constexpr int kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

struct Entry {
  int tmpl = 0;  // index into kTemplates
  std::string script;
  // Set for a stored calendar read by name (Session::EvalCalendar);
  // `script` is then its derivation, for the reference.
  std::string name;
  int first_year = kFirstYear;
  std::string expected;  // rendered reference result
};

std::string Year(int y) { return std::to_string(y) + "/YEARS"; }

// The pool: `per_template` instances of each template, parameters and
// window years drawn from the seed.  Template t's instances are entries
// [t * per_template, (t + 1) * per_template).
std::vector<Entry> MakePool(uint64_t seed, int per_template) {
  Rng rng(seed ^ 0xCA1Eu);
  std::vector<Entry> pool(kNumTemplates * per_template);
  for (int i = 0; i < per_template; ++i) {
    const int y = kFirstYear + static_cast<int>(rng.Uniform(kYears - 1));
    const std::string in_year = Year(y + static_cast<int>(rng.Uniform(2)));
    const int month = 1 + static_cast<int>(rng.Uniform(12));
    const int lo = 1 + static_cast<int>(rng.Uniform(3));
    const int hi = lo + 1 + static_cast<int>(rng.Uniform(2));
    const std::string scripts[kNumTemplates] = {
        kEmpDays,
        // Option expiration (§1, §3.3): the third Friday of a month, or
        // the preceding business day when it is a holiday.
        "{temp1 = [3]/Fridays:overlaps:[" + std::to_string(month) +
            "]/MONTHS:during:" + in_year +
            "; if (temp1:intersects:HOLIDAYS)"
            " return ([n]/AM_BUS_DAYS:<:temp1);"
            " else return (temp1);}",
        // Quarter ends: the last business day of each quarter.
        "[n]/AM_BUS_DAYS:during:[3,6,9,12]/MONTHS:during:YEARS",
        // Relaxed foreach: the Tuesdays of each week overlapping a month.
        "Tuesdays:during:(WEEKS.overlaps.[" + std::to_string(month) +
            "]/MONTHS:during:" + in_year + ")",
        // A selection range over an order-3 calendar: the business days
        // of weeks lo..hi of every month, week by week.
        std::string("[") + std::to_string(lo) + ".." + std::to_string(hi) +
            "]/AM_BUS_DAYS:during:WEEKS:during:MONTHS",
        // EMP_DAYS, defined in Setup, read by name.
        kEmpDays,
    };
    for (int t = 0; t < kNumTemplates; ++t) {
      Entry& e = pool[t * per_template + i];
      e.tmpl = t;
      e.script = scripts[t];
      e.first_year = y;
      if (t == kNumTemplates - 1) e.name = "EMP_DAYS";
    }
  }
  return pool;
}

struct Fixture {
  std::unique_ptr<caldb::Engine> engine;
  std::unique_ptr<caldb::Session> session;
  std::vector<Entry> pool;
};

// The reference rendering of a script's value, computed with a fresh
// evaluator (CalendarCatalog::EvaluateScript keeps no session cache).
std::string Reference(const caldb::CalendarCatalog& catalog,
                      const Entry& entry) {
  caldb::EvalOptions eval;
  eval.window_days =
      Must(catalog.YearWindow(entry.first_year, entry.first_year + 1),
           "year window");
  eval.today_day = 1;
  caldb::ScriptValue v =
      Must(catalog.EvaluateScript(entry.script, eval), entry.script);
  if (v.kind != caldb::ScriptValue::Kind::kCalendar ||
      v.calendar.TotalIntervals() == 0) {
    Die(entry.script, caldb::Status::Internal("no calendar result"));
  }
  return v.calendar.ToString();
}

std::unique_ptr<Fixture> Setup(uint64_t seed, int per_template) {
  auto fx = std::make_unique<Fixture>();
  fx->engine = Must(caldb::Engine::Create(), "create engine");
  fx->session = fx->engine->CreateSession();
  Must(caldb::InstallMarketCalendars(&fx->engine->catalog(), kFirstYear,
                                     kFirstYear + kYears - 1),
       "install market calendars");
  for (const std::string& def :
       {std::string("define calendar Tuesdays as [2]/DAYS:during:WEEKS"),
        std::string("define calendar Fridays as [5]/DAYS:during:WEEKS"),
        std::string("define calendar LDOM as [n]/DAYS:during:MONTHS"),
        "define calendar EMP_DAYS as " + std::string(kEmpDays)}) {
    Must(fx->session->Execute(def), def);
  }
  fx->pool = MakePool(seed, per_template);
  for (Entry& entry : fx->pool) {
    entry.expected = Reference(fx->engine->catalog(), entry);
  }
  return fx;
}

struct Phase {
  Windows windows;
  std::vector<Samples> by_template = std::vector<Samples>(kNumTemplates);
  int64_t ops = 0;
  int64_t script_ops = 0;  // ops that ran Session::EvalScript
  int64_t elapsed_ns = 0;
  std::vector<double> setup_s;
  CounterSums counters;
};

// The compile stages of Session::EvalScript, each timed on its own: lex,
// parse (which lexes again), analyze, optimize, plan.
void TraceCompileStages(const caldb::CalendarCatalog& catalog,
                        const std::string& text, Tracer* tracer,
                        Report* report) {
  {
    ScopedSpan span(tracer, "lang.lex");
    if (!caldb::Lex(text).ok()) report->Fail("lex " + text);
  }
  caldb::Result<caldb::Script> script = caldb::Status::Internal("not run");
  {
    ScopedSpan span(tracer, "lang.parse");
    script = caldb::ParseScript(text);
  }
  if (!script.ok()) {
    report->Fail("parse " + text);
    return;
  }
  caldb::Analyzer analyzer(&catalog);
  bool ok = true;
  {
    ScopedSpan span(tracer, "lang.analyze");
    ok = analyzer.AnalyzeScript(&*script).ok();
  }
  {
    ScopedSpan span(tracer, "lang.optimize");
    ok = ok && caldb::OptimizeScript(&*script).ok();
  }
  {
    ScopedSpan span(tracer, "lang.plan");
    ok = ok && caldb::CompileScript(*script).ok();
  }
  if (!ok) report->Fail("compile " + text);
}

// Draws an entry: a template by weight, then one of its instances.
const Entry& Draw(const std::vector<Entry>& pool, Rng* rng) {
  static const int total_weight = [] {
    int w = 0;
    for (const Template& t : kTemplates) w += t.weight;
    return w;
  }();
  int pick = static_cast<int>(rng->Uniform(total_weight));
  int t = 0;
  while (pick >= kTemplates[t].weight) pick -= kTemplates[t++].weight;
  const size_t per_template = pool.size() / kNumTemplates;
  return pool[t * per_template + rng->Uniform(per_template)];
}

// The op itself: the rendered value of `entry` in its window.
std::string Evaluate(Fixture* fx, const Entry& entry, Tracer* tracer,
                     Phase* phase, Report* report) {
  if (!entry.name.empty()) {
    caldb::Result<caldb::Calendar> c = caldb::Status::Internal("not run");
    {
      ScopedSpan span(tracer, "catalog.eval_calendar");
      c = fx->session->EvalCalendar(entry.name);
    }
    if (!c.ok()) return "";
    ScopedSpan span(tracer, "lang.render");
    return c->ToString();
  }
  if (tracer == nullptr) {
    caldb::Result<caldb::QueryResult> r =
        fx->session->Execute("cal " + entry.script);
    return r.ok() ? std::move(r->message) : "";
  }
  ++phase->script_ops;
  TraceCompileStages(fx->engine->catalog(), entry.script, tracer, report);
  caldb::Result<caldb::ScriptValue> v = caldb::Status::Internal("not run");
  {
    ScopedSpan span(tracer, "lang.eval_script");
    v = fx->session->EvalScript(entry.script);
  }
  if (!v.ok() || v->kind != caldb::ScriptValue::Kind::kCalendar) return "";
  ScopedSpan span(tracer, "lang.render");
  return v->calendar.ToString();
}

// One round: a closed loop of `seconds` on `fx`.
void RunRound(Fixture* fx, Rng* rng, double seconds, Tracer* tracer,
              Phase* phase, Report* report) {
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t windows = std::max<int64_t>(1, (deadline - start) / kWindowNs);
  const int64_t window_ns = (deadline - start) / windows;
  int64_t window_end = start + window_ns;
  phase->windows.Begin();
  for (int64_t now = start; now < deadline; now = NowNs()) {
    if (now >= window_end) {
      phase->windows.End();
      phase->windows.Begin();
      window_end += window_ns;
    }
    const Entry& entry = Draw(fx->pool, rng);
    const bool heavy = kTemplates[entry.tmpl].heavy;
    Must(fx->session->SetWindowYears(entry.first_year, entry.first_year + 1),
         "window");
    ++report->attempted;
    ++phase->ops;
    std::string got;
    const int64_t t0 = NowNs();
    if (tracer == nullptr) {
      got = Evaluate(fx, entry, nullptr, phase, report);
    } else {
      tracer->SetOp(phase->ops);
      ScopedSpan op(tracer, heavy ? "op.script" : "op.expression");
      got = Evaluate(fx, entry, tracer, phase, report);
    }
    const int64_t ns = NowNs() - t0;
    if (got != entry.expected) {
      report->Fail(entry.script + " in " + std::to_string(entry.first_year) +
                   ": result differs from the reference");
      continue;
    }
    phase->windows.Add(heavy ? Windows::kHeavy : Windows::kLight, ns);
    phase->by_template[entry.tmpl].Add(ns);
  }
  phase->elapsed_ns += NowNs() - start;
  phase->windows.End();
}

// `rounds` rounds sharing `seconds`, each on a freshly set-up engine (the
// previous one torn down first, so peak RSS is one engine's).
Phase RunPhase(uint64_t seed, int per_template, Rng* rng, double seconds,
               int rounds, Tracer* tracer, Report* report) {
  Phase phase;
  std::unique_ptr<Fixture> fx;
  for (int r = 0; r < rounds; ++r) {
    fx.reset();
    ReleaseFreedMemory();
    const int64_t s0 = NowNs();
    fx = Setup(seed, per_template);
    phase.setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);
    caldb::obs::MetricRegistry::Global().ResetAll();
    RunRound(fx.get(), rng, seconds / rounds, tracer, &phase, report);
    phase.counters.Add();
  }
  return phase;
}

}  // namespace

void RunCalendarScripts(const Options& opts, Report* report) {
  const int per_template = opts.smoke ? 4 : 96;
  report->meta["pool"] = std::to_string(kNumTemplates * per_template);
  report->meta["years"] = std::to_string(kFirstYear) + "-" +
                          std::to_string(kFirstYear + kYears - 1);
  report->meta["engine_options"] = "default (in-memory)";
  Rng rng(opts.seed);

  Phase plain = RunPhase(opts.seed, per_template, &rng,
                         opts.trace ? opts.seconds / 2 : opts.seconds,
                         opts.trace ? kRounds / 2 : kRounds, nullptr, report);
  const double ops = static_cast<double>(plain.ops);
  if (!opts.trace) {
    ReportEndToEnd(report, plain.setup_s, plain.windows);
    // Each template's own p50/p90, to show where the op types' named
    // percentiles fall between their templates.
    std::string by_template;
    for (int t = 0; t < kNumTemplates; ++t) {
      const Samples& s = plain.by_template[t];
      by_template += (t ? " " : "") + std::string(kTemplates[t].name) + "=" +
                     std::to_string(s.PercentileUs(50)) + "/" +
                     std::to_string(s.PercentileUs(90));
    }
    report->meta["template_p50_p90_us"] = by_template;
    return;
  }

  ReportEvalCounters(report, plain.counters, ops);
  const double eval_hits = plain.counters["caldb.catalog.eval_cache.hits"];
  report->Set(
      "catalog.eval_cache.hit_ratio",
      Ratio(eval_hits,
            eval_hits + plain.counters["caldb.catalog.eval_cache.misses"]),
      "ratio");

  Tracer tracer;
  Phase traced = RunPhase(opts.seed, per_template, &rng, opts.seconds / 2,
                          kRounds / 2, &tracer, report);
  std::map<std::string, double> self = tracer.MedianSelfUs();
  for (const char* stage : {"lex", "parse", "analyze", "optimize", "plan",
                            "render"}) {
    report->Set(std::string("lang.") + stage + "_us",
                self[std::string("lang.") + stage], "us");
  }
  // Session::EvalScript compiles (parse .. plan) and then evaluates; the
  // evaluation alone is its time minus the separately timed stages.
  std::map<std::string, int64_t> total = tracer.TotalSelfNs();
  const double compile_ns = total["lang.parse"] + total["lang.analyze"] +
                            total["lang.optimize"] + total["lang.plan"];
  report->Set("lang.eval_us",
              Ratio((total["lang.eval_script"] - compile_ns) / 1000.0,
                    traced.script_ops),
              "us");
  report->Set("obs.trace_overhead_pct",
              OverheadPct(Ratio(ops * 1e9, plain.elapsed_ns),
                          Ratio(traced.ops * 1e9, traced.elapsed_ns)),
              "%");
  tracer.Dump(opts.out_dir + "/calendar_scripts.spans.csv", 100000);
}

}  // namespace perfbench
