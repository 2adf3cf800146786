// rule_firing: an in-memory engine with 200 temporal rules
//   declare rule rN on <expr> do append fires (rule = N, day = $1)
// whose expressions cover every weekday plus month ends, the 15th and
// quarter ends.  One client walks the virtual clock one day at a time over
// a fixed span of four years from the epoch; each op is
// Engine::AdvanceTo(d+1), and DBCRON fires the day's rules on its own
// thread (§4).  The light op is an ordinary day (the 20 weekday rules
// fire); the heavy op is a day on which month-end, 15th or quarter-end
// rules fire too (40 or 60 firings).  After each advance a prepared
// retrieve checks the day's fires rows against the rule calendars.
//
// The span is fixed, never a wall-clock budget: per-day cost grows with
// elapsed virtual time (RULE-TIME bookkeeping scans its tombstones on
// every firing), so a time-bounded walk would measure a different mix of
// early and late days on a faster or slower build.  A run repeats the
// whole span on fresh engines until its time is used.

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

constexpr int kRules = 200;
// Seven weekday expressions of 20 rules each: exactly this many rules fire
// on every day, and more on month ends, the 15th and quarter ends.
constexpr int64_t kWeekdayRules = 20;
constexpr int kFirstYear = 1993;

// Ten expressions, 20 rules each.
const std::vector<std::string>& Expressions() {
  static const std::vector<std::string> kExprs = {
      "[1]/DAYS:during:WEEKS",
      "[2]/DAYS:during:WEEKS",
      "[3]/DAYS:during:WEEKS",
      "[4]/DAYS:during:WEEKS",
      "[5]/DAYS:during:WEEKS",
      "[6]/DAYS:during:WEEKS",
      "[7]/DAYS:during:WEEKS",
      "[n]/DAYS:during:MONTHS",
      "[15]/DAYS:during:MONTHS",
      "[n]/DAYS:during:[3,6,9,12]/MONTHS:during:YEARS",
  };
  return kExprs;
}

struct Span {
  caldb::TimePoint last_day;       // the walk ends here
  std::vector<int> rule_expr;      // expression index of each rule
  std::vector<int64_t> fires_on;   // expected fires per day
  int64_t expected_fires = 0;
};

// Seeded assignment of expressions to rules, and the expected number of
// firings on each day: each rule fires on every point of its calendar
// after the declaration day (day 1).
Span MakeSpan(uint64_t seed, int years) {
  Span span;
  Rng rng(seed ^ 0xC20Du);
  for (int i = 0; i < kRules; ++i) {
    span.rule_expr.push_back(i % static_cast<int>(Expressions().size()));
  }
  for (int i = kRules - 1; i > 0; --i) {
    std::swap(span.rule_expr[i], span.rule_expr[rng.Uniform(i + 1)]);
  }
  caldb::CalendarCatalog catalog{
      caldb::TimeSystem{caldb::CivilDate{kFirstYear, 1, 1}}};
  caldb::EvalOptions eval;
  eval.window_days =
      Must(catalog.YearWindow(kFirstYear, kFirstYear + years - 1), "window");
  span.last_day = eval.window_days.hi;
  std::vector<std::vector<caldb::TimePoint>> points;
  for (const std::string& expr : Expressions()) {
    caldb::ScriptValue v = Must(catalog.EvaluateScript(expr, eval), expr);
    std::vector<caldb::TimePoint> days;
    for (const caldb::Interval& iv : v.calendar.Leaves()) {
      for (caldb::TimePoint d = iv.lo; d <= iv.hi; ++d) {
        if (d > 1 && d <= span.last_day) days.push_back(d);
      }
    }
    points.push_back(std::move(days));
  }
  span.fires_on.assign(span.last_day + 1, 0);
  for (int e : span.rule_expr) {
    for (caldb::TimePoint d : points[e]) ++span.fires_on[d];
    span.expected_fires += static_cast<int64_t>(points[e].size());
  }
  return span;
}

struct Fixture {
  std::unique_ptr<caldb::Engine> engine;
  std::unique_ptr<caldb::Session> session;
  caldb::PreparedStatement read;
  // Trace mode: the rules' compiled plans by id, and the statement the
  // benchmark runs to time a rule's action on its own.
  std::map<int64_t, std::shared_ptr<const caldb::Plan>> plans;
  std::map<int64_t, int> rule_of_id;
  caldb::PreparedStatement shadow_action;
};

std::unique_ptr<Fixture> Setup(const Span& span, bool trace) {
  auto fx = std::make_unique<Fixture>();
  fx->engine = Must(caldb::Engine::Create(), "create engine");
  fx->session = fx->engine->CreateSession();
  caldb::Session& s = *fx->session;
  Must(s.Execute("create table fires (rule int, day int)"), "fires");
  Must(s.Execute("create index on fires (day)"), "fires index");
  for (int i = 0; i < kRules; ++i) {
    const std::string n = std::to_string(i);
    Must(s.Execute("declare rule r" + n + " on " +
                   Expressions()[span.rule_expr[i]] +
                   " do append fires (rule = " + n + ", day = $1)"),
         "declare rule r" + n);
  }
  fx->read =
      Must(s.Prepare("retrieve (f.rule) from f in fires where f.day = $1"),
           "prepare read");
  if (trace) {
    // The same table and index as `fires`, so the timed action does the
    // work of the rule's own append.
    Must(s.Execute("create table fires_shadow (rule int, day int)"), "shadow");
    Must(s.Execute("create index on fires_shadow (day)"), "shadow index");
    fx->shadow_action =
        Must(s.Prepare("append fires_shadow (rule = $1, day = $2)"),
             "shadow action");
    for (int i = 0; i < kRules; ++i) {
      caldb::TemporalRule rule = Must(
          fx->engine->WithRulesRead([&](const caldb::TemporalRuleManager& m) {
            return m.GetRuleByName("r" + std::to_string(i));
          }),
          "rule");
      fx->plans[rule.id] = rule.plan;
      fx->rule_of_id[rule.id] = i;
    }
  }
  return fx;
}

struct Phase {
  // Advance time by day type, one window per span: ordinary days light,
  // busy days heavy.
  Windows windows;
  int64_t days = 0;
  int64_t elapsed_ns = 0;
  int64_t fires = 0;   // CronStats delta
  int64_t probes = 0;  // CronStats delta
  std::vector<double> setup_s;
  // Advance time per virtual year of the walk, summed over spans: the
  // growth with elapsed virtual time shows here.
  std::vector<int64_t> year_ns;
  std::vector<double> walk_s;  // per span
  CounterSums counters;
};

// The traced day: the RULE-TIME probe for the day's due rules, the
// advance itself, then each due rule's next-fire computation and action
// timed on their own so the advance's residual can be attributed.
caldb::Status TracedAdvance(Fixture* fx, caldb::TimePoint day,
                            Tracer* tracer, Report* report) {
  using Due = std::vector<std::pair<caldb::TimePoint, int64_t>>;
  caldb::Result<Due> due = caldb::Status::Internal("not run");
  caldb::TimePoint horizon = 0;
  {
    ScopedSpan span(tracer, "rules.due_between");
    due = fx->engine->WithRulesRead([&](const caldb::TemporalRuleManager& m) {
      horizon = m.horizon_day();
      return m.DueBetween(day, day);
    });
  }
  if (!due.ok()) return due.status();
  caldb::Status st;
  {
    ScopedSpan span(tracer, "engine.advance");
    st = fx->engine->AdvanceTo(day);
  }
  for (const auto& [fire_day, id] : *due) {
    {
      ScopedSpan span(tracer, "catalog.next_fire");
      if (!fx->engine->catalog()
               .NextFireDayForPlan(*fx->plans[id], fire_day, horizon)
               .ok()) {
        report->Fail("next fire of rule " + std::to_string(id));
      }
    }
    ScopedSpan span(tracer, "rules.action");
    if (!fx->shadow_action
             .Execute({caldb::Value::Int(fx->rule_of_id[id]),
                       caldb::Value::Int(fire_day)})
             .ok()) {
      report->Fail("shadow action of rule " + std::to_string(id));
    }
  }
  return st;
}

// The light op's check: the rows fired on `day` are the rules whose
// calendars contain it.
bool CheckFires(const caldb::Result<caldb::QueryResult>& fired,
                const Span& span, caldb::TimePoint day, Report* report) {
  if (!fired.ok() ||
      static_cast<int64_t>(fired->rows.size()) != span.fires_on[day]) {
    report->Fail("fires on day " + std::to_string(day) +
                 " differ from the rule calendars");
    return false;
  }
  return true;
}

// Walks whole spans on fresh engines until `seconds` are used (at least
// one span).  Counter totals cover the walks, not the set-ups.
Phase RunPhase(const Span& span, double seconds, bool trace_setup,
               Tracer* tracer, Report* report) {
  Phase phase;
  int64_t walk_ns = 0;
  const int64_t budget = static_cast<int64_t>(seconds * 1e9);
  while (phase.days == 0 || walk_ns < budget) {
    ReleaseFreedMemory();
    const int64_t s0 = NowNs();
    std::unique_ptr<Fixture> fx = Setup(span, trace_setup);
    phase.setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);
    caldb::obs::MetricRegistry::Global().ResetAll();
    const caldb::DbCron::CronStats cron0 = fx->engine->CronStats();
    const int64_t start = NowNs();
    phase.windows.Begin();
    // Each day: advance the clock one day (the op), then check the rows
    // that day's firings appended.
    for (caldb::TimePoint day = 2; day <= span.last_day; ++day) {
      ++report->attempted;
      ++phase.days;
      const int64_t t0 = NowNs();
      caldb::Status st;
      if (tracer == nullptr) {
        st = fx->engine->AdvanceTo(day);
      } else {
        tracer->SetOp(phase.days);
        ScopedSpan op(tracer, "op.day");
        st = TracedAdvance(fx.get(), day, tracer, report);
      }
      const int64_t ns = NowNs() - t0;
      ++report->attempted;
      CheckFires(fx->read.Execute({caldb::Value::Int(day)}), span, day,
                 report);
      if (!st.ok()) {
        report->Fail("advance to " + std::to_string(day) + ": " +
                     st.ToString());
        continue;
      }
      phase.windows.Add(span.fires_on[day] > kWeekdayRules ? Windows::kHeavy
                                                           : Windows::kLight,
                        ns);
      const size_t year = static_cast<size_t>((day - 2) / 365);
      if (phase.year_ns.size() <= year) phase.year_ns.resize(year + 1);
      phase.year_ns[year] += ns;
    }
    phase.windows.End();
    walk_ns += NowNs() - start;
    phase.walk_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    phase.counters.Add();
    const caldb::DbCron::CronStats cron1 = fx->engine->CronStats();
    phase.fires += cron1.fires - cron0.fires;
    phase.probes += cron1.probes - cron0.probes;
    // The span's totals: fires rows = DBCRON's fire count = the points of
    // every rule calendar over the span.
    ++report->attempted;
    auto rows = fx->session->Execute("retrieve (f.day) from f in fires");
    if (!rows.ok() ||
        static_cast<int64_t>(rows->rows.size()) != span.expected_fires ||
        cron1.fires - cron0.fires != span.expected_fires) {
      report->Fail("span fire count differs from the rule calendars");
    }
  }
  phase.elapsed_ns = walk_ns;
  return phase;
}

}  // namespace

void RunRuleFiring(const Options& opts, Report* report) {
  const int years = opts.smoke ? 1 : 4;
  const Span span = MakeSpan(opts.seed, years);
  report->meta["rules"] = std::to_string(kRules);
  report->meta["span_days"] = std::to_string(span.last_day);
  report->meta["expected_fires_per_span"] =
      std::to_string(span.expected_fires);
  report->meta["engine_options"] = "default (in-memory)";
  const double seconds = opts.smoke ? 0.01 : opts.seconds;

  Phase plain = RunPhase(span, opts.trace ? seconds / 2 : seconds, false,
                         nullptr, report);
  const double days = static_cast<double>(plain.days);
  const int64_t spans = plain.days / (span.last_day - 1);
  report->meta["spans"] = std::to_string(spans);
  std::string per_year;
  for (int64_t ns : plain.year_ns) {
    per_year += (per_year.empty() ? "" : ",") +
                std::to_string(ns / spans / 1000000);
  }
  report->meta["advance_ms_per_virtual_year"] = per_year;
  std::string walks;
  for (double w : plain.walk_s) {
    walks += (walks.empty() ? "" : ",") + std::to_string(w).substr(0, 5);
  }
  report->meta["walk_s_per_span"] = walks;
  if (!opts.trace) {
    ReportEndToEnd(report, plain.setup_s, plain.windows);
    return;
  }

  report->Set("rules.fires_per_op", Ratio(plain.fires, days), "count/op");
  report->Set("rules.probes_per_op", Ratio(plain.probes, days), "count/op");
  ReportEvalCounters(report, plain.counters, days);
  ReportDbCounters(report, plain.counters, days);
  report->Set("engine.table_lock_wait_ns_p99",
              HistogramPercentile("caldb.engine.table_locks.wait_ns", 99),
              "ns");

  Tracer tracer;
  Phase traced = RunPhase(span, seconds / 2, true, &tracer, report);
  std::map<std::string, double> self = tracer.MedianSelfUs();
  report->Set("rules.due_between_us", self["rules.due_between"], "us");
  report->Set("catalog.next_fire_us", self["catalog.next_fire"], "us");
  report->Set("rules.action_us", self["rules.action"], "us");
  std::map<std::string, int64_t> total = tracer.TotalSelfNs();
  report->Set("rules.residual_us_per_fire",
              Ratio((total["engine.advance"] - total["catalog.next_fire"] -
                     total["rules.action"]) /
                        1000.0,
                    traced.fires),
              "us");
  report->Set("obs.trace_overhead_pct",
              OverheadPct(Ratio(days * 1e9, plain.elapsed_ns),
                          Ratio(traced.days * 1e9, traced.elapsed_ns)),
              "%");
  tracer.Dump(opts.out_dir + "/rule_firing.spans.csv", 100000);
}

}  // namespace perfbench
