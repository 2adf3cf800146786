// Property fuzzing: randomly generated calendar expressions evaluate to
// the same result regardless of factorization and window-hint pushdown —
// the two optimizations must never change semantics.

#include <gtest/gtest.h>

#include "catalog/calendar_catalog.h"
#include "common/macros.h"
#include "lang/analyzer.h"
#include "lang/optimizer.h"
#include "lang/parser.h"
#include "lang/planner.h"
#include "tests/lang/expression_generator.h"

namespace caldb {
namespace {

class RandomExpression : public ::testing::TestWithParam<int> {};

TEST_P(RandomExpression, OptimizationsPreserveSemantics) {
  CalendarCatalog catalog{TimeSystem{CivilDate{1993, 1, 1}}};
  ExpressionGenerator gen(static_cast<uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ULL + 1);
  Evaluator evaluator(&catalog.time_system(), &catalog);

  int evaluated = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::string text = gen.Generate();
    SCOPED_TRACE(text);

    auto parsed = ParseScript(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();

    auto run = [&](bool factorize, bool hints) -> Result<ScriptValue> {
      // Re-parse to get an independent tree (the analyzer mutates nodes).
      Script script = ParseScript(text).value();
      Analyzer analyzer(&catalog);
      CALDB_RETURN_IF_ERROR(analyzer.AnalyzeScript(&script));
      if (factorize) CALDB_RETURN_IF_ERROR(OptimizeScript(&script));
      CALDB_ASSIGN_OR_RETURN(Plan plan, CompileScript(script));
      EvalOptions opts;
      opts.window_days = Interval{1, 365};
      opts.use_window_hints = hints;
      Evaluator fresh(&catalog.time_system(), &catalog);
      return fresh.Run(plan, opts);
    };
    auto full = [](const Result<ScriptValue>& v) -> std::string {
      if (v->kind != ScriptValue::Kind::kCalendar) return "null";
      return v->calendar.ToString();
    };
    // Boundary-insensitive view: the flattened point set, restricted to
    // the interior of the window (the naive no-hints evaluation is
    // allowed to differ near the window edges, where it truncates coarse
    // granules that the look-ahead evaluation covers in full).
    auto interior = [](const Result<ScriptValue>& v) -> std::string {
      if (v->kind != ScriptValue::Kind::kCalendar) return "null";
      Calendar flat = v->calendar.Flattened();
      auto clipped =
          ForEachInterval(flat, ListOp::kIntersects, Interval{60, 300},
                          /*strict=*/true);
      if (!clipped.ok()) return "error";
      // Set semantics: flattening an order-k result repeats shared
      // intervals once per group, and group *counts* may differ at the
      // window boundary; the covered point set must not.
      auto deduped = Union(*clipped, Calendar::Order1(Granularity::kDays, {}));
      if (!deduped.ok()) {
        deduped = Union(*clipped, Calendar::Order1(clipped->granularity(), {}));
      }
      return deduped.ok() ? deduped->ToString() : "error";
    };

    Result<ScriptValue> base = run(false, true);
    if (!base.ok()) {
      // Some random expressions are legitimately ill-typed (e.g. an
      // order-2 value feeding a foreach LHS).  They must fail identically
      // in every configuration — never crash, never succeed one way only.
      for (bool factorize : {false, true}) {
        for (bool hints : {false, true}) {
          EXPECT_FALSE(run(factorize, hints).ok());
        }
      }
      continue;
    }
    ++evaluated;
    // Factorization must preserve results exactly.
    Result<ScriptValue> factorized = run(true, true);
    ASSERT_TRUE(factorized.ok()) << factorized.status();
    EXPECT_EQ(full(factorized), full(base));
    // The naive evaluation must agree away from the window boundary.
    for (bool factorize : {false, true}) {
      Result<ScriptValue> naive = run(factorize, false);
      ASSERT_TRUE(naive.ok()) << naive.status();
      EXPECT_EQ(interior(naive), interior(base)) << "factorize=" << factorize;
    }
  }
  // The generator should produce mostly valid expressions.
  EXPECT_GT(evaluated, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExpression, ::testing::Range(1, 31));

}  // namespace
}  // namespace caldb
