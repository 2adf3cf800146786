// The catalog's plan cache (CalendarCatalog::CachedPlan): a script text
// compiles once per catalog version, cached plans evaluate exactly as
// fresh compiles do across redefinitions and drops of the calendars they
// inline or invoke, the LRU stays within its capacity, compile errors are
// never cached, and sessions share one cached plan while another session
// redefines a calendar it inlines, or read a calendar with a lifespan by
// name and by next firing while it is redefined (tools/check.sh runs this
// test under ThreadSanitizer).

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "caldb.h"
#include "catalog/calendar_catalog.h"
#include "obs/obs.h"
#include "tests/lang/expression_generator.h"

namespace caldb {
namespace {

int64_t Counter(const char* name) {
  return obs::Metrics().counter(name)->value();
}

std::string Render(const Result<ScriptValue>& value) {
  if (!value.ok()) return "error: " + value.status().ToString();
  switch (value->kind) {
    case ScriptValue::Kind::kCalendar:
      return value->calendar.ToString();
    case ScriptValue::Kind::kString:
      return "\"" + value->text + "\"";
    case ScriptValue::Kind::kBlocked:
      return "(blocked)";
    case ScriptValue::Kind::kNull:
      return "(null)";
  }
  return "?";
}

class PlanCacheTest : public ::testing::Test {
 protected:
  PlanCacheTest() : catalog_(TimeSystem{CivilDate{1993, 1, 1}}) {
    opts_.window_days = Interval{1, 365};
  }

  // The script evaluated through the cache and through a fresh compile.
  void ExpectCachedMatchesFresh(const std::string& text) {
    Result<ScriptValue> cached = catalog_.EvaluateScript(text, opts_);
    Result<ScriptValue> fresh = [&]() -> Result<ScriptValue> {
      CALDB_ASSIGN_OR_RETURN(Plan plan, catalog_.CompileScriptText(text));
      Evaluator evaluator(&catalog_.time_system(), &catalog_);
      return evaluator.Run(plan, opts_);
    }();
    EXPECT_EQ(Render(cached), Render(fresh)) << text;
  }

  CalendarCatalog catalog_;
  EvalOptions opts_;
};

// Random draws, each evaluated twice (a miss, then a hit), interleaved
// with redefinitions and drops of a calendar that one fixed text inlines
// (PAYDAY, one statement) and another invokes (CLOSE, two statements).
TEST_F(PlanCacheTest, CachedPlansMatchFreshCompilesAcrossRedefinitions) {
  const std::vector<std::string> paydays = {"[15]/DAYS:during:MONTHS",
                                            "[n]/DAYS:during:MONTHS",
                                            "[1]/DAYS:during:WEEKS"};
  const std::vector<std::string> closes = {
      "{t = [n]/DAYS:during:WEEKS; return t;}",
      "{t = [2]/DAYS:during:MONTHS; return t;}"};
  const std::vector<std::string> readers = {
      "[1]/PAYDAY:during:MONTHS", "PAYDAY:during:[3]/MONTHS",
      "[2]/CLOSE:during:MONTHS", "PAYDAY + CLOSE"};
  ExpressionGenerator gen(0xCAC4EDULL);
  const int64_t hits0 = Counter("caldb.catalog.plan_cache.hits");
  for (int round = 0; round < 60; ++round) {
    switch (round % 4) {
      case 0:
        (void)catalog_.Drop("PAYDAY");  // absent in round 0
        ASSERT_TRUE(catalog_
                        .DefineDerived("PAYDAY",
                                       paydays[static_cast<size_t>(round / 4) %
                                               paydays.size()])
                        .ok());
        break;
      case 1:
        (void)catalog_.Drop("CLOSE");
        ASSERT_TRUE(catalog_
                        .DefineDerived("CLOSE",
                                       closes[static_cast<size_t>(round / 4) %
                                              closes.size()])
                        .ok());
        break;
      case 2:
        // Dropped: readers of CLOSE now fail, through the cache too.
        if (round % 8 == 2) {
          ASSERT_TRUE(catalog_.Drop("CLOSE").ok());
        }
        break;
      default:
        break;
    }
    for (const std::string& text : readers) {
      ExpectCachedMatchesFresh(text);
      ExpectCachedMatchesFresh(text);
    }
    const std::string draw = gen.Generate();
    ExpectCachedMatchesFresh(draw);
    ExpectCachedMatchesFresh(draw);
  }
  EXPECT_GT(Counter("caldb.catalog.plan_cache.hits") - hits0, 60 * 3);
}

TEST_F(PlanCacheTest, RepeatedScriptParsesOnce) {
  const std::string text = "[n]/DAYS:during:[3,6,9,12]/MONTHS:during:YEARS";
  ASSERT_TRUE(catalog_.EvaluateScript(text, opts_).ok());
  const int64_t parses0 = Counter("caldb.lang.parse.calls");
  const int64_t hits0 = Counter("caldb.catalog.plan_cache.hits");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(catalog_.EvaluateScript(text, opts_).ok());
  }
  EXPECT_EQ(Counter("caldb.lang.parse.calls"), parses0);
  EXPECT_EQ(Counter("caldb.catalog.plan_cache.hits") - hits0, 5);

  // One plan object, shared by every lookup.
  Result<std::shared_ptr<const Plan>> a = catalog_.CachedPlan(text);
  Result<std::shared_ptr<const Plan>> b = catalog_.CachedPlan(text);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->get(), b->get());

  // A definition bumps the version: the next lookup compiles again.
  ASSERT_TRUE(catalog_.DefineDerived("X", "[1]/DAYS:during:WEEKS").ok());
  const int64_t parses1 = Counter("caldb.lang.parse.calls");
  Result<std::shared_ptr<const Plan>> c = catalog_.CachedPlan(text);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->get(), c->get());
  EXPECT_EQ(Counter("caldb.lang.parse.calls"), parses1 + 1);
}

TEST_F(PlanCacheTest, SessionScriptsShareTheCache) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  const std::string text = "[2]/DAYS:during:WEEKS";
  ASSERT_TRUE(session->EvalScript(text).ok());
  const int64_t parses0 = Counter("caldb.lang.parse.calls");
  ASSERT_TRUE(session->EvalScript(text).ok());
  ASSERT_TRUE(session->Execute("cal " + text).ok());
  auto other = engine->CreateSession();
  ASSERT_TRUE(other->EvalScript(text).ok());
  EXPECT_EQ(Counter("caldb.lang.parse.calls"), parses0);
}

TEST_F(PlanCacheTest, CompileErrorsAreNotCached) {
  const std::string text = "[1]/NOPE:during:WEEKS";
  const int64_t parses0 = Counter("caldb.lang.parse.calls");
  const int64_t misses0 = Counter("caldb.catalog.plan_cache.misses");
  EXPECT_FALSE(catalog_.CachedPlan(text).ok());
  EXPECT_FALSE(catalog_.CachedPlan(text).ok());
  EXPECT_EQ(Counter("caldb.lang.parse.calls") - parses0, 2);
  EXPECT_EQ(Counter("caldb.catalog.plan_cache.misses") - misses0, 2);
  // Once the name exists the same text compiles.
  ASSERT_TRUE(catalog_.DefineDerived("NOPE", "[1]/DAYS:during:WEEKS").ok());
  EXPECT_TRUE(catalog_.CachedPlan(text).ok());
}

TEST_F(PlanCacheTest, EvictsLeastRecentlyUsedPastCapacity) {
  constexpr int kExtra = 10;
  const int n = static_cast<int>(CalendarCatalog::kPlanCacheCapacity) + kExtra;
  auto text = [](int i) {
    return "days{(" + std::to_string(i + 1) + "," + std::to_string(i + 1) +
           ")}";
  };
  const int64_t evictions0 = Counter("caldb.catalog.plan_cache.evictions");
  for (int i = 0; i < n; ++i) ASSERT_TRUE(catalog_.CachedPlan(text(i)).ok());
  EXPECT_EQ(Counter("caldb.catalog.plan_cache.evictions") - evictions0,
            kExtra);
  EXPECT_EQ(obs::Metrics().gauge("caldb.catalog.plan_cache.size")->value(),
            static_cast<int64_t>(CalendarCatalog::kPlanCacheCapacity));
  // The oldest texts were evicted; the newest is still cached.
  const int64_t misses0 = Counter("caldb.catalog.plan_cache.misses");
  ASSERT_TRUE(catalog_.CachedPlan(text(n - 1)).ok());
  EXPECT_EQ(Counter("caldb.catalog.plan_cache.misses"), misses0);
  ASSERT_TRUE(catalog_.CachedPlan(text(0)).ok());
  EXPECT_EQ(Counter("caldb.catalog.plan_cache.misses"), misses0 + 1);
}

// Reader sessions evaluate one shared cached plan while a writer session
// redefines the calendar that plan inlines.  Every result is one of the
// two definitions' values, or the unknown-calendar error of the moment
// between a drop and the next definition.
TEST(PlanCacheConcurrencyTest, SessionsShareAPlanAcrossRedefinitions) {
  auto engine = Engine::Create().value();
  auto setup = engine->CreateSession();
  const std::vector<std::string> defs = {"[2]/DAYS:during:WEEKS",
                                         "[5]/DAYS:during:WEEKS"};
  const std::string text = "[1]/PAYDAY:during:MONTHS";
  std::set<std::string> allowed;
  for (const std::string& def : defs) {
    ASSERT_TRUE(setup->DefineCalendar("PAYDAY", def).ok());
    Result<ScriptValue> value = setup->EvalScript(text);
    ASSERT_TRUE(value.ok()) << value.status();
    allowed.insert(value->calendar.ToString());
    ASSERT_TRUE(engine->DropCalendar("PAYDAY").ok());
  }
  ASSERT_TRUE(setup->DefineCalendar("PAYDAY", defs[0]).ok());

  constexpr int kReaders = 3;
  std::atomic<int> readers_done{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto session = engine->CreateSession();
      for (int i = 0; i < 200; ++i) {
        Result<ScriptValue> value = session->EvalScript(text);
        if (value.ok()) {
          if (allowed.count(value->calendar.ToString()) == 0) ++bad;
        } else if (value.status().message().find("PAYDAY") ==
                   std::string::npos) {
          ++bad;
        }
      }
      ++readers_done;
    });
  }
  std::thread writer([&] {
    auto session = engine->CreateSession();
    for (int i = 0; readers_done.load() < kReaders; ++i) {
      EXPECT_TRUE(engine->DropCalendar("PAYDAY").ok());
      EXPECT_TRUE(
          session->DefineCalendar("PAYDAY", defs[static_cast<size_t>(i % 2)])
              .ok());
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_TRUE(engine->Stop().ok());
}

// Reader sessions read a calendar with a lifespan by name and search its
// next firing while a writer redefines it: every value is one of the two
// definitions' (each within its own lifespan), or the unknown-calendar
// error of the moment between a drop and the next definition.
TEST(PlanCacheConcurrencyTest, LifespanCalendarReadByNameAcrossRedefinitions) {
  auto engine = Engine::Create().value();
  auto setup = engine->CreateSession();
  struct Def {
    std::string script;
    Interval lifespan;
  };
  const std::vector<Def> defs = {{"[1]/DAYS:during:MONTHS", Interval{1, 60}},
                                 {"[2]/DAYS:during:MONTHS", Interval{1, 90}}};
  const std::string name = "EARLY";
  std::set<std::string> allowed;
  std::set<TimePoint> allowed_next;
  for (const Def& def : defs) {
    ASSERT_TRUE(setup->DefineCalendar(name, def.script, def.lifespan).ok());
    Result<Calendar> value = setup->EvalCalendar(name);
    ASSERT_TRUE(value.ok()) << value.status();
    allowed.insert(value->ToString());
    Result<std::optional<TimePoint>> next =
        engine->catalog().NextFireDay(name, 10, 365);
    ASSERT_TRUE(next.ok() && next->has_value()) << next.status();
    allowed_next.insert(**next);
    ASSERT_TRUE(engine->DropCalendar(name).ok());
  }
  ASSERT_EQ(allowed.size(), 2u);
  ASSERT_TRUE(
      setup->DefineCalendar(name, defs[0].script, defs[0].lifespan).ok());

  constexpr int kReaders = 3;
  std::atomic<int> readers_done{0};
  std::atomic<int> bad{0};
  auto unknown = [&](const Status& status) {
    return status.message().find(name) != std::string::npos;
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto session = engine->CreateSession();
      for (int i = 0; i < 200; ++i) {
        Result<Calendar> value = session->EvalCalendar(name);
        if (value.ok() ? allowed.count(value->ToString()) == 0
                       : !unknown(value.status())) {
          ++bad;
        }
        Result<std::optional<TimePoint>> next =
            engine->catalog().NextFireDay(name, 10, 365);
        if (next.ok() ? !next->has_value() || allowed_next.count(**next) == 0
                      : !unknown(next.status())) {
          ++bad;
        }
      }
      ++readers_done;
    });
  }
  std::thread writer([&] {
    auto session = engine->CreateSession();
    for (int i = 0; readers_done.load() < kReaders; ++i) {
      const Def& def = defs[static_cast<size_t>(i % 2)];
      EXPECT_TRUE(engine->DropCalendar(name).ok());
      EXPECT_TRUE(session->DefineCalendar(name, def.script, def.lifespan).ok());
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_TRUE(engine->Stop().ok());
}

}  // namespace
}  // namespace caldb
