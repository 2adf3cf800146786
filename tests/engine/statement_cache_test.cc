// The shared statement cache (engine/statement_cache.h) and the engine's
// parse-once contract: hit/miss/eviction accounting, normalization
// sharing, DDL invalidation, prepared handles crossing sessions, and —
// via the caldb.db.parses counter — proof that rule firings, EXPLAIN/
// PROFILE and repeated execution never reach the parser.

#include "engine/statement_cache.h"

#include <string>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/session.h"
#include "obs/obs.h"

namespace caldb {
namespace {

int64_t ParseCount() {
  return obs::Metrics().counter("caldb.db.parses")->value();
}

TEST(StatementCache, HitMissAndNormalizationSharing) {
  StatementCache cache(8);
  auto a = cache.GetOrCompile("retrieve (t.x) from t in t");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  // Different spelling, same normalized key: shares the first handle.
  auto b = cache.GetOrCompile("retrieve   (t.x)\n from t   in t");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->get(), b->get());

  StatementCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.size, 1);
  EXPECT_EQ(stats.capacity, 8u);
}

TEST(StatementCache, ParseErrorsAreNeverCached) {
  StatementCache cache(8);
  EXPECT_FALSE(cache.GetOrCompile("retrieve ((((").ok());
  EXPECT_FALSE(cache.GetOrCompile("retrieve ((((").ok());
  StatementCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.size, 0);
  EXPECT_EQ(stats.misses, 2);  // both attempts missed; neither inserted
  EXPECT_EQ(stats.hits, 0);
}

TEST(StatementCache, LruEvictionUnderCapacity) {
  StatementCache cache(2);
  ASSERT_TRUE(cache.GetOrCompile("append a (x = 1)").ok());
  ASSERT_TRUE(cache.GetOrCompile("append b (x = 1)").ok());
  // Touch `a` so `b` is the LRU victim when `c` arrives.
  ASSERT_TRUE(cache.GetOrCompile("append a (x = 1)").ok());
  ASSERT_TRUE(cache.GetOrCompile("append c (x = 1)").ok());

  StatementCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.size, 2);

  // `a` survived (hit), `b` was evicted (miss).
  ASSERT_TRUE(cache.GetOrCompile("append a (x = 1)").ok());
  EXPECT_EQ(cache.stats().hits, 2);
  ASSERT_TRUE(cache.GetOrCompile("append b (x = 1)").ok());
  EXPECT_EQ(cache.stats().evictions, 2);  // b's return evicted c
}

TEST(StatementCache, InvalidateTablesIsScoped) {
  StatementCache cache(8);
  ASSERT_TRUE(cache.GetOrCompile("retrieve (e.x) from e in events").ok());
  ASSERT_TRUE(cache.GetOrCompile("append events (x = 1)").ok());
  ASSERT_TRUE(cache.GetOrCompile("retrieve (o.x) from o in other").ok());
  ASSERT_EQ(cache.stats().size, 3);

  cache.InvalidateTables({"events"});
  StatementCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 1);
  EXPECT_EQ(stats.invalidated_entries, 2);
  EXPECT_EQ(stats.size, 1);  // only the `other` retrieve survives

  // The empty table list is the full flush (drop rule: scope unknown).
  cache.InvalidateTables({});
  stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 2);
  EXPECT_EQ(stats.invalidated_entries, 3);
  EXPECT_EQ(stats.size, 0);
}

TEST(StatementCache, ZeroCapacityDisablesCaching) {
  StatementCache cache(0);
  auto a = cache.GetOrCompile("append t (x = 1)");
  ASSERT_TRUE(a.ok());
  auto b = cache.GetOrCompile("append t (x = 1)");
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->get(), b->get());  // compiled fresh each time
  StatementCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.size, 0);
}

TEST(EngineStatementCache, RepeatedExecuteHitsTheCache) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (x int)").ok());

  ASSERT_TRUE(session->Execute("append t (x = 1)").ok());
  const int64_t parses_before = ParseCount();
  const StatementCache::Stats before = engine->StatementCacheStats();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(session->Execute("append t (x = 1)").ok());
  }
  // Twenty re-executions of cached text: zero parses, twenty hits.
  EXPECT_EQ(ParseCount(), parses_before);
  const StatementCache::Stats after = engine->StatementCacheStats();
  EXPECT_EQ(after.hits - before.hits, 20);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(EngineStatementCache, PreparedHandleCrossesSessions) {
  auto engine = Engine::Create().value();
  auto s1 = engine->CreateSession();
  auto s2 = engine->CreateSession();
  ASSERT_TRUE(s1->Execute("create table t (x int)").ok());

  auto prepared = s1->Prepare("append t (x = 2)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->param_count(), 0);

  const int64_t parses_before = ParseCount();
  ASSERT_TRUE(prepared->Execute().ok());
  ASSERT_TRUE(prepared->Execute().ok());

  // Preparing the same text from the other session returns the shared
  // cache entry, not a second compilation, and it runs from there too.
  auto again = s2->Prepare("append t (x = 2)");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(prepared->compiled().get(), again->compiled().get());
  ASSERT_TRUE(again->Execute().ok());
  EXPECT_EQ(ParseCount(), parses_before);  // handle execution never parses

  // Invalid handles and unpreparable (session-verb) inputs fail as Status.
  EXPECT_FALSE(PreparedStatement{}.Execute().ok());
  EXPECT_FALSE(s1->Prepare("advance to 10").ok());
}

TEST(EngineStatementCache, PlaceholderShapesShareOneEntry) {
  // The whole point of $n in the cache key: value-only variation is ONE
  // shape — the cache holds one entry no matter how many distinct values
  // execute through it.
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (x int)").ok());

  auto insert = session->Prepare("append t (x = $1)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  const StatementCache::Stats before = engine->StatementCacheStats();
  const int64_t parses_before = ParseCount();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(insert->Execute({Value::Int(i)}).ok());
  }
  EXPECT_EQ(ParseCount(), parses_before);
  const StatementCache::Stats after = engine->StatementCacheStats();
  EXPECT_EQ(after.size, before.size);  // no per-value entries
  EXPECT_EQ(after.misses, before.misses);

  // And the entry listing shows the one parameterized shape.
  bool found = false;
  for (const auto& entry : engine->StatementCacheEntries()) {
    if (entry.normalized_text.find("$1") != std::string::npos) {
      found = true;
      EXPECT_EQ(entry.compiled->param_count, 1);
    }
  }
  EXPECT_TRUE(found);

  auto rows = session->Execute("retrieve (t.x) from t in t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 200u);
}

TEST(EngineStatementCache, DdlInvalidatesAffectedEntries) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (x int)").ok());
  ASSERT_TRUE(session->Execute("create table keep (x int)").ok());
  ASSERT_TRUE(session->Execute("append t (x = 1)").ok());
  ASSERT_TRUE(session->Execute("retrieve (k.x) from k in keep").ok());

  const StatementCache::Stats before = engine->StatementCacheStats();
  ASSERT_TRUE(session->Execute("drop table t").ok());
  const StatementCache::Stats after = engine->StatementCacheStats();
  EXPECT_GT(after.invalidations, before.invalidations);
  // The append on t went; re-running it misses (and now fails: no table).
  EXPECT_FALSE(session->Execute("append t (x = 1)").ok());
  EXPECT_GT(engine->StatementCacheStats().misses, after.misses);

  // The statement on the untouched table is still a hit.
  const StatementCache::Stats keep_before = engine->StatementCacheStats();
  ASSERT_TRUE(session->Execute("retrieve (k.x) from k in keep").ok());
  EXPECT_EQ(engine->StatementCacheStats().hits - keep_before.hits, 1);
}

TEST(EngineStatementCache, EventRuleFiringsNeverParse) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (x int)").ok());
  ASSERT_TRUE(session->Execute("create table log (v int)").ok());
  ASSERT_TRUE(session
                  ->Execute("define rule mirror on append to t do "
                            "append log (v = NEW.x)")
                  .ok());

  ASSERT_TRUE(session->Execute("append t (x = 1)").ok());  // warm the cache
  const int64_t parses_before = ParseCount();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(session->Execute("append t (x = 1)").ok());
  }
  // Neither the trigger statement (cached) nor the rule action (compiled
  // at definition) parses on the firing path.
  EXPECT_EQ(ParseCount(), parses_before);
  auto rows = session->Execute("retrieve (l.v) from l in log");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 11u);
}

TEST(EngineStatementCache, TemporalRuleFiringsNeverParse) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table fires (day int)").ok());
  ASSERT_TRUE(session
                  ->Execute("declare rule daily on DAYS do "
                            "append fires (day = fire_day())")
                  .ok());

  const int64_t parses_before = ParseCount();
  ASSERT_TRUE(engine->AdvanceTo(30).ok());  // 29 DBCRON firings
  EXPECT_EQ(ParseCount(), parses_before);   // all through compiled handles
  auto rows = session->Execute("retrieve (f.day) from f in fires");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 29u);
}

TEST(EngineStatementCache, TemporalRuleBindsFireDayAsParameter) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table fires (day int)").ok());
  // $1 in a rule action binds the firing day — same values fire_day()
  // would return, with one compiled shape across every firing.
  ASSERT_TRUE(session
                  ->Execute("declare rule daily on DAYS do "
                            "append fires (day = $1)")
                  .ok());
  const int64_t parses_before = ParseCount();
  ASSERT_TRUE(engine->AdvanceTo(5).ok());
  EXPECT_EQ(ParseCount(), parses_before);
  auto rows = session->Execute(
      "retrieve (f.day) from f in fires order by day");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 4u);  // fired on days 2..5
  EXPECT_EQ(rows->rows.front()[0].AsInt().value(), 2);
  EXPECT_EQ(rows->rows.back()[0].AsInt().value(), 5);

  // $2 and up have nothing to bind to: rejected at declaration.
  auto bad = session->Execute(
      "declare rule broken on DAYS do append fires (day = $2)");
  EXPECT_FALSE(bad.ok());
}

TEST(EngineStatementCache, TemporalRuleDeclarationFailsFastOnBadAction) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  // The action never parses: rejected at declaration, not at first firing.
  auto bad = session->Execute("declare rule broken on DAYS do append ((((");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("broken"), std::string::npos);
  // Nothing was armed; advancing fires nothing and fails nothing.
  ASSERT_TRUE(engine->AdvanceTo(10).ok());
  EXPECT_EQ(engine->CronStats().fires, 0);
}

TEST(EngineStatementCache, ExplainAndProfileUseOneCompilation) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (x int)").ok());
  ASSERT_TRUE(session->Execute("append t (x = 1)").ok());

  // First explain: one parse of the outer text + one compile of the inner
  // statement.  Plan rendering and the PROFILE timed run reuse the inner
  // handle — a third parse would be the old double-parse bug.
  int64_t before = ParseCount();
  auto profile = session->Execute("profile retrieve (t.x) from t in t");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(ParseCount() - before, 2);

  // Second time around the whole explain is a cache hit: zero parses.
  before = ParseCount();
  auto cached = session->Execute("profile retrieve (t.x) from t in t");
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(ParseCount(), before);
}

TEST(EngineStatementCache, CacheCapacityZeroStillExecutes) {
  EngineOptions opts;
  opts.stmt_cache_entries = 0;
  auto engine = Engine::Create(opts).value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (x int)").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session->Execute("append t (x = 1)").ok());
  }
  const StatementCache::Stats stats = engine->StatementCacheStats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.size, 0);
  auto rows = session->Execute("retrieve (t.x) from t in t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 3u);
}

}  // namespace
}  // namespace caldb
