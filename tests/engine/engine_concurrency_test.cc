// Concurrency stress tests for caldb::Engine / caldb::Session.
//
// These are the tests tools/check.sh runs under -DCALDB_SANITIZE=thread:
// N writer + M reader sessions hammer tables and calendar definitions
// while DBCRON advances the virtual clock on its background thread.  The
// assertions are serializable-visible invariants — facts any legal
// interleaving of exclusively-locked writes and shared-locked reads must
// preserve — plus clean shutdown.

#include "caldb.h"

#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace caldb {
namespace {

Result<QueryResult> MustOk(Result<QueryResult> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result;
}

int64_t RowCount(const Result<QueryResult>& result) {
  return result.ok() ? static_cast<int64_t>(result->rows.size()) : -1;
}

TEST(EngineFacadeTest, ExecuteReachesEveryVerb) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();

  // Database DDL/DML/query.
  EXPECT_TRUE(session->Execute("create table t (x int)").ok());
  EXPECT_TRUE(session->Execute("append t (x = 7)").ok());
  auto rows = MustOk(session->Execute("retrieve (t.x) from t in t"));
  ASSERT_EQ(RowCount(rows), 1);

  // Calendar script evaluation and catalog DDL.
  auto cal = MustOk(session->Execute("cal [2]/DAYS:during:WEEKS"));
  EXPECT_NE(cal->message.find("("), std::string::npos);
  EXPECT_TRUE(
      session->Execute("define calendar Tu as [2]/DAYS:during:WEEKS").ok());
  EXPECT_TRUE(session->Execute("cal Tu").ok());

  // EXPLAIN both layers, uniformly through Execute.
  auto explain_db =
      MustOk(session->Execute("explain retrieve (t.x) from t in t"));
  EXPECT_FALSE(explain_db->message.empty());
  auto explain_cal = MustOk(session->Execute("explain cal Tu"));
  EXPECT_FALSE(explain_cal->message.empty());

  // Temporal rules and the clock.
  EXPECT_TRUE(session
                  ->Execute("declare rule r1 on Tu do "
                            "append t (x = fire_day())")
                  .ok());
  EXPECT_TRUE(session->Execute("advance to 1993-01-20").ok());
  auto after = MustOk(session->Execute("retrieve (t.x) from t in t"));
  // Jan 5, 12, 19 1993 are Tuesdays: three firings on top of the seed row.
  EXPECT_EQ(RowCount(after), 4);
  EXPECT_TRUE(session->Execute("drop temporal rule r1").ok());

  // Errors come back as Status, never as an exception.
  EXPECT_FALSE(session->Execute("retrieve (z.x) from z in zebra").ok());
  EXPECT_FALSE(session->Execute("cal NOT_A_CALENDAR").ok());
  EXPECT_FALSE(session->Execute("define calendar broken as ((((").ok());
  EXPECT_FALSE(session->Execute("advance to 0").ok());
}

TEST(EngineFacadeTest, StopIsIdempotentAndFailsFurtherAdvances) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  EXPECT_TRUE(session->Execute("advance to 10").ok());
  EXPECT_TRUE(engine->Stop().ok());
  EXPECT_TRUE(engine->Stop().ok());
  EXPECT_FALSE(engine->AdvanceTo(20).ok());
  auto f = engine->ExecuteAsync("retrieve (t.x) from t in t");
  EXPECT_FALSE(f.get().ok());
  // Synchronous Execute keeps working after Stop (single-threaded mode).
  EXPECT_TRUE(session->Execute("create table t (x int)").ok());
}

// The no-throw contract covers DBCRON: a firing whose callback throws
// ends the advance with kInternal instead of terminating the process, and
// the engine keeps serving statements afterwards.
TEST(EngineFacadeTest, ThrowingRuleCallbackSurfacesAsInternal) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (x int)").ok());
  TemporalAction action;
  action.callback = [](TimePoint) -> Status {
    throw std::runtime_error("callback bug");
  };
  ASSERT_TRUE(
      engine->DeclareRule("thrower", "[2]/DAYS:during:WEEKS", std::move(action))
          .ok());
  Status advanced = engine->AdvanceTo(30);
  EXPECT_EQ(advanced.code(), StatusCode::kInternal);
  EXPECT_NE(advanced.message().find(
                "uncaught exception in AdvanceTo: callback bug"),
            std::string::npos)
      << advanced.ToString();
  EXPECT_TRUE(session->Execute("append t (x = 1)").ok());
  EXPECT_EQ(RowCount(MustOk(session->Execute("retrieve (t.x) from t in t"))),
            1);
  EXPECT_TRUE(session->Execute("drop temporal rule thrower").ok());
}

// A failed firing is scoped to the advance it happened in: the rule is
// still rescheduled, the day's other firings still run, and later
// advances report only their own firings.  The callback throws on its
// first call only (Tuesday, day 5); days 1..30 hold four Tuesdays.
TEST(EngineFacadeTest, FailedFiringIsReportedOnlyByItsOwnAdvance) {
  auto engine = Engine::Create().value();
  auto calls = std::make_shared<std::atomic<int>>(0);
  TemporalAction action;
  action.callback = [calls](TimePoint) -> Status {
    if (calls->fetch_add(1) == 0) throw std::runtime_error("first call");
    return Status::OK();
  };
  ASSERT_TRUE(
      engine->DeclareRule("flaky", "[2]/DAYS:during:WEEKS", std::move(action))
          .ok());
  auto other_calls = std::make_shared<std::atomic<int>>(0);
  TemporalAction other;
  other.callback = [other_calls](TimePoint) {
    other_calls->fetch_add(1);
    return Status::OK();
  };
  ASSERT_TRUE(
      engine->DeclareRule("steady", "[2]/DAYS:during:WEEKS", std::move(other))
          .ok());
  Status first = engine->AdvanceTo(30);
  EXPECT_EQ(first.code(), StatusCode::kInternal) << first.ToString();
  EXPECT_EQ(calls->load(), 4);
  EXPECT_EQ(other_calls->load(), 4);  // the same day's firing still ran
  EXPECT_TRUE(engine->AdvanceTo(60).ok());
  EXPECT_TRUE(engine->AdvanceTo(90).ok());
  EXPECT_EQ(calls->load(), other_calls->load());
  EXPECT_TRUE(engine->Stop().ok());
}

TEST(EngineFacadeTest, ExecuteBatchPreservesOrder) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table seq (x int)").ok());
  std::vector<std::string> batch;
  for (int i = 0; i < 32; ++i) {
    batch.push_back("append seq (x = " + std::to_string(i) + ")");
  }
  batch.push_back("retrieve (s.x) from s in seq");
  auto results = engine->ExecuteBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i + 1 < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << results[i].status().ToString();
  }
  // The final retrieve was *submitted* after every append, but the pool
  // runs several tasks at once and the db lock is not FIFO-fair, so it
  // may overtake appends still waiting for the write lock: it sees some
  // subset of the 32, never more.
  EXPECT_LE(RowCount(results.back()), 32);
  // Once ExecuteBatch has returned, every append's future has resolved,
  // so a follow-up retrieve sees all 32.
  auto after = engine->ExecuteBatch({"retrieve (s.x) from s in seq"});
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(RowCount(after.front()), 32);
}

// N appenders + M readers on one table, while DBCRON advances and a rule
// fires into a second table.  Invariants:
//  - each reader's observed row count never decreases (appends only add);
//  - every append is visible at the end;
//  - rows written by rule firings equal DBCRON's own fire count.
TEST(EngineConcurrencyTest, WritersReadersAndCronInterleave) {
  EngineOptions opts;
  opts.pool_threads = 4;
  auto engine = Engine::Create(opts).value();
  auto setup = engine->CreateSession();
  ASSERT_TRUE(setup->Execute("create table events (writer int, seq int)").ok());
  ASSERT_TRUE(setup->Execute("create table fires (day int)").ok());
  ASSERT_TRUE(setup
                  ->Execute("declare rule daily on DAYS do "
                            "append fires (day = fire_day())")
                  .ok());

  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kAppendsPerWriter = 200;
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto session = engine->CreateSession();
      for (int i = 0; i < kAppendsPerWriter; ++i) {
        auto r = session->Execute("append events (writer = " +
                                  std::to_string(w) +
                                  ", seq = " + std::to_string(i) + ")");
        if (!r.ok()) failed.store(true);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      auto session = engine->CreateSession();
      int64_t last_seen = 0;
      for (int i = 0; i < 100; ++i) {
        auto rows = session->Execute("retrieve (e.seq) from e in events");
        if (!rows.ok()) {
          failed.store(true);
          continue;
        }
        int64_t n = static_cast<int64_t>(rows.value().rows.size());
        if (n < last_seen) failed.store(true);  // time ran backwards
        last_seen = n;
      }
    });
  }
  // The clock advances concurrently with the traffic; firings serialize
  // against the writes on the exclusive lock.
  threads.emplace_back([&] {
    for (TimePoint day = 10; day <= 120; day += 10) {
      if (!engine->AdvanceTo(day).ok()) failed.store(true);
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  auto events = MustOk(setup->Execute("retrieve (e.seq) from e in events"));
  EXPECT_EQ(RowCount(events), kWriters * kAppendsPerWriter);
  auto fires = MustOk(setup->Execute("retrieve (f.day) from f in fires"));
  EXPECT_EQ(RowCount(fires), static_cast<int64_t>(engine->CronStats().fires));
  EXPECT_EQ(engine->Now(), 120);
  EXPECT_TRUE(engine->Stop().ok());
}

// Calendar DDL racing calendar evaluation: writers define fresh derived
// calendars; readers evaluate both the stable seed calendar and whatever
// definitions have landed.  Afterwards every definition must resolve.
TEST(EngineConcurrencyTest, CatalogDefinesRaceEvaluations) {
  auto engine = Engine::Create().value();
  {
    auto setup = engine->CreateSession();
    ASSERT_TRUE(
        setup->Execute("define calendar Base as [2]/DAYS:during:WEEKS").ok());
  }

  constexpr int kDefiners = 3;
  constexpr int kPerDefiner = 25;
  constexpr int kEvaluators = 4;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int d = 0; d < kDefiners; ++d) {
    threads.emplace_back([&, d] {
      auto session = engine->CreateSession();
      for (int i = 0; i < kPerDefiner; ++i) {
        std::string name =
            "Cal_" + std::to_string(d) + "_" + std::to_string(i);
        // Derived both from primitives and from Base, so definition
        // compiles resolve concurrently with other defines.
        auto st = session->Execute("define calendar " + name +
                                   " as Base + [" + std::to_string(i + 1) +
                                   "]/DAYS:during:MONTHS");
        if (!st.ok()) failed.store(true);
      }
    });
  }
  for (int e = 0; e < kEvaluators; ++e) {
    threads.emplace_back([&] {
      auto session = engine->CreateSession();
      for (int i = 0; i < 120; ++i) {
        auto v = session->Execute("cal Base:intersects:MONTHS");
        if (!v.ok()) failed.store(true);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  auto session = engine->CreateSession();
  for (int d = 0; d < kDefiners; ++d) {
    for (int i = 0; i < kPerDefiner; ++i) {
      std::string name = "Cal_" + std::to_string(d) + "_" + std::to_string(i);
      EXPECT_TRUE(session->Execute("cal " + name).ok()) << name;
    }
  }
}

// The pool path: a read-mostly workload issued via ExecuteAsync from many
// client threads at once, racing a writer.  Checks the futures all
// resolve and the final state is exact.
TEST(EngineConcurrencyTest, AsyncPoolExecution) {
  EngineOptions opts;
  opts.pool_threads = 4;
  auto engine = Engine::Create(opts).value();
  auto setup = engine->CreateSession();
  ASSERT_TRUE(setup->Execute("create table kv (k int, v int)").ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(setup
                    ->Execute("append kv (k = " + std::to_string(i) +
                              ", v = " + std::to_string(i * i) + ")")
                    .ok());
  }

  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(256);
  for (int i = 0; i < 256; ++i) {
    if (i % 16 == 0) {
      futures.push_back(engine->ExecuteAsync(
          "append kv (k = " + std::to_string(100 + i) + ", v = 0)"));
    } else {
      futures.push_back(
          engine->ExecuteAsync("retrieve (e.k, e.v) from e in kv"));
    }
  }
  for (auto& f : futures) {
    auto r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  auto final_rows = MustOk(setup->Execute("retrieve (e.k) from e in kv"));
  EXPECT_EQ(RowCount(final_rows), 16 + 256 / 16);
}

// Many sessions hammering the same statement texts while a DDL thread
// creates and drops tables: GetOrCompile hits race InvalidateTables and
// racing-duplicate compiles race each other's insert.  Run under
// -DCALDB_SANITIZE=thread this is the statement cache's race test; the
// visible invariants are that every execution still succeeds (or fails
// only because its table is legitimately gone) and the accounting adds
// up.
TEST(EngineConcurrencyTest, StatementCacheSharingRacesInvalidation) {
  EngineOptions opts;
  opts.stmt_cache_entries = 64;
  auto engine = Engine::Create(opts).value();
  {
    auto setup = engine->CreateSession();
    ASSERT_TRUE(setup->Execute("create table stable (x int)").ok());
    ASSERT_TRUE(setup->Execute("append stable (x = 1)").ok());
  }

  constexpr int kExecutors = 4;
  constexpr int kIterations = 150;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // Executors share a handful of statement texts, so they constantly
  // collide on the same cache entries (and re-insert them after the DDL
  // thread's invalidations).
  for (int e = 0; e < kExecutors; ++e) {
    threads.emplace_back([&, e] {
      auto session = engine->CreateSession();
      for (int i = 0; i < kIterations; ++i) {
        auto rows = session->Execute("retrieve (s.x) from s in stable");
        if (!rows.ok() || rows->rows.empty()) failed.store(true);
        if (!session->Execute("append stable (x = " + std::to_string(e) + ")")
                 .ok()) {
          failed.store(true);
        }
      }
    });
  }
  // The DDL thread churns a scratch table: every create/drop invalidates
  // cache entries referencing it while the executors' statements on
  // `stable` must keep their entries.
  threads.emplace_back([&] {
    auto session = engine->CreateSession();
    for (int i = 0; i < 40; ++i) {
      if (!session->Execute("create table scratch (y int)").ok()) {
        failed.store(true);
      }
      (void)session->Execute("append scratch (y = 1)");
      if (!session->Execute("drop table scratch").ok()) failed.store(true);
    }
  });
  // Prepared handles stay valid across concurrent invalidations: the
  // handle is immutable; invalidation only drops the cache's reference.
  threads.emplace_back([&] {
    auto session = engine->CreateSession();
    auto prepared = session->Prepare("retrieve (s.x) from s in stable");
    if (!prepared.ok()) {
      failed.store(true);
      return;
    }
    for (int i = 0; i < kIterations; ++i) {
      auto rows = prepared->Execute();
      if (!rows.ok() || rows->rows.empty()) failed.store(true);
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  StatementCache::Stats stats = engine->StatementCacheStats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.invalidations, 0);
  EXPECT_LE(stats.size, stats.capacity);
  auto session = engine->CreateSession();
  auto final_rows = MustOk(session->Execute("retrieve (s.x) from s in stable"));
  EXPECT_EQ(RowCount(final_rows), 1 + kExecutors * kIterations);
  EXPECT_TRUE(engine->Stop().ok());
}

// Sessions executing distinct literal texts of one shape at once: every
// text lifts into the same cached entry, so the threads share one
// compiled handle and bind their own literals to it.  Each reader must
// see exactly its own writes back.
TEST(EngineConcurrencyTest, DistinctLiteralsShareOneShapeEntry) {
  auto engine = Engine::Create().value();
  {
    auto setup = engine->CreateSession();
    ASSERT_TRUE(setup->Execute("create table kv (k int, v int)").ok());
    ASSERT_TRUE(setup->Execute("create index on kv (k)").ok());
  }
  constexpr int kSessions = 4;
  constexpr int kKeys = 150;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      auto session = engine->CreateSession();
      for (int i = 0; i < kKeys; ++i) {
        const int key = s * 1000 + i;
        if (!session
                 ->Execute("append kv (k = " + std::to_string(key) +
                           ", v = " + std::to_string(3 * key) + ")")
                 .ok()) {
          failed.store(true);
        }
        auto rows = session->Execute("retrieve (e.v) from e in kv where e.k = " +
                                     std::to_string(key));
        if (!rows.ok() || rows->rows.size() != 1 ||
            rows->rows[0][0].AsInt().value_or(0) != 3 * key) {
          failed.store(true);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  int appends = 0;
  int reads = 0;
  for (const StatementCache::EntryInfo& entry : engine->StatementCacheEntries()) {
    if (entry.normalized_text == "append kv (k = $1, v = $2)") ++appends;
    if (entry.normalized_text == "retrieve (e.v) from e in kv where e.k = $1") {
      ++reads;
    }
  }
  EXPECT_EQ(appends, 1);
  EXPECT_EQ(reads, 1);
  // A racing first compile may insert once per session; every later
  // execution hits.
  const StatementCache::Stats stats = engine->StatementCacheStats();
  EXPECT_LE(stats.misses, 2 + 2 * kSessions);
  EXPECT_GE(stats.hits, 2 * kSessions * kKeys - 2 * kSessions);
  auto session = engine->CreateSession();
  auto all = MustOk(session->Execute("retrieve (e.k) from e in kv"));
  EXPECT_EQ(RowCount(all), kSessions * kKeys);
  EXPECT_TRUE(engine->Stop().ok());
}

// The per-table lock manager's stress test (PR 10): readers on table A
// must make progress WHILE a writer holds table B — the property the old
// single-mutex engine could not provide — and fallback statements
// (retrieve-into, DDL, rule firings) race both without breaking any
// serializable-visible invariant.
//
// Progress is witnessed without timing assumptions: the writer on B runs
// ONE long statement (a full-scan replace over a large table) and flags
// the interval around it; readers on A count retrieves completed while
// the flag was up for the whole retrieve.  Under per-table locking those
// retrieves only share B's intent layer, so across many rounds at least
// one must land strictly inside a replace — under a single global mutex,
// none ever could.
TEST(EngineConcurrencyTest, DisjointTableReadersProgressUnderWriter) {
  auto engine = Engine::Create().value();
  {
    auto setup = engine->CreateSession();
    ASSERT_TRUE(setup->Execute("create table a_small (x int)").ok());
    ASSERT_TRUE(setup->Execute("append a_small (x = 1)").ok());
    ASSERT_TRUE(setup->Execute("create table b_big (v int)").ok());
    // Big enough that one full-scan replace takes visible wall time.
    for (int i = 0; i < 4000; ++i) {
      ASSERT_TRUE(
          setup->Execute("append b_big (v = " + std::to_string(i) + ")").ok());
    }
  }

  constexpr int kRounds = 60;
  std::atomic<bool> writer_busy{false};
  std::atomic<bool> done{false};
  std::atomic<int64_t> overlapped_reads{0};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    auto session = engine->CreateSession();
    for (int round = 0; round < kRounds && !failed.load(); ++round) {
      writer_busy.store(true, std::memory_order_release);
      auto r = session->Execute("replace b in b_big (v = b.v + 1)");
      writer_busy.store(false, std::memory_order_release);
      if (!r.ok() || r->affected != 4000) failed.store(true);
    }
    done.store(true, std::memory_order_release);
  });
  std::thread reader([&] {
    auto session = engine->CreateSession();
    while (!done.load(std::memory_order_acquire)) {
      const bool busy_before = writer_busy.load(std::memory_order_acquire);
      auto rows = session->Execute("retrieve (s.x) from s in a_small");
      const bool busy_after = writer_busy.load(std::memory_order_acquire);
      if (!rows.ok() || rows->rows.size() != 1) {
        failed.store(true);
        return;
      }
      // Only count a retrieve bracketed by the same replace: it provably
      // ran while the writer held b_big exclusively.
      if (busy_before && busy_after) {
        overlapped_reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Fallback statements race the footprint traffic from a third thread:
  // retrieve-into (creates a table), DDL, and a temporal-rule firing all
  // take the global exclusive path and must interleave cleanly.
  std::thread fallback([&] {
    auto session = engine->CreateSession();
    if (!session
             ->Execute("declare rule tick on DAYS do "
                       "append a_small (x = 0)")
             .ok()) {
      failed.store(true);
      return;
    }
    for (int i = 0; !done.load(std::memory_order_acquire) && i < 1000; ++i) {
      std::string scratch = "scratch_" + std::to_string(i);
      if (!session
               ->Execute("retrieve into " + scratch +
                         " (b.v) from b in b_big where b.v < 0")
               .ok()) {
        failed.store(true);
      }
      if (!session->Execute("drop table " + scratch).ok()) failed.store(true);
    }
    if (!session->Execute("drop temporal rule tick").ok()) failed.store(true);
  });
  writer.join();
  reader.join();
  fallback.join();
  EXPECT_FALSE(failed.load());
  // The rule firing appended into a_small under the fallback path while
  // readers held it shared — but only via AdvanceTo, which this test
  // never calls, so a_small still has exactly its seed row; the invariant
  // the reader checked every iteration held throughout.  The progress
  // property itself:
  EXPECT_GT(overlapped_reads.load(), 0)
      << "no retrieve on a_small completed inside a replace of b_big: "
         "disjoint-table readers are being serialized against the writer";
  EXPECT_TRUE(engine->Stop().ok());
}

// Disjoint-table writers: N threads each own a private table and hammer
// appends.  Exact final counts show per-table exclusive locks lose no
// writes; a concurrent whole-database reader (WithDbRead — the global
// exclusive path) sees consistent totals while they run.
TEST(EngineConcurrencyTest, DisjointTableWritersKeepExactCounts) {
  auto engine = Engine::Create().value();
  constexpr int kWriters = 4;
  constexpr int kAppends = 300;
  {
    auto setup = engine->CreateSession();
    for (int w = 0; w < kWriters; ++w) {
      ASSERT_TRUE(
          setup->Execute("create table own_" + std::to_string(w) + " (x int)")
              .ok());
    }
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto session = engine->CreateSession();
      const std::string stmt =
          "append own_" + std::to_string(w) + " (x = 1)";
      for (int i = 0; i < kAppends; ++i) {
        if (!session->Execute(stmt).ok()) failed.store(true);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      engine->WithDbRead([&](const Database& db) {
        for (int w = 0; w < kWriters; ++w) {
          auto table = db.GetTable("own_" + std::to_string(w));
          if (!table.ok()) failed.store(true);
        }
        return 0;
      });
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  auto session = engine->CreateSession();
  for (int w = 0; w < kWriters; ++w) {
    auto rows = MustOk(
        session->Execute("retrieve (t.x) from t in own_" + std::to_string(w)));
    EXPECT_EQ(RowCount(rows), kAppends) << "own_" << w;
  }
  EXPECT_TRUE(engine->Stop().ok());
}

// Destruction with traffic in flight: Engine::~Engine stops DBCRON and
// drains the pool without losing already-queued work or deadlocking.
// Client threads look up next firings on the live rule plans, as the
// benchmark's trace mode does, while DBCRON fires the same rules and so
// fills and reads the same next-fire memos.  Every answer must match a
// cold copy of the plan; under TSan, any unguarded memo access fails.
TEST(EngineConcurrencyTest, NextFireLookupsRaceFirings) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table fires (rule int, day int)").ok());
  const std::vector<std::string> exprs = {"[2]/DAYS:during:WEEKS",
                                          "[5]/DAYS:during:WEEKS",
                                          "[n]/DAYS:during:MONTHS",
                                          "[15]/DAYS:during:MONTHS"};
  for (size_t i = 0; i < exprs.size(); ++i) {
    const std::string n = std::to_string(i);
    ASSERT_TRUE(session
                    ->Execute("declare rule r" + n + " on " + exprs[i] +
                              " do append fires (rule = " + n +
                              ", day = $1)")
                    .ok());
  }
  constexpr TimePoint kLastDay = 800;  // over two year boundaries
  const TimePoint horizon = engine->options().rule_horizon;
  std::vector<std::shared_ptr<const Plan>> plans;
  // expected[i][d]: rule i's next firing after day d, from a cold copy.
  std::vector<std::vector<std::optional<TimePoint>>> expected;
  for (size_t i = 0; i < exprs.size(); ++i) {
    TemporalRule rule = engine
                            ->WithRulesRead([&](const TemporalRuleManager& m) {
                              return m.GetRuleByName("r" + std::to_string(i));
                            })
                            .value();
    plans.push_back(rule.plan);
    const Plan cold = *rule.plan;
    std::vector<std::optional<TimePoint>> next(kLastDay + 1);
    for (TimePoint d = 1; d <= kLastDay; ++d) {
      next[d] = engine->catalog().NextFireDayForPlan(cold, d, horizon).value();
    }
    expected.push_back(std::move(next));
  }

  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; !done.load() || round == 0; ++round) {
        for (TimePoint d = 1 + c; d <= kLastDay; d += 3) {
          for (size_t i = 0; i < plans.size(); ++i) {
            auto next =
                engine->catalog().NextFireDayForPlan(*plans[i], d, horizon);
            if (!next.ok() || *next != expected[i][d]) failed.store(true);
          }
        }
      }
    });
  }
  for (TimePoint day = 2; day <= kLastDay; day += 5) {
    if (!engine->AdvanceTo(day).ok()) failed.store(true);
  }
  done.store(true);
  for (auto& t : clients) t.join();
  EXPECT_FALSE(failed.load());

  auto fires = session->Execute("retrieve (f.day) from f in fires");
  ASSERT_TRUE(fires.ok());
  EXPECT_EQ(static_cast<int64_t>(fires->rows.size()),
            engine->CronStats().fires);
  EXPECT_TRUE(engine->Stop().ok());
}

TEST(EngineConcurrencyTest, CleanShutdownUnderLoad) {
  for (int round = 0; round < 3; ++round) {
    EngineOptions opts;
    opts.pool_threads = 3;
    auto engine = Engine::Create(opts).value();
    auto session = engine->CreateSession();
    ASSERT_TRUE(session->Execute("create table t (x int)").ok());
    std::vector<std::future<Result<QueryResult>>> futures;
    for (int i = 0; i < 64; ++i) {
      futures.push_back(engine->ExecuteAsync("append t (x = 1)"));
    }
    std::thread advancer([&] { (void)engine->AdvanceTo(50); });
    EXPECT_TRUE(engine->Stop().ok());
    advancer.join();
    int64_t succeeded = 0;
    for (auto& f : futures) {
      if (f.get().ok()) ++succeeded;
    }
    // Queued-before-shutdown tasks ran; tasks rejected after the cutoff
    // failed cleanly.  Nothing hangs, nothing crashes.
    auto rows = session->Execute("retrieve (t.x) from t in t");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(static_cast<int64_t>(rows->rows.size()), succeeded);
  }
}

}  // namespace
}  // namespace caldb
