// The evaluator's bounded generated-calendar cache: LRU order, entry and
// byte budgets, covering-window lookup, and the eviction counter.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "lang/evaluator.h"
#include "obs/obs.h"

namespace caldb {
namespace {

GenCache::Key K(int g, int unit, TimePoint lo, TimePoint hi) {
  return GenCache::Key(g, unit, lo, hi);
}

Calendar DaysCalendar(int64_t n) {
  std::vector<Interval> v;
  for (int64_t i = 1; i <= n; ++i) v.push_back({i, i});
  return Calendar::Order1(Granularity::kDays, std::move(v));
}

TEST(GenCacheTest, FindExactAndMiss) {
  GenCache cache;
  cache.SetBudget(8, 1u << 20);
  cache.Insert(K(1, 1, 1, 100), DaysCalendar(100));
  ASSERT_NE(cache.Find(K(1, 1, 1, 100)), nullptr);
  EXPECT_EQ(cache.Find(K(1, 1, 1, 100))->TotalIntervals(), 100);
  EXPECT_EQ(cache.Find(K(1, 1, 1, 99)), nullptr);
  EXPECT_EQ(cache.Find(K(1, 2, 1, 100)), nullptr);
}

TEST(GenCacheTest, FindCoveringMatchesUnitAndWindow) {
  GenCache cache;
  cache.SetBudget(8, 1u << 20);
  cache.Insert(K(1, 1, 1, 100), DaysCalendar(100));
  // Narrower request in the same unit: covered.
  EXPECT_NE(cache.FindCovering(K(1, 1, 10, 50)), nullptr);
  // Wider request: not covered.
  EXPECT_EQ(cache.FindCovering(K(1, 1, 10, 200)), nullptr);
  // Different unit: never covered.
  EXPECT_EQ(cache.FindCovering(K(1, 2, 10, 50)), nullptr);
}

// FindCovering scans only the (granularity, unit) run of the index; it must
// still return the first covering entry in key order, as a scan of every
// entry would.  Entries are told apart by their interval counts.
TEST(GenCacheTest, FindCoveringReturnsFirstCoveringEntryInKeyOrder) {
  GenCache cache;
  cache.SetBudget(64, 64u << 20);
  std::map<GenCache::Key, int64_t> all;
  std::mt19937_64 rng(19);
  auto uniform = [&](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  for (int64_t n = 1; n <= 40; ++n) {
    const TimePoint lo = uniform(-50, 50);
    const GenCache::Key key =
        K(static_cast<int>(uniform(0, 2)), static_cast<int>(uniform(0, 2)), lo,
          lo + uniform(0, 60));
    if (all.count(key) != 0) continue;
    all[key] = n;
    cache.Insert(key, DaysCalendar(n));
  }
  for (int probe = 0; probe < 500; ++probe) {
    const TimePoint lo = uniform(-60, 60);
    const GenCache::Key want_key =
        K(static_cast<int>(uniform(0, 2)), static_cast<int>(uniform(0, 2)), lo,
          lo + uniform(0, 30));
    int64_t want = 0;
    for (const auto& [key, n] : all) {
      if (std::get<0>(key) == std::get<0>(want_key) &&
          std::get<1>(key) == std::get<1>(want_key) &&
          std::get<2>(key) <= std::get<2>(want_key) &&
          std::get<3>(key) >= std::get<3>(want_key)) {
        want = n;
        break;
      }
    }
    const Calendar* got = cache.FindCovering(want_key);
    EXPECT_EQ(got == nullptr ? 0 : got->TotalIntervals(), want);
  }
}

TEST(GenCacheTest, EntryBudgetEvictsLeastRecentlyUsed) {
  GenCache cache;
  cache.SetBudget(2, 1u << 20);
  obs::Counter* evictions =
      obs::Metrics().counter("caldb.eval.gen_cache.evictions");
  const int64_t before = evictions->value();

  cache.Insert(K(1, 1, 1, 10), DaysCalendar(10));
  cache.Insert(K(1, 1, 1, 20), DaysCalendar(20));
  // Touch the older entry so the newer one becomes the LRU victim.
  ASSERT_NE(cache.Find(K(1, 1, 1, 10)), nullptr);
  cache.Insert(K(1, 1, 1, 30), DaysCalendar(30));

  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(evictions->value(), before + 1);
  EXPECT_NE(cache.Find(K(1, 1, 1, 10)), nullptr);  // survived (touched)
  EXPECT_EQ(cache.Find(K(1, 1, 1, 20)), nullptr);  // evicted
  EXPECT_NE(cache.Find(K(1, 1, 1, 30)), nullptr);
}

TEST(GenCacheTest, ByteBudgetBoundsPayload) {
  GenCache cache;
  // Room for roughly one 1000-interval calendar, not two.
  const size_t one_entry = 1000 * sizeof(Interval) + 512;
  cache.SetBudget(64, one_entry);
  cache.Insert(K(1, 1, 1, 1000), DaysCalendar(1000));
  EXPECT_EQ(cache.entries(), 1u);
  cache.Insert(K(1, 1, 1001, 2000), DaysCalendar(1000));
  // The older entry was evicted to make room; bytes stay under budget.
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_LE(cache.bytes(), one_entry);
  EXPECT_EQ(cache.Find(K(1, 1, 1, 1000)), nullptr);
  EXPECT_NE(cache.Find(K(1, 1, 1001, 2000)), nullptr);
}

TEST(GenCacheTest, InsertReplacesExistingKey) {
  GenCache cache;
  cache.SetBudget(4, 1u << 20);
  cache.Insert(K(1, 1, 1, 10), DaysCalendar(10));
  cache.Insert(K(1, 1, 1, 10), DaysCalendar(5));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.Find(K(1, 1, 1, 10))->TotalIntervals(), 5);
}

TEST(GenCacheTest, HitsShareTheRep) {
  GenCache cache;
  cache.SetBudget(4, 1u << 20);
  Calendar original = DaysCalendar(100);
  const Interval* buffer = original.intervals().data();
  cache.Insert(K(1, 1, 1, 100), std::move(original));
  const Calendar* hit = cache.Find(K(1, 1, 1, 100));
  ASSERT_NE(hit, nullptr);
  // The cached value still wraps the same leaf buffer: a hit is a handle
  // copy, not an interval copy.
  EXPECT_EQ(hit->intervals().data(), buffer);
  Calendar out = *hit;
  EXPECT_EQ(out.intervals().data(), buffer);
}

TEST(GenCacheTest, ShrinkingBudgetEvictsImmediately) {
  GenCache cache;
  cache.SetBudget(8, 1u << 20);
  for (int i = 0; i < 6; ++i) {
    cache.Insert(K(1, 1, 100 * i + 1, 100 * (i + 1)), DaysCalendar(10));
  }
  EXPECT_EQ(cache.entries(), 6u);
  cache.SetBudget(3, 1u << 20);
  EXPECT_EQ(cache.entries(), 3u);
}

}  // namespace
}  // namespace caldb
