#include "obs/snapshot.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/obs/json_check.h"

namespace caldb::obs {
namespace {

using caldb::test::JsonValue;
using caldb::test::ParseJson;

TEST(CounterDeltas, ReportsIncrementsSincePreviousStep) {
  MetricRegistry registry;
  Counter* c = registry.counter("caldb.test.widgets");
  CounterDeltas deltas(&registry);

  c->Add(5);
  std::map<std::string, int64_t> step1 = deltas.Step();
  EXPECT_EQ(step1.at("caldb.test.widgets"), 5);

  c->Add(2);
  std::map<std::string, int64_t> step2 = deltas.Step();
  EXPECT_EQ(step2.at("caldb.test.widgets"), 2);

  // No movement: delta 0.
  std::map<std::string, int64_t> step3 = deltas.Step();
  EXPECT_EQ(step3.at("caldb.test.widgets"), 0);
}

TEST(CounterDeltas, SurvivesCounterReset) {
  MetricRegistry registry;
  Counter* c = registry.counter("caldb.test.reset");
  CounterDeltas deltas(&registry);
  c->Add(100);
  deltas.Step();
  registry.ResetAll();
  c->Add(3);
  // After a reset the value (3) is below the previous value (100); the
  // delta must not go negative — it reports the post-reset value.
  EXPECT_EQ(deltas.Step().at("caldb.test.reset"), 3);
}

TEST(CounterDeltas, PicksUpCountersRegisteredBetweenSteps) {
  MetricRegistry registry;
  CounterDeltas deltas(&registry);
  deltas.Step();
  registry.counter("caldb.test.latecomer")->Add(7);
  EXPECT_EQ(deltas.Step().at("caldb.test.latecomer"), 7);
}

TEST(Snapshotter, SnapshotLineIsValidJsonWithDeltas) {
  MetricRegistry registry;
  registry.counter("caldb.test.ticks")->Add(4);
  registry.gauge("caldb.test.depth")->Set(9);
  registry.histogram("caldb.test.lat_ns")->Record(1000);

  SnapshotterOptions opts;
  opts.registry = &registry;
  MetricsSnapshotter snapshotter(opts);
  const std::string line = snapshotter.SnapshotLine();
  std::optional<JsonValue> parsed = ParseJson(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  const JsonValue* counters = parsed->Get("counters_delta");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Get("caldb.test.ticks")->number, 4.0);
  const JsonValue* gauges = parsed->Get("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->Get("caldb.test.depth")->number, 9.0);
  const JsonValue* hist = parsed->Get("histograms");
  ASSERT_NE(hist, nullptr);
  const JsonValue* lat = hist->Get("caldb.test.lat_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->Get("count")->number, 1.0);

  // Second line: the tick delta is now zero, so it is omitted entirely.
  const std::string line2 = snapshotter.SnapshotLine();
  std::optional<JsonValue> parsed2 = ParseJson(line2);
  ASSERT_TRUE(parsed2.has_value()) << line2;
  EXPECT_EQ(parsed2->Get("counters_delta")->Get("caldb.test.ticks"), nullptr);
}

TEST(Snapshotter, WritesPeriodicLinesToFile) {
  MetricRegistry registry;
  registry.counter("caldb.test.flow")->Add(1);
  const std::string path =
      ::testing::TempDir() + "caldb_snapshotter_test.jsonl";
  std::remove(path.c_str());

  SnapshotterOptions opts;
  opts.path = path;
  opts.interval_ms = 10;
  opts.registry = &registry;
  {
    MetricsSnapshotter snapshotter(opts);
    ASSERT_TRUE(snapshotter.Start().ok());
    // Stop() takes a final snapshot even if the interval never elapsed.
    snapshotter.Stop();
    EXPECT_GE(snapshotter.snapshots(), 1);
  }

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  // Every line parses as JSON.
  size_t lines = 0;
  size_t start = 0;
  while (start < contents.size()) {
    size_t end = contents.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    std::optional<JsonValue> parsed =
        ParseJson(contents.substr(start, end - start));
    ASSERT_TRUE(parsed.has_value())
        << contents.substr(start, end - start);
    EXPECT_GT(parsed->Get("ts_us")->number, 0.0);
    ++lines;
    start = end + 1;
  }
  EXPECT_GE(lines, 1u);
}

TEST(Snapshotter, StartFailsOnUnopenablePath) {
  SnapshotterOptions opts;
  opts.path = "/nonexistent-dir-xyz/snap.jsonl";
  MetricsSnapshotter snapshotter(opts);
  EXPECT_FALSE(snapshotter.Start().ok());
}

TEST(RenderDashboard, ShowsVitalsFromDeltas) {
  MetricRegistry registry;
  registry.counter("caldb.engine.statements")->Add(100);
  registry.counter("caldb.cron.fires")->Add(3);
  registry.gauge("caldb.engine.pool.queue_depth")->Set(2);
  registry.histogram("caldb.engine.table_locks.wait_ns")->Record(3000);
  registry.counter("caldb.engine.table_locks.fallbacks")->Add(7);
  CounterDeltas deltas(&registry);
  const std::string frame = RenderDashboard(registry, deltas.Step(), 1.0);
  EXPECT_NE(frame.find("statements"), std::string::npos) << frame;
  EXPECT_NE(frame.find("100.0/s engine"), std::string::npos) << frame;
  EXPECT_NE(frame.find("cron"), std::string::npos) << frame;
  EXPECT_NE(frame.find("+3 fires"), std::string::npos) << frame;
  EXPECT_NE(frame.find("pool"), std::string::npos) << frame;
  // The lock line reads the lock manager's one wait histogram (3000 ns
  // lands in the [2048, 4096) bucket, reported by its upper bound) and
  // the global-exclusive fallbacks of the interval.
  EXPECT_NE(frame.find("lock wait    p99 4.0us (cumulative), global "
                       "fallbacks +7"),
            std::string::npos)
      << frame;
}

}  // namespace
}  // namespace caldb::obs
