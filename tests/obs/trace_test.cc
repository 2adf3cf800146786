#include "obs/trace.h"

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "tests/obs/json_check.h"

namespace caldb::obs {
namespace {

using caldb::test::JsonValue;
using caldb::test::ParseJson;

TEST(Tracer, RecordsFinishedSpans) {
  Tracer tracer(16);
  {
    Tracer::Span span = tracer.StartSpan("work");
    EXPECT_TRUE(span.active());
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_GE(spans[0].duration_ns(), 0);
}

TEST(Tracer, NestingRecordsParent) {
  Tracer tracer(16);
  uint64_t outer_id = 0;
  {
    Tracer::Span outer = tracer.StartSpan("outer");
    outer_id = outer.id();
    {
      Tracer::Span inner = tracer.StartSpan("inner");
      EXPECT_NE(inner.id(), outer_id);
    }
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Ring order is finish order: inner first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent_id, 0u);
}

TEST(Tracer, EndIsIdempotentAndEarly) {
  Tracer tracer(16);
  Tracer::Span span = tracer.StartSpan("early");
  span.End();
  span.End();
  EXPECT_FALSE(span.active());
  EXPECT_EQ(tracer.Snapshot().size(), 1u);
}

TEST(Tracer, AttrsAppearInRecord) {
  Tracer tracer(16);
  {
    Tracer::Span span = tracer.StartSpan("attr");
    span.AddAttr("calendar", "paydays");
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].first, "calendar");
  EXPECT_EQ(spans[0].attrs[0].second, "paydays");
}

// Spans keep their name pointer, so dynamic names must outlive the tracer.
std::vector<std::string> SpanNames(int n) {
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) names.push_back("s" + std::to_string(i));
  return names;
}

TEST(Tracer, RingWrapsOverwritingOldest) {
  const std::vector<std::string> names = SpanNames(10);
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    Tracer::Span span = tracer.StartSpan(names[i].c_str());
  }
  EXPECT_EQ(tracer.total_finished(), 10);
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first: the last four spans survive.
  EXPECT_EQ(spans[0].name, "s6");
  EXPECT_EQ(spans[3].name, "s9");
}

TEST(Tracer, DisabledSpansAreInactive) {
  Tracer tracer(16);
  tracer.set_enabled(false);
  {
    Tracer::Span span = tracer.StartSpan("ignored");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(tracer.Snapshot().empty());
  tracer.set_enabled(true);
  { Tracer::Span span = tracer.StartSpan("seen"); }
  EXPECT_EQ(tracer.Snapshot().size(), 1u);
}

TEST(Tracer, ClearEmptiesRing) {
  Tracer tracer(16);
  { Tracer::Span span = tracer.StartSpan("gone"); }
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.total_finished(), 0);
}

TEST(Tracer, ToStringIndentsChildren) {
  Tracer tracer(16);
  {
    Tracer::Span outer = tracer.StartSpan("outer");
    Tracer::Span inner = tracer.StartSpan("inner");
  }
  std::string rendered = tracer.ToString();
  size_t outer_pos = rendered.find("outer");
  size_t inner_pos = rendered.find("  inner");
  EXPECT_NE(outer_pos, std::string::npos);
  EXPECT_NE(inner_pos, std::string::npos);
  // Parent renders before (above) the indented child.
  EXPECT_LT(outer_pos, inner_pos);
}

TEST(Tracer, RingWrapsPastDefaultCapacity) {
  const int kSpans = static_cast<int>(Tracer::kDefaultCapacity) + 100;
  const std::vector<std::string> names = SpanNames(kSpans);
  Tracer tracer;  // default 4096
  ASSERT_EQ(tracer.capacity(), Tracer::kDefaultCapacity);
  for (int i = 0; i < kSpans; ++i) {
    Tracer::Span span = tracer.StartSpan(names[i].c_str());
  }
  EXPECT_EQ(tracer.total_finished(), kSpans);
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), Tracer::kDefaultCapacity);
  // Oldest surviving span is the 101st; newest is the last started.
  EXPECT_EQ(spans.front().name, "s100");
  EXPECT_EQ(spans.back().name, "s" + std::to_string(kSpans - 1));
}

TEST(TraceContext, CurrentContextCapturesInnermostSpan) {
  Tracer tracer(16);
  EXPECT_EQ(Tracer::CurrentContext().span_id, 0u);
  {
    Tracer::Span outer = tracer.StartSpan("outer");
    EXPECT_EQ(Tracer::CurrentContext().span_id, outer.id());
    {
      Tracer::Span inner = tracer.StartSpan("inner");
      EXPECT_EQ(Tracer::CurrentContext().span_id, inner.id());
    }
    EXPECT_EQ(Tracer::CurrentContext().span_id, outer.id());
  }
  EXPECT_EQ(Tracer::CurrentContext().span_id, 0u);
}

TEST(TraceContext, NullContextIsolatesParentage) {
  Tracer tracer(16);
  {
    Tracer::Span outer = tracer.StartSpan("outer");
    {
      ScopedTraceContext isolate{TraceContext{}};
      Tracer::Span orphan = tracer.StartSpan("orphan");
      EXPECT_EQ(Tracer::CurrentContext().span_id, orphan.id());
    }
    // The previous stack is restored, stale entries and all.
    EXPECT_EQ(Tracer::CurrentContext().span_id, outer.id());
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "orphan");
  EXPECT_EQ(spans[0].parent_id, 0u);
}

TEST(TraceContext, AdoptionParentsAcrossThreads) {
  Tracer tracer(16);
  uint64_t root_id = 0;
  {
    Tracer::Span root = tracer.StartSpan("submit");
    root_id = root.id();
    const TraceContext ctx = Tracer::CurrentContext();
    std::thread worker([&] {
      ScopedTraceContext adopt{ctx};
      Tracer::Span child = tracer.StartSpan("work");
    });
    worker.join();
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].parent_id, root_id);
  // The two spans ran on different threads.
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST(Tracer, ExportChromeTraceIsValidTraceEventJson) {
  Tracer tracer(16);
  uint64_t parent_id = 0;
  {
    Tracer::Span outer = tracer.StartSpan("db.execute");
    parent_id = outer.id();
    Tracer::Span inner = tracer.StartSpan("cron.fire");
    inner.AddAttr("rule", "pay\"day");
  }
  std::optional<JsonValue> parsed = ParseJson(tracer.ExportChromeTrace());
  ASSERT_TRUE(parsed.has_value()) << tracer.ExportChromeTrace();
  const JsonValue* events = parsed->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items.size(), 2u);
  for (const JsonValue& event : events->items) {
    EXPECT_EQ(event.Get("ph")->str, "X");
    EXPECT_EQ(event.Get("cat")->str, "caldb");
    EXPECT_GE(event.Get("ts")->number, 0.0);
    EXPECT_GE(event.Get("dur")->number, 0.0);
    EXPECT_GE(event.Get("tid")->number, 1.0);
    ASSERT_NE(event.Get("args"), nullptr);
  }
  // Finish order: inner first; its args carry parent and the attr.
  const JsonValue& inner_event = events->items[0];
  EXPECT_EQ(inner_event.Get("name")->str, "cron.fire");
  EXPECT_DOUBLE_EQ(inner_event.Get("args")->Get("parent")->number,
                   static_cast<double>(parent_id));
  EXPECT_EQ(inner_event.Get("args")->Get("rule")->str, "pay\"day");
}

TEST(Tracer, ExportChromeTraceEmptyRingIsStillValid) {
  Tracer tracer(16);
  std::optional<JsonValue> parsed = ParseJson(tracer.ExportChromeTrace());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->Get("traceEvents"), nullptr);
  EXPECT_TRUE(parsed->Get("traceEvents")->items.empty());
}

// --- many threads ----------------------------------------------------------

TEST(TracerThreads, RecordWhileAnotherThreadSnapshotsAndClears) {
  Tracer tracer(256);
  constexpr int kWriters = 4;
  constexpr int kSpansPerWriter = 20000;
  std::atomic<int> writers_done{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&tracer, &writers_done, w] {
      for (int i = 0; i < kSpansPerWriter; ++i) {
        Tracer::Span outer = tracer.StartSpan("outer");
        outer.AddAttr("writer", w);
        Tracer::Span inner = tracer.StartSpan("inner");
      }
      writers_done.fetch_add(1);
    });
  }
  int snapshots = 0;
  while (writers_done.load() < kWriters || snapshots < 10) {
    std::vector<SpanRecord> spans = tracer.Snapshot();
    ASSERT_LE(spans.size(), tracer.capacity());
    for (size_t i = 1; i < spans.size(); ++i) {
      ASSERT_LE(spans[i - 1].end_ns, spans[i].end_ns) << "not finish order";
    }
    for (const SpanRecord& s : spans) {
      ASSERT_TRUE(s.name == "outer" || s.name == "inner") << s.name;
    }
    if (++snapshots % 4 == 0) tracer.Clear();
    EXPECT_FALSE(tracer.ExportChromeTrace().empty());
  }
  for (std::thread& t : writers) t.join();
  // After the writers are done, one more round fills the rings again.
  tracer.Clear();
  EXPECT_EQ(tracer.total_finished(), 0);
  { Tracer::Span span = tracer.StartSpan("after"); }
  EXPECT_EQ(tracer.total_finished(), 1);
  ASSERT_EQ(tracer.Snapshot().size(), 1u);
}

TEST(TracerThreads, SnapshotIsTheNewestSpansInFinishOrder) {
  // Threads take strict turns (one span each, round robin), so the
  // global finish order is known — the "seq" attribute — and every
  // chunk of every ring interleaves with the others.
  Tracer tracer(256);  // chunks of 4 spans
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 150;
  std::mutex mu;
  std::condition_variable cv;
  int64_t next_seq = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return next_seq % kThreads == t; });
        {
          Tracer::Span span = tracer.StartSpan("turn");
          span.AddAttr("seq", next_seq);
        }
        ++next_seq;
        cv.notify_all();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t total = kThreads * kSpansPerThread;
  EXPECT_EQ(tracer.total_finished(), total);

  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_LE(spans.size(), tracer.capacity());
  // Each thread may leave part of a chunk unfilled and part of a chunk
  // older than the newest recycled span.
  ASSERT_GE(spans.size(),
            tracer.capacity() + tracer.chunk_slots() -
                2 * kThreads * tracer.chunk_slots());
  // An unbroken run ending at the newest span, oldest first.
  for (size_t i = 0; i < spans.size(); ++i) {
    ASSERT_EQ(spans[i].attrs.size(), 1u);
    EXPECT_EQ(std::stoll(spans[i].attrs[0].second),
              total - static_cast<int64_t>(spans.size() - i))
        << "at " << i;
  }
  std::set<uint32_t> tids;
  for (const SpanRecord& s : spans) tids.insert(s.tid);
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

TEST(TracerThreads, SpansOfAJoinedThreadStayVisible) {
  Tracer tracer(16);
  uint32_t worker_tid = 0;
  std::thread worker([&] {
    worker_tid = CurrentThreadId();
    Tracer::Span span = tracer.StartSpan("worker");
    span.AddAttr("rows", 3);
  });
  worker.join();
  { Tracer::Span span = tracer.StartSpan("main"); }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "worker");
  EXPECT_EQ(spans[0].tid, worker_tid);
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].second, "3");
  EXPECT_EQ(spans[1].name, "main");
  EXPECT_NE(spans[1].tid, worker_tid);
}

TEST(TracerThreads, ContextParentageCrossesManyThreads) {
  Tracer tracer(64);
  uint64_t root_id = 0;
  {
    Tracer::Span root = tracer.StartSpan("submit");
    root_id = root.id();
    const TraceContext ctx = Tracer::CurrentContext();
    std::vector<std::thread> workers;
    for (int i = 0; i < 3; ++i) {
      workers.emplace_back([&tracer, ctx] {
        ScopedTraceContext adopt{ctx};
        Tracer::Span hop = tracer.StartSpan("hop");
        // A second hop from this worker parents to this worker's span.
        const TraceContext inner_ctx = Tracer::CurrentContext();
        std::thread nested([&tracer, inner_ctx] {
          ScopedTraceContext adopt_inner{inner_ctx};
          Tracer::Span leaf = tracer.StartSpan("leaf");
        });
        nested.join();
      });
    }
    for (std::thread& t : workers) t.join();
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 7u);
  std::map<uint64_t, SpanRecord> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = s;
  int hops = 0;
  int leaves = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "hop") {
      ++hops;
      EXPECT_EQ(s.parent_id, root_id);
    } else if (s.name == "leaf") {
      ++leaves;
      ASSERT_EQ(by_id.count(s.parent_id), 1u);
      EXPECT_EQ(by_id[s.parent_id].name, "hop");
      EXPECT_NE(by_id[s.parent_id].tid, s.tid);
    }
  }
  EXPECT_EQ(hops, 3);
  EXPECT_EQ(leaves, 3);
  // The root finished last.
  EXPECT_EQ(spans.back().name, "submit");
}

TEST(Tracer, AttrsAreInlineAndBounded) {
  Tracer tracer(16);
  {
    Tracer::Span span = tracer.StartSpan("attrs");
    span.AddAttr("a", 1);
    span.AddAttr("b", "a value longer than fifteen bytes");
    span.AddAttr("c", "\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9"
                      "\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9");
    span.AddAttr("d", -42);
    span.AddAttr("e", "dropped");  // past kMaxAttrs
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attrs.size(), Tracer::kMaxAttrs);
  EXPECT_EQ(spans[0].attrs[0].second, "1");
  EXPECT_EQ(spans[0].attrs[1].second, "a value longer ");
  // Cut at a character boundary: seven two-byte characters, not 7.5.
  EXPECT_EQ(spans[0].attrs[2].second.size(), 14u);
  EXPECT_EQ(spans[0].attrs[3].second, "-42");
}

TEST(Tracer, SpansWithFourAttrsSurviveChunkRotation) {
  // Such a span takes two slots; rotation never separates them.
  Tracer tracer(8);
  for (int i = 0; i < 50; ++i) {
    Tracer::Span span = tracer.StartSpan("fire");
    span.AddAttr("rule_id", i);
    span.AddAttr("scheduled_day", 10 + i);
    span.AddAttr("fired_day", 10 + i);
    span.AddAttr("rule", "r");
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_FALSE(spans.empty());
  ASSERT_LE(spans.size(), tracer.capacity());
  for (const SpanRecord& s : spans) {
    ASSERT_EQ(s.attrs.size(), 4u);
    EXPECT_EQ(s.attrs[3].second, "r");
  }
  EXPECT_EQ(spans.back().attrs[0].second, "49");
}

TEST(Tracer, CallerSuppliedStampsBoundTheSpan) {
  Tracer tracer(16);
  {
    Tracer::Span span = tracer.StartSpan("stamped", 1000);
    span.End(2500);
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].start_ns, 1000);
  EXPECT_EQ(spans[0].end_ns, 2500);
}

}  // namespace
}  // namespace caldb::obs
