// Tracer: RAII spans recorded into per-thread rings.
//
// A Span captures (name, start/end ns on the steady clock, parent span,
// up to kMaxAttrs key/value attributes).  Nesting is tracked per thread: a
// span started while another is open on the same thread records that span
// as its parent.
//
// Recording takes no shared lock and, once the tracer's chunks exist,
// allocates nothing.  A live span holds its name as the `const char*`
// literal its call site passes and its attributes inline (a literal key
// plus an integer or up to kAttrTextBytes of text).  On finish it is
// copied into a ring owned by the finishing thread, under that ring's own
// mutex — which only Snapshot and Clear contend for, plus one chunk
// rotation every chunk_slots() slots.  A span takes one 64-byte slot
// (one cache line), plus one per attribute past its first.
//
// A ring is a list of fixed chunks drawn from one pool per tracer:
// capacity() slots plus one spare chunk, however many threads trace.
// Once the pool is used up, a thread that fills its newest chunk recycles
// the chunk whose newest span finished first, from whichever ring holds
// it.  A thread's ring is created on its first span and kept after the
// thread exits.  Snapshot merges the rings by end time, drops spans no
// newer than the newest recycled one (so it returns an unbroken run of
// the most recent spans) and keeps the newest capacity().
//
// A span's start and end are either read from the clock or supplied by
// the caller: a statement timeline (Engine::RunImpl) reads the clock once
// per phase boundary and hands the same stamp to the span that ends there
// and the one that starts there.  A supplied end must not precede spans
// already finished on the thread.  A disabled tracer costs one relaxed
// atomic load per span.
//
// Spans are scope-bound (LIFO per thread), which RAII usage guarantees.
//
// Cross-thread propagation: a logical operation that hops threads (an
// ExecuteAsync statement crossing the pool boundary, a DBCRON firing on
// the daemon thread) stays one tree by capturing Tracer::CurrentContext()
// on the submitting thread and installing it on the executing thread with
// a ScopedTraceContext — which swaps the worker's thread-local span stack
// for one seeded with the captured parent, and restores the original on
// scope exit.  A default TraceContext{} isolates instead of propagating:
// the thread pool wraps every task in one so a worker never parents spans
// to whatever span happened to be open (or leaked) on that thread before.

#ifndef CALDB_OBS_TRACE_H_
#define CALDB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace caldb::obs {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent_id = 0;  // 0 = root
  uint32_t tid = 0;        // small per-process thread id (CurrentThreadId)
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<std::string, std::string>> attrs;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// A capturable reference to the innermost open span of some thread —
/// what crosses a thread boundary to keep one logical operation a single
/// span tree.  span_id 0 means "no parent" (adopting it isolates).
struct TraceContext {
  uint64_t span_id = 0;
};

/// RAII adoption of a TraceContext: swaps this thread's span stack for
/// one seeded with the context's span (empty for a null context), and
/// restores the previous stack — stale entries and all — on destruction.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  std::vector<uint64_t> saved_;
};

/// A small dense per-process thread id (1, 2, ...), stable for the
/// thread's lifetime.  Shared by spans, log lines and Chrome trace rows.
uint32_t CurrentThreadId();

namespace internal {

/// One inline attribute: a literal key and 16 value bytes — an int64 in
/// the first eight (value[15] == kIntTag), or up to 15 bytes of text
/// (value[15] holds its length).  A null key marks an unused slot.
struct SpanAttr {
  static constexpr char kIntTag = static_cast<char>(0xFF);
  const char* key = nullptr;
  char value[16];
};

/// One ring slot: a span with at most one attribute, or — with a null
/// name, right after its span in the same chunk — a continuation carrying
/// one more of that span's attributes.  One cache line, no owned memory;
/// the thread id belongs to the ring the slot lands in.
struct alignas(64) SpanSlot {
  uint64_t id = 0;
  uint64_t parent_id = 0;
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanAttr attr;
};
static_assert(sizeof(SpanSlot) == 64, "a span slot is one cache line");

}  // namespace internal

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 4096;
  /// Attributes a span keeps; further AddAttr calls are dropped.
  static constexpr size_t kMaxAttrs = 4;
  /// Text bytes an attribute value keeps; longer values are cut at the
  /// last UTF-8 character boundary that fits.
  static constexpr size_t kAttrTextBytes = 15;

  static Tracer& Global();

  explicit Tracer(size_t capacity = kDefaultCapacity);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A live span.  Move-only; records itself into the finishing thread's
  /// ring on destruction (or End()).  Inactive spans (disabled tracer) are
  /// no-ops.
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { End(); }

    /// `key` must outlive the tracer (a string literal).
    void AddAttr(const char* key, std::string_view value);
    void AddAttr(const char* key, int64_t value);
    bool active() const { return tracer_ != nullptr; }
    uint64_t id() const { return slot_.id; }

    /// Finishes the span early (idempotent).  `end_ns` is the caller's
    /// clock stamp for the end; 0 reads the clock.
    void End(int64_t end_ns = 0);

   private:
    friend class Tracer;
    internal::SpanAttr* NextAttr(const char* key);

    internal::SpanSlot slot_;
    internal::SpanAttr more_[kMaxAttrs - 1];  // past the slot's own one
    Tracer* tracer_ = nullptr;
  };

  /// Starts a span.  The span keeps the `name` pointer, not a copy, so
  /// the name must outlive the tracer (a string literal, as at every call
  /// site).  `start_ns` is the caller's clock stamp for the start; 0 reads
  /// the clock.
  Span StartSpan(const char* name, int64_t start_ns = 0);

  /// The innermost open span on the calling thread (null context when
  /// none) — capture before handing work to another thread.
  static TraceContext CurrentContext();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The newest capacity() finished spans of all threads, oldest first
  /// (finish order: rings interleaved by end time, each ring's own order
  /// kept on ties, so a child precedes the parent it ends with).
  std::vector<SpanRecord> Snapshot() const;

  /// Renders the most recent `limit` finished spans as an indented tree
  /// fragment: "name  123.4us  key=value ...".
  std::string ToString(size_t limit = 64) const;

  /// Renders the snapshot as Chrome/Perfetto trace-event JSON (one
  /// complete "X" event per finished span; span id/parent and attrs in
  /// args), in the format chrome://tracing and https://ui.perfetto.dev
  /// load directly.  The shell's `\trace save <path>` writes this to a
  /// file.
  std::string ExportChromeTrace() const;

  void Clear();

  size_t capacity() const { return capacity_; }
  /// Slots per ring chunk: the granularity at which rings trade storage.
  size_t chunk_slots() const { return chunk_slots_; }
  /// Total spans finished since construction/Clear (>= Snapshot size).
  int64_t total_finished() const;

 private:
  struct Chunk;
  struct Ring;

  static size_t Filled(const Ring& ring, const Chunk* chunk);
  Ring* LocalRing();
  void Finish(const internal::SpanSlot& slot, const internal::SpanAttr* more,
              size_t n_more);
  Chunk* TakeChunkLocked();

  const size_t capacity_;
  const size_t chunk_slots_;
  const size_t max_chunks_;
  // Distinguishes this tracer from an earlier one at the same address in
  // the threads' ring caches.
  const uint64_t serial_;
  std::atomic<bool> enabled_{true};
  // Guards the ring list and the chunk pool; taken before any ring's own
  // mutex, never while holding one.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::vector<std::unique_ptr<Chunk>> chunks_;  // every chunk ever made
  std::vector<Chunk*> free_;                    // chunks no ring holds
  int64_t evicted_ns_ = 0;  // newest end stamp of any recycled span
};

/// Nanoseconds on the monotonic clock (the time base of all spans and
/// latency histograms).
int64_t NowNs();

}  // namespace caldb::obs

#endif  // CALDB_OBS_TRACE_H_
