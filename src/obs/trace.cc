#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>

#include "obs/json.h"

namespace caldb::obs {

namespace {

// Open-span stack of the current thread (ids), for parent attribution.
thread_local std::vector<uint64_t> t_span_stack;

// How far ahead of its write position a ring prefetches: one statement's
// two spans.
constexpr ptrdiff_t kPrefetchSlots = 2;

// Span ids come from per-thread blocks of the process-wide sequence, so
// starting a span touches no shared cache line but once per kIdBlock.
constexpr uint64_t kIdBlock = 1024;

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next_block{1};
  thread_local uint64_t next = 0;
  thread_local uint64_t limit = 0;
  if (next == limit) {
    next = next_block.fetch_add(kIdBlock, std::memory_order_relaxed);
    limit = next + kIdBlock;
  }
  return next++;
}

std::atomic<uint64_t> g_next_tracer_serial{1};

// The calling thread's ring in the tracer it last finished a span into.
struct RingCache {
  uint64_t serial = 0;
  void* ring = nullptr;
};
thread_local RingCache t_ring_cache;

std::string FormatUs(int64_t ns) {
  // "123.4us" with one decimal.
  int64_t tenths = ns / 100;
  return std::to_string(tenths / 10) + "." + std::to_string(tenths % 10) +
         "us";
}

void AppendAttr(const internal::SpanAttr& attr, SpanRecord* record) {
  if (attr.key == nullptr) return;
  if (attr.value[15] == internal::SpanAttr::kIntTag) {
    int64_t num = 0;
    std::memcpy(&num, attr.value, sizeof(num));
    record->attrs.emplace_back(attr.key, std::to_string(num));
  } else {
    record->attrs.emplace_back(
        attr.key, std::string(attr.value, static_cast<size_t>(attr.value[15])));
  }
}

SpanRecord ToRecord(uint32_t tid, const internal::SpanSlot& slot) {
  SpanRecord record;
  record.id = slot.id;
  record.parent_id = slot.parent_id;
  record.tid = tid;
  record.name = slot.name;
  record.start_ns = slot.start_ns;
  record.end_ns = slot.end_ns;
  AppendAttr(slot.attr, &record);
  return record;
}

// Writes a span, then one continuation slot per further attribute.
void WriteSlots(internal::SpanSlot* dst, const internal::SpanSlot& slot,
                const internal::SpanAttr* more, size_t n_more) {
  dst[0] = slot;
  for (size_t i = 0; i < n_more; ++i) {
    internal::SpanSlot& cont = dst[1 + i];
    cont = slot;
    cont.name = nullptr;
    cont.attr = more[i];
  }
}

}  // namespace

struct Tracer::Chunk {
  explicit Chunk(size_t n) : slots(new internal::SpanSlot[n]) {}
  std::unique_ptr<internal::SpanSlot[]> slots;
  size_t used = 0;  // set once the chunk is no longer its ring's newest
};

struct alignas(64) Tracer::Ring {
  Ring(uint32_t tid, size_t max_chunks) : tid(tid) {
    chunks.reserve(max_chunks);  // so rotation never allocates
  }
  // A finish touches this first cache line and the slots it fills.  All
  // fields are guarded by mu.
  std::mutex mu;
  internal::SpanSlot* next = nullptr;  // first free slot of the newest chunk
  internal::SpanSlot* end = nullptr;   // one past the newest chunk
  int64_t finished = 0;
  const uint32_t tid;
  std::vector<Chunk*> chunks;  // oldest first; the last one is the newest
};

size_t Tracer::Filled(const Ring& ring, const Chunk* chunk) {
  return chunk == ring.chunks.back()
             ? static_cast<size_t>(ring.next - chunk->slots.get())
             : chunk->used;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next_tid{1};
  thread_local uint32_t tid = next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

TraceContext Tracer::CurrentContext() {
  return TraceContext{t_span_stack.empty() ? 0 : t_span_stack.back()};
}

ScopedTraceContext::ScopedTraceContext(TraceContext ctx) {
  saved_.swap(t_span_stack);
  if (ctx.span_id != 0) t_span_stack.push_back(ctx.span_id);
}

ScopedTraceContext::~ScopedTraceContext() { t_span_stack.swap(saved_); }

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

// 64 chunks cover the capacity; the spare one lets a lone thread keep
// exactly capacity() spans while it rotates its oldest chunk out.  A
// chunk holds at least kMaxAttrs slots, so a span and its continuations
// fit.
Tracer::Tracer(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)),
      chunk_slots_(std::max<size_t>(kMaxAttrs, capacity_ / 64)),
      max_chunks_((capacity_ + chunk_slots_ - 1) / chunk_slots_ + 1),
      serial_(g_next_tracer_serial.fetch_add(1, std::memory_order_relaxed)) {
  free_.reserve(max_chunks_);
}

Tracer::~Tracer() = default;

Tracer::Span& Tracer::Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    slot_ = other.slot_;
    std::copy(std::begin(other.more_), std::end(other.more_), more_);
    other.tracer_ = nullptr;
  }
  return *this;
}

internal::SpanAttr* Tracer::Span::NextAttr(const char* key) {
  if (tracer_ == nullptr) return nullptr;
  if (slot_.attr.key == nullptr) {
    slot_.attr.key = key;
    return &slot_.attr;
  }
  for (internal::SpanAttr& attr : more_) {
    if (attr.key == nullptr) {
      attr.key = key;
      return &attr;
    }
  }
  return nullptr;
}

void Tracer::Span::AddAttr(const char* key, std::string_view value) {
  internal::SpanAttr* attr = NextAttr(key);
  if (attr == nullptr) return;
  size_t n = std::min(value.size(), kAttrTextBytes);
  // Never split a UTF-8 sequence: back off over continuation bytes.
  while (n > 0 && n < value.size() &&
         (static_cast<unsigned char>(value[n]) & 0xC0) == 0x80) {
    --n;
  }
  std::memcpy(attr->value, value.data(), n);
  attr->value[15] = static_cast<char>(n);
}

void Tracer::Span::AddAttr(const char* key, int64_t value) {
  internal::SpanAttr* attr = NextAttr(key);
  if (attr == nullptr) return;
  std::memcpy(attr->value, &value, sizeof(value));
  attr->value[15] = internal::SpanAttr::kIntTag;
}

void Tracer::Span::End(int64_t end_ns) {
  if (tracer_ == nullptr) return;
  slot_.end_ns = end_ns != 0 ? end_ns : NowNs();
  if (!t_span_stack.empty() && t_span_stack.back() == slot_.id) {
    t_span_stack.pop_back();
  }
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  size_t n_more = 0;
  while (n_more < kMaxAttrs - 1 && more_[n_more].key != nullptr) ++n_more;
  tracer->Finish(slot_, more_, n_more);
}

Tracer::Span Tracer::StartSpan(const char* name, int64_t start_ns) {
  Span span;
  if (!enabled()) return span;
  span.tracer_ = this;
  span.slot_.id = NextSpanId();
  span.slot_.parent_id = t_span_stack.empty() ? 0 : t_span_stack.back();
  span.slot_.name = name;
  span.slot_.start_ns = start_ns != 0 ? start_ns : NowNs();
  t_span_stack.push_back(span.slot_.id);
  return span;
}

Tracer::Ring* Tracer::LocalRing() {
  if (t_ring_cache.serial == serial_) {
    return static_cast<Ring*>(t_ring_cache.ring);
  }
  const uint32_t tid = CurrentThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  Ring* ring = nullptr;
  for (const std::unique_ptr<Ring>& r : rings_) {
    if (r->tid == tid) ring = r.get();
  }
  if (ring == nullptr) {
    rings_.push_back(std::make_unique<Ring>(tid, max_chunks_));
    ring = rings_.back().get();
  }
  t_ring_cache = RingCache{serial_, ring};
  return ring;
}

void Tracer::Finish(const internal::SpanSlot& slot,
                    const internal::SpanAttr* more, size_t n_more) {
  const size_t n = 1 + n_more;
  Ring* ring = LocalRing();
  {
    std::lock_guard<std::mutex> lock(ring->mu);
    if (static_cast<size_t>(ring->end - ring->next) >= n) {
      WriteSlots(ring->next, slot, more, n_more);
      ring->next += n;
      // The slots a thread writes next were last touched a ring's cycle
      // ago and have left the cache; fetch the line after next now so
      // the next finish does not stall on it.
      if (ring->end - ring->next > kPrefetchSlots) {
        __builtin_prefetch(ring->next + kPrefetchSlots, /*rw=*/1);
      }
      ++ring->finished;
      return;
    }
  }
  // The ring's newest chunk has no room (or it has none): rotate one in.
  // The pool lock comes first; no other thread appends to this ring
  // meanwhile.
  std::lock_guard<std::mutex> pool_lock(mu_);
  Chunk* chunk = TakeChunkLocked();
  std::lock_guard<std::mutex> lock(ring->mu);
  if (!ring->chunks.empty()) {
    ring->chunks.back()->used = Filled(*ring, ring->chunks.back());
  }
  ring->chunks.push_back(chunk);
  WriteSlots(chunk->slots.get(), slot, more, n_more);
  ring->next = chunk->slots.get() + n;
  ring->end = chunk->slots.get() + chunk_slots_;
  ++ring->finished;
}

Tracer::Chunk* Tracer::TakeChunkLocked() {
  if (!free_.empty()) {
    Chunk* chunk = free_.back();
    free_.pop_back();
    return chunk;
  }
  if (chunks_.size() < max_chunks_) {
    chunks_.push_back(std::make_unique<Chunk>(chunk_slots_));
    return chunks_.back().get();
  }
  // Budget spent: every chunk sits in some ring.  Recycle the one whose
  // newest span finished first — a ring's oldest chunk is its first, and
  // a chunk's newest span is its last (a thread finishes spans in time
  // order).
  Ring* victim = nullptr;
  int64_t oldest = 0;
  for (const std::unique_ptr<Ring>& r : rings_) {
    std::lock_guard<std::mutex> lock(r->mu);
    if (r->chunks.empty()) continue;
    const Chunk* first = r->chunks.front();
    const int64_t newest = first->slots[Filled(*r, first) - 1].end_ns;
    if (victim == nullptr || newest < oldest) {
      victim = r.get();
      oldest = newest;
    }
  }
  std::lock_guard<std::mutex> lock(victim->mu);
  Chunk* chunk = victim->chunks.front();
  evicted_ns_ = std::max(evicted_ns_,
                         chunk->slots[Filled(*victim, chunk) - 1].end_ns);
  victim->chunks.erase(victim->chunks.begin());
  if (victim->chunks.empty()) victim->next = victim->end = nullptr;
  return chunk;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<std::pair<uint32_t, internal::SpanSlot>> slots;
  {
    std::lock_guard<std::mutex> pool_lock(mu_);
    slots.reserve(chunks_.size() * chunk_slots_);
    for (const std::unique_ptr<Ring>& ring : rings_) {
      std::lock_guard<std::mutex> lock(ring->mu);
      for (const Chunk* chunk : ring->chunks) {
        const size_t used = Filled(*ring, chunk);
        for (size_t i = 0; i < used; ++i) {
          // A span no newer than one already recycled may have lost
          // neighbours in finish order: drop it, so the snapshot is an
          // unbroken run of the newest spans.
          if (chunk->slots[i].end_ns <= evicted_ns_) continue;
          slots.emplace_back(ring->tid, chunk->slots[i]);
        }
      }
    }
  }
  // Each ring is already in finish order; the stable sort interleaves the
  // rings by end time and keeps a ring's own order on equal stamps — so
  // continuations (same end stamp) stay right behind their span.
  std::stable_sort(slots.begin(), slots.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.end_ns < b.second.end_ns;
                   });
  std::vector<SpanRecord> out;
  out.reserve(slots.size());
  for (const auto& [tid, slot] : slots) {
    if (slot.name != nullptr) {
      out.push_back(ToRecord(tid, slot));
    } else if (!out.empty() && out.back().id == slot.id) {
      AppendAttr(slot.attr, &out.back());
    }
  }
  if (out.size() > capacity_) {
    out.erase(out.begin(),
              out.begin() + static_cast<ptrdiff_t>(out.size() - capacity_));
  }
  return out;
}

int64_t Tracer::total_finished() const {
  std::lock_guard<std::mutex> pool_lock(mu_);
  int64_t total = 0;
  for (const std::unique_ptr<Ring>& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring->mu);
    total += ring->finished;
  }
  return total;
}

std::string Tracer::ToString(size_t limit) const {
  std::vector<SpanRecord> spans = Snapshot();
  if (spans.size() > limit) {
    spans.erase(spans.begin(),
                spans.begin() + static_cast<ptrdiff_t>(spans.size() - limit));
  }
  // The ring is ordered by finish time (children before parents); render
  // in start order so parents precede their children.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_ns < b.start_ns;
                   });
  // Indent children under parents still present in the window.
  std::map<uint64_t, int> depth;
  std::string out;
  for (const SpanRecord& s : spans) {
    int d = 0;
    auto parent = depth.find(s.parent_id);
    if (parent != depth.end()) d = parent->second + 1;
    depth[s.id] = d;
    out += std::string(static_cast<size_t>(d) * 2, ' ') + s.name + "  " +
           FormatUs(s.duration_ns());
    for (const auto& [key, value] : s.attrs) {
      out += "  " + key + "=" + value;
    }
    out += "\n";
  }
  return out;
}

std::string Tracer::ExportChromeTrace() const {
  std::vector<SpanRecord> spans = Snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, s.name);
    out += ",\"cat\":\"caldb\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(s.tid);
    out += ",\"ts\":";
    AppendJsonMicros(&out, s.start_ns);
    out += ",\"dur\":";
    AppendJsonMicros(&out, s.duration_ns());
    out += ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent_id);
    for (const auto& [key, value] : s.attrs) {
      out += ',';
      AppendJsonKey(&out, key);
      AppendJsonString(&out, value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> pool_lock(mu_);
  for (const std::unique_ptr<Ring>& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring->mu);
    free_.insert(free_.end(), ring->chunks.begin(), ring->chunks.end());
    ring->chunks.clear();
    ring->next = ring->end = nullptr;
    ring->finished = 0;
  }
  evicted_ns_ = 0;
}

}  // namespace caldb::obs
