// CalendarRep: the immutable, shared flat representation behind Calendar.
//
// The paper's calendars are nested collections of intervals; structurally
// the nesting is pure metadata over a flat leaf sequence.  CalendarRep
// stores exactly that: one contiguous buffer of leaf intervals (in tree
// order) plus one CSR offset array per nesting level, so an order-n
// calendar carries n-1 offset levels.  The rep is immutable after
// Finalize() and shared by `shared_ptr` between every Calendar handle that
// views it — handle copies, children views, zero-copy flattens, cache
// entries — which turns the old O(total intervals) deep copy at every
// assignment into a pointer bump.
//
// Layout, for an order-n rep:
//   - level k (0 <= k <= n-1) is a conceptual element sequence; level 0 is
//     the calendar's top-level list and level n-1 is `leaves` itself.
//   - offsets[k] (0 <= k <= n-2) has (#elements at level k) + 1 entries;
//     element i at level k spans elements [offsets[k][i], offsets[k][i+1])
//     of level k+1.  offsets[n-2] therefore indexes `leaves` directly.
//   - each order-1 group (the ranges cut out of `leaves` by offsets[n-2],
//     or the whole buffer when n == 1) is sorted by (lo, hi) — the same
//     invariant Calendar::Order1 has always enforced.  Finalize()
//     establishes it, sorting only a group it finds out of order.
//
// Precomputed metadata, from one scan: `span` (min lo / max hi over all
// leaves), `leaves_sorted` (whole buffer sorted by (lo, hi)) and
// `hi_monotone`, which make Span() O(1) on root handles, Flattened() a
// zero-copy view whenever the buffer is already globally sorted (true for
// every generated base calendar and most foreach results), and pick the
// sweep fast paths without rescanning an operand per call.
//
// Granularity deliberately does NOT live here: it is a property of the
// Calendar handle, so set_granularity never touches shared state (see the
// COW contract in calendar.h).

#ifndef CALDB_CORE_CALENDAR_REP_H_
#define CALDB_CORE_CALENDAR_REP_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/interval.h"

namespace caldb {

/// Zero-copy view over a run of leaf intervals inside a CalendarRep (or
/// any contiguous Interval storage — std::vector converts implicitly).
using IntervalSpan = std::span<const Interval>;

/// (lo, hi) lexicographic order — the order-1 group invariant.
inline bool IntervalLess(const Interval& a, const Interval& b) {
  return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
}

struct CalendarRep {
  int order = 1;
  /// All leaf intervals, concatenated in tree order.
  std::vector<Interval> leaves;
  /// CSR offsets, one array per nesting level (empty for order 1).
  std::vector<std::vector<uint32_t>> offsets;

  // --- metadata precomputed by Finalize() -------------------------------
  /// Covering interval over all leaves; meaningful iff !leaves.empty().
  Interval span{1, 1};
  /// True when the whole leaf buffer is sorted by (lo, hi) — unlocks the
  /// zero-copy Flattened() view and early-exit point probes.
  bool leaves_sorted = true;
  /// True when leaf upper endpoints are non-decreasing across the whole
  /// buffer (every disjoint sorted calendar), hence in every run of it.
  bool hi_monotone = true;

  /// Number of top-level elements.
  size_t TopCount() const {
    return order == 1 ? leaves.size() : offsets[0].size() - 1;
  }

  /// Set by a builder that kept the metadata current with NoteRun and
  /// left every group sorted; Finalize's scan and group sort are skipped.
  bool scanned = false;

  /// Updates the metadata for a run about to be appended to `leaves` that
  /// is sorted, hi-monotone and valid (a run of a finalized rep with
  /// hi_monotone), from its two ends alone.
  void NoteRun(const Interval& first, const Interval& last) {
    if (leaves.empty()) {
      span = {first.lo, last.hi};
      return;
    }
    span = {std::min(span.lo, first.lo), std::max(span.hi, last.hi)};
    leaves_sorted &= !IntervalLess(first, leaves.back());
    hi_monotone &= first.hi >= leaves.back().hi;
  }

  /// Computes the metadata above (unless `scanned`), sorting any order-1
  /// group found out of order.  Must be called exactly once, after which
  /// the rep is immutable.
  void Finalize();

 private:
  void Scan();
};


}  // namespace caldb

#endif  // CALDB_CORE_CALENDAR_REP_H_
