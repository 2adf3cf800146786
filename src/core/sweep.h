// Sweep kernels: sort-merge sweeping over endpoint-sorted interval runs
// (after Piatov et al., "Cache-Efficient Sweeping-Based Interval Joins").
//
// Every calendar-algebra operator — the foreach family, the set operators,
// `intersects`, and caloperate grouping — reduces to one of the routines
// here.  All of them walk the two sorted runs with monotone cursors, so a
// join is O(n + m + k) (k = pairs emitted) instead of the naive O(n * m),
// with galloping (exponential) skip over long dead prefixes for the
// order-style predicates `<` and `<=`.
//
// Operands are IntervalSpan views, so the kernels run directly over the
// shared flat leaf buffer of a CalendarRep (or any std::vector<Interval>)
// without copying runs out first.
//
// Preconditions shared by every routine: interval runs are sorted by
// (lo, hi) — the Calendar order-1 invariant.  Upper endpoints need not be
// monotone; routines take a `hi_monotone` hint (true for every disjoint
// calendar, in particular all generated base calendars; CalendarRep
// precomputes it) that unlocks the pure-sweep fast path, and fall back to
// a guarded scan otherwise.
//
// SweepJoin is a template on its sink and hands it runs, not pairs:
// `sink(i_begin, i_end, j)` covers every lhs index in [i_begin, i_end)
// matching rhs[j].  Under the fast path the matches of one rhs element
// form one index range, so the foreach operators copy each group in one
// block, straight into the result's flat leaf buffer (see algebra.cc),
// with no per-pair call through a type-erased callback.
//
// Instrumentation: each call tallies comparisons / emitted pairs / elements
// skipped by galloping into the returned SweepStats and into the process
// metric registry ("caldb.sweep.*", see docs/OBSERVABILITY.md), so PROFILE
// and \stats can show the sweep win.

#ifndef CALDB_CORE_SWEEP_H_
#define CALDB_CORE_SWEEP_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/calendar_rep.h"  // IntervalSpan
#include "core/interval.h"
#include "time/timepoint.h"

namespace caldb {

/// Per-call kernel counters (also accumulated into "caldb.sweep.*").
struct SweepStats {
  int64_t comparisons = 0;   // endpoint comparisons performed
  int64_t emits = 0;         // pairs / intervals emitted
  int64_t gallop_skips = 0;  // elements stepped over without comparison
};

namespace sweep_internal {

/// Adds one call's stats to the "caldb.sweep.*" registry instruments.
void Flush(const SweepStats& st);

// First index in [from, n) where `true_at` turns false, assuming true_at
// holds on a prefix of [from, n).  Exponential probe doubling the stride,
// then binary search inside the overshoot bracket — the galloping skip.
template <typename Pred>
size_t Gallop(size_t from, size_t n, SweepStats& st, Pred true_at) {
  auto counted = [&](size_t i) {
    ++st.comparisons;
    return true_at(i);
  };
  if (from >= n || !counted(from)) return std::min(from, n);
  size_t known = from;  // true_at(known) holds
  size_t step = 1;
  while (known + step < n && counted(known + step)) {
    st.gallop_skips += static_cast<int64_t>(step - 1);
    known += step;
    step <<= 1;
  }
  // The first false lies in (known, min(known + step, n)].
  size_t lo = known + 1;
  size_t hi = std::min(known + step, n);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (counted(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Linear advance used where the skipped prefix is not a monotone predicate
// (guarded fallback for runs whose upper endpoints are not sorted).
template <typename Pred>
size_t LinearAdvance(size_t from, size_t n, SweepStats& st, Pred true_at) {
  while (from < n) {
    ++st.comparisons;
    if (!true_at(from)) break;
    ++from;
  }
  return from;
}

}  // namespace sweep_internal

/// Emits every pair (i, j) with EvalListOp(op, lhs[i], rhs[j]) true, grouped
/// by j (rhs-major) with i increasing within each group — the order the
/// foreach operators need to assemble per-element children.  Pairs reach
/// the sink as runs: `sink(i_begin, i_end, j)` stands for the pairs
/// (i, j), i in [i_begin, i_end), i_begin < i_end.  With `lhs_hi_monotone`
/// (lhs upper endpoints non-decreasing) the matches of one rhs element are
/// always a single run.
template <typename Sink>
SweepStats SweepJoin(IntervalSpan lhs, ListOp op, IntervalSpan rhs,
                     bool lhs_hi_monotone, Sink&& sink) {
  SweepStats st;
  const size_t n = lhs.size();
  const bool mono = lhs_hi_monotone;
  auto emit = [&](size_t b, size_t e, size_t j) {
    if (b == e) return;
    st.emits += static_cast<int64_t>(e - b);
    sink(b, e, j);
  };
  // The cursor ops: a prefix of lhs is dead for this and every later rhs
  // element (rhs.lo is non-decreasing), so `start` only moves forward —
  // by galloping when deadness is monotone in the index.  From there the
  // candidates run until `stop`; under `mono` every candidate matches and
  // the run's end is galloped to as well.
  size_t start = 0;
  auto scan = [&](bool gallop, auto dead, auto stop, auto match) {
    for (size_t j = 0; j < rhs.size(); ++j) {
      const Interval& r = rhs[j];
      auto dead_at = [&](size_t i) { return dead(lhs[i], r); };
      start = gallop ? sweep_internal::Gallop(start, n, st, dead_at)
                     : sweep_internal::LinearAdvance(start, n, st, dead_at);
      if (mono) {
        auto live = [&](size_t i) { return !stop(lhs[i], r); };
        emit(start, sweep_internal::Gallop(start, n, st, live), j);
        continue;
      }
      size_t run = start;
      size_t i = start;
      for (; i < n; ++i) {
        ++st.comparisons;
        if (stop(lhs[i], r)) break;
        if (!match(lhs[i], r)) {
          emit(run, i, j);
          run = i + 1;
        }
      }
      emit(run, i, j);
    }
  };

  using Iv = const Interval&;
  switch (op) {
    case ListOp::kOverlaps:
    case ListOp::kIntersects:  // lhs.lo <= r.hi && lhs.hi >= r.lo
      scan(mono, [](Iv x, Iv r) { return x.hi < r.lo; },
           [](Iv x, Iv r) { return x.lo > r.hi; },
           [](Iv x, Iv r) { return x.hi >= r.lo; });
      break;
    case ListOp::kDuring:  // lhs.lo >= r.lo && lhs.hi <= r.hi
      scan(true, [](Iv x, Iv r) { return x.lo < r.lo; },
           [&](Iv x, Iv r) { return x.lo > r.hi || (mono && x.hi > r.hi); },
           [](Iv x, Iv r) { return x.hi <= r.hi; });
      break;
    case ListOp::kMeets:  // lhs.hi == r.lo (which forces lhs.lo <= r.lo)
      scan(mono, [](Iv x, Iv r) { return x.hi < r.lo; },
           [&](Iv x, Iv r) { return x.lo > r.lo || (mono && x.hi > r.lo); },
           [](Iv x, Iv r) { return x.hi == r.lo; });
      break;
    case ListOp::kBefore:  // lhs.hi <= r.lo
      // A prefix per rhs element.  With monotone upper endpoints its
      // boundary only moves forward (gallop); otherwise filter the
      // lo-bounded prefix.
      for (size_t j = 0, boundary = 0; j < rhs.size(); ++j) {
        const Interval& r = rhs[j];
        if (mono) {
          boundary = sweep_internal::Gallop(
              boundary, n, st, [&](size_t i) { return lhs[i].hi <= r.lo; });
          emit(0, boundary, j);
          continue;
        }
        for (size_t i = 0; i < n; ++i) {
          ++st.comparisons;
          if (lhs[i].lo > r.lo) break;
          if (lhs[i].hi <= r.lo) emit(i, i + 1, j);
        }
      }
      break;
    case ListOp::kBeforeEq:  // lhs.lo <= r.lo && lhs.hi <= r.hi
      // The lo boundary moves forward (gallop); the hi filter is per rhs
      // element, as rhs upper endpoints carry no order — with monotone
      // lhs upper endpoints it cuts a prefix, galloped to from 0.
      for (size_t j = 0, lo_boundary = 0; j < rhs.size(); ++j) {
        const Interval& r = rhs[j];
        lo_boundary = sweep_internal::Gallop(
            lo_boundary, n, st, [&](size_t i) { return lhs[i].lo <= r.lo; });
        if (mono) {
          auto fits = [&](size_t i) { return lhs[i].hi <= r.hi; };
          emit(0, sweep_internal::Gallop(0, lo_boundary, st, fits), j);
          continue;
        }
        for (size_t i = 0; i < lo_boundary; ++i) {
          ++st.comparisons;
          if (lhs[i].hi <= r.hi) emit(i, i + 1, j);
        }
      }
      break;
  }

  sweep_internal::Flush(st);
  return st;
}

/// Semi-join for the relaxed `intersects`: emits each index of `items`
/// (increasing) whose interval overlaps at least one interval of `against`.
/// O(n + m) regardless of monotonicity.
SweepStats SweepSemiJoinOverlaps(IntervalSpan items,
                                 IntervalSpan against,
                                 const std::function<void(size_t)>& emit);

/// Point-set union by linear merge of two sorted runs: overlapping
/// intervals are merged, intervals that merely meet end-to-end are kept
/// distinct (element counts stay meaningful for selection).  Operands are
/// point sets: each run must be disjoint within itself.
std::vector<Interval> SweepUnion(IntervalSpan a,
                                 IntervalSpan b);

/// Point-set difference a - b (may split intervals of a).  Tracks the
/// uncovered remainder in offset space so splits across the skip-zero gap
/// never produce an interval containing the nonexistent point 0.
std::vector<Interval> SweepDifference(IntervalSpan a,
                                      IntervalSpan b);

/// Point-set intersection (clipped pieces of a).  Two-pointer sweep;
/// complete for disjoint runs (the point-set normal form of set operands).
std::vector<Interval> SweepIntersect(IntervalSpan a,
                                     IntervalSpan b);

/// The caloperate grouping loop: coalesces consecutive intervals of `src`
/// into groups whose sizes cycle through `groups` (all positive), stopping
/// at the first interval with hi > te when `te` is set.  Emits one covering
/// interval {first.lo, last.hi} per (possibly short) group.  O(#groups)
/// after the cutoff scan, instead of touching every member interval.
std::vector<Interval> SweepGroup(IntervalSpan src,
                                 std::optional<TimePoint> te,
                                 const std::vector<int64_t>& groups);

namespace naive {

/// The quadratic reference join: literal double loop over EvalListOp, same
/// pair order as SweepJoin, one `emit(i, j)` per pair.  Retained only as
/// the differential-testing and benchmarking baseline.
template <typename PairSink>
SweepStats Join(IntervalSpan lhs, ListOp op, IntervalSpan rhs,
                PairSink&& emit) {
  SweepStats st;
  for (size_t j = 0; j < rhs.size(); ++j) {
    for (size_t i = 0; i < lhs.size(); ++i) {
      ++st.comparisons;
      if (EvalListOp(op, lhs[i], rhs[j])) {
        ++st.emits;
        emit(i, j);
      }
    }
  }
  return st;
}

}  // namespace naive

}  // namespace caldb

#endif  // CALDB_CORE_SWEEP_H_
