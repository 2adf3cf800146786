#include "core/sweep.h"

#include <algorithm>

#include "obs/obs.h"

namespace caldb {

void sweep_internal::Flush(const SweepStats& st) {
  // Registry instruments, resolved once; hot loops accumulate into a local
  // SweepStats and flush a single relaxed add per call.
  static obs::Counter* joins = obs::Metrics().counter("caldb.sweep.joins");
  static obs::Counter* comparisons =
      obs::Metrics().counter("caldb.sweep.comparisons");
  static obs::Counter* emits = obs::Metrics().counter("caldb.sweep.emits");
  static obs::Counter* gallop_skips =
      obs::Metrics().counter("caldb.sweep.gallop_skips");
  joins->Increment();
  comparisons->Add(st.comparisons);
  emits->Add(st.emits);
  gallop_skips->Add(st.gallop_skips);
}

using sweep_internal::Flush;
using sweep_internal::LinearAdvance;

SweepStats SweepSemiJoinOverlaps(IntervalSpan items,
                                 IntervalSpan against,
                                 const std::function<void(size_t)>& emit) {
  SweepStats st;
  const size_t m = against.size();
  size_t start = 0;
  for (size_t k = 0; k < items.size(); ++k) {
    const Interval& it = items[k];
    // against[start] with hi < it.lo can never overlap this or any later
    // item (item los are non-decreasing) — discard permanently.
    start = LinearAdvance(start, m, st,
                          [&](size_t x) { return against[x].hi < it.lo; });
    if (start >= m) break;
    // Here against[start].hi >= it.lo; overlap iff its lo is <= it.hi.  If
    // not, every later against starts even further right — no match.
    ++st.comparisons;
    if (against[start].lo <= it.hi) {
      ++st.emits;
      emit(k);
    }
  }
  Flush(st);
  return st;
}

std::vector<Interval> SweepUnion(IntervalSpan a,
                                 IntervalSpan b) {
  SweepStats st;
  std::vector<Interval> out;
  out.reserve(a.size() + b.size());
  size_t i = 0;
  size_t j = 0;
  auto absorb = [&](const Interval& next) {
    ++st.comparisons;
    if (!out.empty() && next.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, next.hi);
    } else {
      ++st.emits;
      out.push_back(next);
    }
  };
  while (i < a.size() && j < b.size()) {
    ++st.comparisons;
    const bool take_a = a[i].lo != b[j].lo ? a[i].lo < b[j].lo
                                           : a[i].hi < b[j].hi;
    absorb(take_a ? a[i++] : b[j++]);
  }
  while (i < a.size()) absorb(a[i++]);
  while (j < b.size()) absorb(b[j++]);
  Flush(st);
  return out;
}

std::vector<Interval> SweepDifference(IntervalSpan a,
                                      IntervalSpan b) {
  SweepStats st;
  std::vector<Interval> out;
  // Subtrahend elements wholly before the current minuend never matter
  // again, so the scan start advances monotonically.  The uncovered
  // remainder of each minuend is tracked in offset space so that splits
  // across the skip-zero gap stay correct.
  size_t j_start = 0;
  for (const Interval& ai : a) {
    int64_t lo_off = PointToOffset(ai.lo);
    const int64_t hi_off = PointToOffset(ai.hi);
    bool consumed = false;
    j_start = LinearAdvance(j_start, b.size(), st, [&](size_t x) {
      return PointToOffset(b[x].hi) < lo_off;
    });
    for (size_t j = j_start; j < b.size(); ++j) {
      const int64_t blo = PointToOffset(b[j].lo);
      const int64_t bhi = PointToOffset(b[j].hi);
      ++st.comparisons;
      if (bhi < lo_off) continue;
      if (blo > hi_off) break;
      if (blo > lo_off) {
        ++st.emits;
        out.push_back(Interval{OffsetToPoint(lo_off), OffsetToPoint(blo - 1)});
      }
      lo_off = bhi + 1;
      if (lo_off > hi_off) {
        consumed = true;
        break;
      }
    }
    if (!consumed) {
      ++st.emits;
      out.push_back(Interval{OffsetToPoint(lo_off), OffsetToPoint(hi_off)});
    }
  }
  Flush(st);
  return out;
}

std::vector<Interval> SweepIntersect(IntervalSpan a,
                                     IntervalSpan b) {
  SweepStats st;
  std::vector<Interval> out;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    ++st.comparisons;
    if (std::optional<Interval> x = Intersect(a[i], b[j])) {
      ++st.emits;
      out.push_back(*x);
    }
    if (a[i].hi < b[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  Flush(st);
  return out;
}

std::vector<Interval> SweepGroup(IntervalSpan src,
                                 std::optional<TimePoint> te,
                                 const std::vector<int64_t>& groups) {
  SweepStats st;
  // Cutoff: the grouped prefix ends at the first interval past te.
  size_t limit = src.size();
  if (te.has_value()) {
    limit = LinearAdvance(0, src.size(), st,
                          [&](size_t i) { return src[i].hi <= *te; });
  }
  std::vector<Interval> out;
  size_t group_idx = 0;
  for (size_t i = 0; i < limit;) {
    const size_t want =
        static_cast<size_t>(groups[group_idx % groups.size()]);
    ++group_idx;
    const size_t take = std::min(want, limit - i);
    ++st.emits;
    out.push_back(Interval{src[i].lo, src[i + take - 1].hi});
    i += take;
  }
  Flush(st);
  return out;
}

}  // namespace caldb
