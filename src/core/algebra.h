// The calendar-algebra operators of §3.1: the strict/relaxed foreach
// (dicing), selection (slicing), and the set operators used by calendar
// scripts (+ union, - difference, and the `intersects` listop).

#ifndef CALDB_CORE_ALGEBRA_H_
#define CALDB_CORE_ALGEBRA_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/calendar.h"
#include "core/interval.h"

namespace caldb {

// ---------------------------------------------------------------------------
// foreach (dicing)

/// Applies `{C :Op: I}` (strict) or `{C .Op. I}` (relaxed) with an interval
/// right operand.  C must be order-1.  Strict clips kept elements to I for
/// the overlapping ops (see ListOpClipsUnderStrict); relaxed keeps elements
/// whole.  Empty results are dropped (the paper's "/{ε}").
Result<Calendar> ForEachInterval(const Calendar& c, ListOp op,
                                 const Interval& rhs, bool strict);

/// Applies foreach with a calendar right operand.
///
/// - If `rhs` is a singleton (order-1 with one interval) it is treated as a
///   plain interval (the paper's "Jan-1993 is the interval {(1,31)}") and
///   the result has order 1.
/// - If `rhs` is order-1 with several intervals, foreach is applied per
///   element and the result has order 2 (one child per rhs interval; a
///   child may be empty).
/// - If `rhs` has order k > 1, foreach maps over its children and the
///   result has order k+1.
/// - `intersects` is special (it is how the scripts spell set
///   intersection): the result is always order-1 — strict yields the
///   clipped intersection of the two point sets, relaxed keeps whole
///   elements of C that overlap rhs.
Result<Calendar> ForEach(const Calendar& c, ListOp op, const Calendar& rhs,
                         bool strict);

// ---------------------------------------------------------------------------
// selection (slicing)

/// One component of a selection predicate `[x]`: an index (1-based;
/// negative counts from the end), `n` (the last element), or an inclusive
/// 1-based range.
struct SelectionItem {
  enum class Kind { kIndex, kLast, kRange };
  Kind kind = Kind::kIndex;
  int64_t index = 0;       // kIndex: 1-based, nonzero; negative from end
  int64_t range_lo = 0;    // kRange
  int64_t range_hi = 0;    // kRange (may be kLastMarker for open "a..n")
  static constexpr int64_t kLastMarker = INT64_MIN;

  static SelectionItem Index(int64_t i) {
    return SelectionItem{Kind::kIndex, i, 0, 0};
  }
  static SelectionItem Last() { return SelectionItem{Kind::kLast, 0, 0, 0}; }
  static SelectionItem Range(int64_t lo, int64_t hi) {
    return SelectionItem{Kind::kRange, 0, lo, hi};
  }
  bool operator==(const SelectionItem&) const = default;
};

/// `[x]/C`: selects elements from C (§3.1).  On an order-1 calendar the
/// predicate picks intervals.  On an order-n calendar (n >= 2) it picks the
/// x-th element of each order-(n-1) component and splices the selections
/// together, so the result has order n-1 (the paper's
/// `[3]/WEEKS:overlaps:Year-1993` flattens to order 1).
///
/// Out-of-range semantics (see docs/ALGEBRA.md): indices beyond the element
/// count — positive (`[5]` on a 4-week month) or negative (`[-8]` on a
/// 5-element calendar) — select nothing; they never wrap around.  Malformed
/// predicates are rejected with InvalidArgument: an empty predicate, index
/// 0, a range starting below 1, or a range whose end precedes its start.
/// Range ends are clamped to the element count, so over-long ranges cost
/// O(n), not O(range width).
Result<Calendar> Select(const std::vector<SelectionItem>& predicate,
                        const Calendar& c);

namespace naive {
/// Select with the whole predicate resolved for every group, never the
/// single-position arithmetic: the reference the fast path is tested
/// against.
Result<Calendar> Select(const std::vector<SelectionItem>& predicate,
                        const Calendar& c);
}  // namespace naive

// ---------------------------------------------------------------------------
// set operators

/// Point-set union.  Both operands must be order-1 and share granularity.
/// Overlapping intervals are merged; intervals that merely meet end-to-end
/// are kept distinct (so element counts stay meaningful for selection).
Result<Calendar> Union(const Calendar& a, const Calendar& b);

/// Point-set difference a - b (may split intervals of a).
Result<Calendar> Difference(const Calendar& a, const Calendar& b);

/// Point-set intersection (clipped pieces of a).
Result<Calendar> Intersection(const Calendar& a, const Calendar& b);

}  // namespace caldb

#endif  // CALDB_CORE_ALGEBRA_H_
