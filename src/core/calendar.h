// Calendar: a structured collection of intervals (§3.1).
//
// A calendar of order 1 is a list of intervals sorted by start point; a
// calendar of order n > 1 is a list of calendars of order n-1 (all sharing
// the calendar's granularity).  Every calendar carries the granularity its
// points are expressed in.
//
// Representation: a Calendar is a thin copy-on-write handle over an
// immutable, shared_ptr-shared CalendarRep (one contiguous leaf buffer plus
// per-level CSR offsets — see calendar_rep.h).  Copying a Calendar, storing
// it in a cache, taking a child view or flattening a sorted calendar never
// copies interval data; only the builders (Order1/Nested/...) materialize a
// new rep.
//
// COW contract: handles never mutate shared state.  The only mutator,
// set_granularity, acts on the handle alone (granularity is a handle
// property, not a rep property), so two handles sharing one rep cannot
// observe each other's mutations.  Everything reachable through a handle
// (children(), intervals(), Flattened()) is a view that stays valid as long
// as any handle on the same rep is alive.

#ifndef CALDB_CORE_CALENDAR_H_
#define CALDB_CORE_CALENDAR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/calendar_rep.h"
#include "core/interval.h"
#include "time/granularity.h"

namespace caldb {

class Calendar {
 public:
  /// An empty order-1 calendar of days.
  Calendar() = default;

  // Handle copies share the rep.
  Calendar(const Calendar& other) = default;
  Calendar& operator=(const Calendar& other) = default;
  Calendar(Calendar&&) noexcept = default;
  Calendar& operator=(Calendar&&) noexcept = default;

  /// Builds an order-1 calendar, sorted by (lo, hi) unless already in
  /// order.  Intervals must be valid (nonzero endpoints, lo <= hi); this
  /// is a library invariant, checked on build.  Use MakeOrder1 for
  /// untrusted input.
  static Calendar Order1(Granularity g, std::vector<Interval> intervals);

  /// Validating variant of Order1 for untrusted (parsed) input.
  static Result<Calendar> MakeOrder1(Granularity g,
                                     std::vector<Interval> intervals);

  /// Builds an order-(k+1) calendar from order-k children.  All children
  /// must share the same order; their granularity is overridden by `g`.
  /// `order_if_empty` (>= 2) fixes the order when `children` is empty —
  /// an empty order-3 calendar is distinct from an empty order-2 one, and
  /// the foreach operators rely on rectangular results.
  static Calendar Nested(Granularity g, std::vector<Calendar> children,
                         int order_if_empty = 2);

  /// Builds an order-(shape.order()+1) calendar whose grouping mirrors
  /// `shape`'s nesting, with shape's j-th leaf interval (tree order)
  /// replaced by the order-1 group leaves[inner[j], inner[j+1]) of
  /// `leaves.leaves` (sorted on build if out of order; `leaves` may carry
  /// metadata its builder kept, see CalendarRep::NoteRun).  Precondition:
  /// inner has shape.TotalIntervals() + 1 entries, from 0 to the leaf
  /// count.  The foreach operators' flat result buffer and offsets are the
  /// CSR itself.
  static Calendar NestedLike(const Calendar& shape, Granularity g,
                             CalendarRep leaves, std::vector<uint32_t> inner);

  /// A single-interval order-1 calendar.
  static Calendar Singleton(Granularity g, Interval i) {
    return Order1(g, {i});
  }

  int order() const { return rep_ ? rep_->order - level_ : 1; }
  Granularity granularity() const { return granularity_; }

  /// Sets the granularity of this handle (children views inherit it).
  /// O(1) and COW-safe: the shared rep is untouched, so other handles on
  /// the same rep keep their own granularity.
  void set_granularity(Granularity g) { granularity_ = g; }

  /// Top-level element count (intervals for order 1, children otherwise).
  size_t size() const { return end_ - begin_; }

  /// True when the calendar contains no interval at any depth.  O(1).
  bool IsNull() const { return leaf_begin_ == leaf_end_; }

  /// Order-1 accessor: zero-copy view of the intervals.  Empty for nested
  /// calendars (mirrors the historical empty-vector behavior).  The view
  /// is valid while any handle on the same rep is alive.
  IntervalSpan intervals() const {
    if (order() != 1) return {};
    return Leaves();
  }

  /// All leaf intervals at any depth, in tree order — the zero-copy
  /// unsorted flatten.  O(1).
  IntervalSpan Leaves() const;

  /// True when Leaves() is globally sorted by (lo, hi) (precomputed on the
  /// shared rep; conservative false for views of unsorted buffers).
  bool LeavesSorted() const { return !rep_ || rep_->leaves_sorted; }

  /// True when the upper endpoints of Leaves() are non-decreasing (same
  /// precomputation and conservatism as LeavesSorted()).
  bool HiMonotone() const { return !rep_ || rep_->hi_monotone; }

  /// Zero-copy view of intervals [begin, end) of this order-1 calendar.
  Calendar Slice(size_t begin, size_t end) const;

  /// The i-th top-level child as a view sharing this rep.  Precondition:
  /// order() > 1 and i < size().
  Calendar child(size_t i) const;

  /// Handles on all top-level children (order() > 1), each a child(i)
  /// view sharing this rep.
  std::vector<Calendar> children() const;

  /// Calls fn(leaf_offset, group) once per order-1 group in tree order;
  /// `leaf_offset` is the group's first leaf index relative to Leaves().
  /// For order 1 there is exactly one group (the whole calendar).
  template <typename Fn>
  void ForEachLeafGroup(Fn&& fn) const;

  /// True when this order-1 calendar has exactly one interval — such
  /// calendars are treated as plain intervals by the foreach operators
  /// (the paper's Jan-1993 = {(1,31)} "is an interval").
  bool IsSingleton() const { return order() == 1 && size() == 1; }

  /// Total number of intervals at all depths.  O(1).
  int64_t TotalIntervals() const {
    return static_cast<int64_t>(leaf_end_) - static_cast<int64_t>(leaf_begin_);
  }

  /// Concatenates all leaf intervals into an order-1 calendar (sorted).
  /// Zero-copy when the shared leaf buffer is already globally sorted
  /// (every generated base calendar; most algebra results); otherwise a
  /// sorted rep is materialized ("caldb.cal.rep_copies").
  Calendar Flattened() const;

  /// The covering interval (min lo, max hi), or nullopt when null.  O(1)
  /// for whole-rep handles and sorted hi-monotone views; O(#leaves in
  /// view) otherwise.
  std::optional<Interval> Span() const;

  /// True when point `p` (in this calendar's granularity) lies inside some
  /// leaf interval.
  bool ContainsPoint(TimePoint p) const;

  /// Rebuilds this calendar with granularity `g` and every leaf mapped
  /// through `fn` (which must preserve (lo, hi) order, as granularity
  /// conversions do); the nesting structure is copied wholesale instead of
  /// being reassembled recursively.  Counted as "caldb.cal.cow_rebuilds".
  Result<Calendar> TransformLeaves(
      Granularity g,
      const std::function<Result<Interval>(const Interval&)>& fn) const;

  /// Paper notation: "{(1,31),(32,59)}" / "{{(4,10)},{(32,38)}}".
  std::string ToString() const;

  /// Structural equality: granularity, order, grouping shape and leaf
  /// intervals — independent of whether the operands share a rep.
  bool operator==(const Calendar& other) const;

 private:
  Calendar(std::shared_ptr<const CalendarRep> rep, Granularity g, int level,
           uint32_t begin, uint32_t end, uint32_t leaf_begin,
           uint32_t leaf_end)
      : rep_(std::move(rep)),
        granularity_(g),
        level_(level),
        begin_(begin),
        end_(end),
        leaf_begin_(leaf_begin),
        leaf_end_(leaf_end) {}

  /// Wraps a finalized rep as a root handle.
  static Calendar Root(CalendarRep rep, Granularity g);

  /// This view's CSR offsets, rebased so that level 0 is the view's top
  /// level and the last level indexes [0, TotalIntervals()).
  std::vector<std::vector<uint32_t>> ViewOffsets() const;

  std::shared_ptr<const CalendarRep> rep_;  // null = empty order-1
  Granularity granularity_ = Granularity::kDays;
  int level_ = 0;                  // nesting level of this view in rep_
  uint32_t begin_ = 0, end_ = 0;   // element range at level_
  uint32_t leaf_begin_ = 0, leaf_end_ = 0;  // covered leaf range
};

template <typename Fn>
void Calendar::ForEachLeafGroup(Fn&& fn) const {
  if (order() == 1) {
    fn(size_t{0}, Leaves());
    return;
  }
  // Elements at level order-2 are the order-1 groups; compose the view's
  // element range down to that level, then cut leaves by the innermost
  // offsets.
  uint32_t b = begin_;
  uint32_t e = end_;
  for (int k = level_; k + 2 < rep_->order; ++k) {
    b = rep_->offsets[static_cast<size_t>(k)][b];
    e = rep_->offsets[static_cast<size_t>(k)][e];
  }
  const std::vector<uint32_t>& inner = rep_->offsets.back();
  const Interval* base = rep_->leaves.data();
  for (uint32_t t = b; t < e; ++t) {
    fn(size_t{inner[t] - leaf_begin_},
       IntervalSpan(base + inner[t], inner[t + 1] - inner[t]));
  }
}

}  // namespace caldb

#endif  // CALDB_CORE_CALENDAR_H_
