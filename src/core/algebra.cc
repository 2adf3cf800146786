#include "core/algebra.h"

#include <algorithm>

#include "common/macros.h"
#include "core/sweep.h"

namespace caldb {

namespace {

Status RequireOrder1(const Calendar& c, const char* what) {
  if (c.order() != 1) {
    return Status::InvalidArgument(std::string(what) +
                                   " requires an order-1 calendar, got order " +
                                   std::to_string(c.order()));
  }
  return Status::OK();
}

Status RequireSameGranularity(const Calendar& a, const Calendar& b,
                              const char* what) {
  if (a.granularity() != b.granularity()) {
    return Status::TypeError(
        std::string(what) + " requires matching granularities (" +
        std::string(GranularityName(a.granularity())) + " vs " +
        std::string(GranularityName(b.granularity())) + ")");
  }
  return Status::OK();
}

// The intersects listop as used by calendar scripts: always order-1.
Result<Calendar> IntersectsOp(const Calendar& c, const Calendar& rhs,
                              bool strict) {
  CALDB_RETURN_IF_ERROR(RequireSameGranularity(c, rhs, "intersects"));
  CALDB_RETURN_IF_ERROR(RequireOrder1(c, "intersects left operand"));
  Calendar flat_rhs = rhs.order() == 1 ? rhs : rhs.Flattened();
  if (strict) {
    return Calendar::Order1(
        c.granularity(), SweepIntersect(c.intervals(), flat_rhs.intervals()));
  }
  // Relaxed: keep whole elements of C overlapping any rhs interval.
  std::vector<Interval> kept;
  SweepSemiJoinOverlaps(c.intervals(), flat_rhs.intervals(),
                        [&](size_t i) { kept.push_back(c.intervals()[i]); });
  return Calendar::Order1(c.granularity(), std::move(kept));
}

// Clipping a `during` match to its rhs element is the identity.
bool Clips(ListOp op, bool strict) {
  return strict && ListOpClipsUnderStrict(op) && op != ListOp::kDuring;
}

// Joins c against a sorted run of rhs leaves, appending each run of
// matches to out->leaves (clipped under a strict overlap op — `during`
// matches need none — else copied as one block) and counting rhs element
// j's leaves in counts[j_base + j + 1].  Emission is rhs-major, so the
// prefix sums of `counts` are the buffer's CSR offsets.  Unclipped runs of
// a hi-monotone c keep out's metadata current from their ends; only
// clipping a c that is not hi-monotone can leave a group unsorted
// (Finalize sorts it).  Returns whether the metadata is current.
bool JoinInto(const Calendar& c, ListOp op, IntervalSpan rhs, bool strict,
              size_t j_base, CalendarRep* out, std::vector<uint32_t>* counts) {
  const bool clip = Clips(op, strict);
  IntervalSpan lhs = c.intervals();
  std::vector<Interval>& leaves = out->leaves;
  SweepJoin(lhs, op, rhs, c.HiMonotone(), [&](size_t b, size_t e, size_t j) {
    const size_t before = leaves.size();
    if (!clip) {
      if (c.HiMonotone()) out->NoteRun(lhs[b], lhs[e - 1]);
      leaves.insert(leaves.end(), lhs.begin() + b, lhs.begin() + e);
    } else {
      for (size_t i = b; i < e; ++i) {
        // An empty intersection is the paper's "/{ε}": dropped.
        if (std::optional<Interval> x = Intersect(lhs[i], rhs[j])) {
          leaves.push_back(*x);
        }
      }
    }
    (*counts)[j_base + j + 1] +=
        static_cast<uint32_t>(leaves.size() - before);
  });
  return !clip && c.HiMonotone();
}

// The foreach body for non-singleton rhs: the result's grouping always
// mirrors rhs's nesting with each rhs leaf replaced by the group of
// matching (possibly clipped) c intervals, so instead of recursing over
// rhs children we join c against rhs's flat leaf buffer and stamp out the
// result rep with rhs's own CSR structure (Calendar::NestedLike).  When the
// rhs leaf buffer is globally sorted (every generated base calendar) a
// single sweep covers all rhs leaves; otherwise each order-1 group is swept
// separately, which preserves the kernels' sorted-run precondition.
Calendar ForEachFlat(const Calendar& c, ListOp op, const Calendar& rhs,
                     bool strict) {
  CalendarRep out;
  std::vector<uint32_t> counts(static_cast<size_t>(rhs.TotalIntervals()) + 1);
  auto join = [&](size_t off, IntervalSpan group) {
    out.scanned = JoinInto(c, op, group, strict, off, &out, &counts);
  };
  if (rhs.order() == 1 || rhs.LeavesSorted()) {
    join(0, rhs.Leaves());
  } else {
    rhs.ForEachLeafGroup(join);
  }
  for (size_t j = 1; j < counts.size(); ++j) counts[j] += counts[j - 1];
  return Calendar::NestedLike(rhs, c.granularity(), std::move(out),
                              std::move(counts));
}

}  // namespace

Result<Calendar> ForEachInterval(const Calendar& c, ListOp op,
                                 const Interval& rhs, bool strict) {
  CALDB_RETURN_IF_ERROR(RequireOrder1(c, "foreach left operand"));
  if (c.HiMonotone() && !Clips(op, strict)) {
    // On a hi-monotone run the matches are one index range (found by
    // galloping, O(log n) for the evaluator's window filter): a view.
    size_t b = 0;
    size_t e = 0;
    SweepJoin(c.intervals(), op, IntervalSpan(&rhs, 1), true,
              [&](size_t rb, size_t re, size_t) { b = rb, e = re; });
    return c.Slice(b, e);
  }
  CalendarRep out;
  std::vector<uint32_t> counts(2);
  JoinInto(c, op, IntervalSpan(&rhs, 1), strict, 0, &out, &counts);
  return Calendar::Order1(c.granularity(), std::move(out.leaves));
}

Result<Calendar> ForEach(const Calendar& c, ListOp op, const Calendar& rhs,
                         bool strict) {
  if (op == ListOp::kIntersects) return IntersectsOp(c, rhs, strict);
  CALDB_RETURN_IF_ERROR(RequireSameGranularity(c, rhs, "foreach"));
  CALDB_RETURN_IF_ERROR(RequireOrder1(c, "foreach left operand"));
  // A one-interval order-1 rhs "is an interval" (paper §3.1): the result
  // collapses to order 1 instead of nesting.  Only at the top level —
  // nested results stay rectangular.
  if (rhs.IsSingleton()) {
    return ForEachInterval(c, op, rhs.intervals().front(), strict);
  }
  return ForEachFlat(c, op, rhs, strict);
}

namespace {

// Rejects malformed selection predicates: index 0 (no such position in the
// paper's 1-based scheme) and ranges with a nonpositive start or an end
// before the start.  Mirrors the parser's checks so the API enforces the
// same contract on programmatically built predicates.
Status ValidateSelection(const std::vector<SelectionItem>& predicate) {
  for (const SelectionItem& item : predicate) {
    switch (item.kind) {
      case SelectionItem::Kind::kIndex:
        if (item.index == 0) {
          return Status::InvalidArgument("selection index 0 is invalid");
        }
        break;
      case SelectionItem::Kind::kLast:
        break;
      case SelectionItem::Kind::kRange:
        if (item.range_lo < 1) {
          return Status::InvalidArgument(
              "selection range start " + std::to_string(item.range_lo) +
              " is invalid (ranges are 1-based)");
        }
        if (item.range_hi != SelectionItem::kLastMarker &&
            item.range_hi < item.range_lo) {
          return Status::InvalidArgument(
              "invalid selection range " + std::to_string(item.range_lo) +
              ".." + std::to_string(item.range_hi));
        }
        break;
    }
  }
  return Status::OK();
}

// Resolves a validated selection predicate against an element count,
// producing zero-based positions in listed order.  Out-of-range indices —
// positive or negative — select nothing (documented contract: months with
// fewer than 5 weeks simply contribute nothing to `[5]/...`, and `[-8]` on
// a 5-element calendar contributes nothing rather than wrapping around).
// `positions` is cleared first, so one buffer serves every group.
void ResolvePositions(const std::vector<SelectionItem>& predicate,
                      size_t count, std::vector<size_t>* positions) {
  positions->clear();
  const int64_t n = static_cast<int64_t>(count);
  auto add = [&](int64_t pos_zero_based) {
    if (pos_zero_based >= 0 && pos_zero_based < n) {
      positions->push_back(static_cast<size_t>(pos_zero_based));
    }
  };
  for (const SelectionItem& item : predicate) {
    switch (item.kind) {
      case SelectionItem::Kind::kIndex:
        if (item.index > 0) {
          add(item.index - 1);
        } else if (item.index < 0) {
          // Negative indices count from the end; |index| > n is out of
          // range and selects nothing (never wraps).
          add(n + item.index);
        }
        break;
      case SelectionItem::Kind::kLast:
        add(n - 1);
        break;
      case SelectionItem::Kind::kRange: {
        // Clamp to the element count so `[1..10^12]` costs O(n), not
        // O(range width).
        const int64_t hi =
            item.range_hi == SelectionItem::kLastMarker
                ? n
                : std::min<int64_t>(item.range_hi, n);
        for (int64_t i = item.range_lo; i <= hi; ++i) add(i - 1);
        break;
      }
    }
  }
}

// The one zero-based position a lone `[k]`, `[-k]` or `[n]` picks among
// `count` elements, or -1 when it is out of range (never wrapped): the
// arithmetic ResolvePositions does for such a predicate, without the
// position list.
int64_t SinglePosition(const SelectionItem& item, size_t count) {
  const int64_t n = static_cast<int64_t>(count);
  const int64_t pos = item.kind == SelectionItem::Kind::kLast ? n - 1
                      : item.index > 0                        ? item.index - 1
                                                              : n + item.index;
  return pos >= 0 && pos < n ? pos : -1;
}

// Select, with the predicate classified once: a lone index or `n` picks
// its position per group by SinglePosition, anything else resolves the
// whole predicate per group.  `general` forces the second path.
Result<Calendar> SelectImpl(const std::vector<SelectionItem>& predicate,
                            const Calendar& c, bool general) {
  if (predicate.empty()) {
    return Status::InvalidArgument("empty selection predicate");
  }
  CALDB_RETURN_IF_ERROR(ValidateSelection(predicate));
  const bool single = !general && predicate.size() == 1 &&
                      predicate[0].kind != SelectionItem::Kind::kRange;
  std::vector<size_t> positions;
  // Calls pick(pos) for each selected position of a `count`-element group.
  auto for_each_position = [&](size_t count, auto&& pick) {
    if (single) {
      const int64_t pos = SinglePosition(predicate[0], count);
      if (pos >= 0) pick(static_cast<size_t>(pos));
      return;
    }
    ResolvePositions(predicate, count, &positions);
    for (size_t pos : positions) pick(pos);
  };
  // Order 1 picks intervals; order 2 picks the selected intervals of each
  // order-1 group and splices them together into an order-1 result.
  if (c.order() <= 2) {
    std::vector<Interval> out;
    c.ForEachLeafGroup([&](size_t, IntervalSpan group) {
      for_each_position(group.size(),
                        [&](size_t pos) { out.push_back(group[pos]); });
    });
    return Calendar::Order1(c.granularity(), std::move(out));
  }
  // Order n > 2: the same per component, keeping the selected order-(n-2)
  // children; the result has order n-1.
  std::vector<Calendar> out_children;
  for (size_t i = 0; i < c.size(); ++i) {
    const Calendar child = c.child(i);
    for_each_position(child.size(), [&](size_t pos) {
      out_children.push_back(child.child(pos));
    });
  }
  return Calendar::Nested(c.granularity(), std::move(out_children),
                          /*order_if_empty=*/c.order() - 1);
}

}  // namespace

Result<Calendar> Select(const std::vector<SelectionItem>& predicate,
                        const Calendar& c) {
  return SelectImpl(predicate, c, /*general=*/false);
}

namespace naive {

Result<Calendar> Select(const std::vector<SelectionItem>& predicate,
                        const Calendar& c) {
  return SelectImpl(predicate, c, /*general=*/true);
}

}  // namespace naive

Result<Calendar> Union(const Calendar& a, const Calendar& b) {
  CALDB_RETURN_IF_ERROR(RequireOrder1(a, "union"));
  CALDB_RETURN_IF_ERROR(RequireOrder1(b, "union"));
  CALDB_RETURN_IF_ERROR(RequireSameGranularity(a, b, "union"));
  return Calendar::Order1(a.granularity(),
                          SweepUnion(a.intervals(), b.intervals()));
}

Result<Calendar> Difference(const Calendar& a, const Calendar& b) {
  CALDB_RETURN_IF_ERROR(RequireOrder1(a, "difference"));
  CALDB_RETURN_IF_ERROR(RequireOrder1(b, "difference"));
  CALDB_RETURN_IF_ERROR(RequireSameGranularity(a, b, "difference"));
  return Calendar::Order1(a.granularity(),
                          SweepDifference(a.intervals(), b.intervals()));
}

Result<Calendar> Intersection(const Calendar& a, const Calendar& b) {
  CALDB_RETURN_IF_ERROR(RequireOrder1(a, "intersection"));
  CALDB_RETURN_IF_ERROR(RequireOrder1(b, "intersection"));
  CALDB_RETURN_IF_ERROR(RequireSameGranularity(a, b, "intersection"));
  return Calendar::Order1(a.granularity(),
                          SweepIntersect(a.intervals(), b.intervals()));
}

}  // namespace caldb
