#include "core/calendar.h"

#include <algorithm>
#include <charconv>

#include "common/macros.h"
#include "obs/obs.h"

namespace caldb {

namespace {

// Sharing observability (docs/OBSERVABILITY.md): rep_copies counts fresh
// reps materialized out of existing calendar data (Nested, unsorted
// Flattened); cow_rebuilds counts rebuild-on-write of a whole value
// (TransformLeaves).  Handle copies and child views share the rep and
// count nothing.
struct CalMetrics {
  obs::Counter* rep_copies = obs::Metrics().counter("caldb.cal.rep_copies");
  obs::Counter* cow_rebuilds =
      obs::Metrics().counter("caldb.cal.cow_rebuilds");
};

CalMetrics& Metrics() {
  static CalMetrics* metrics = new CalMetrics();
  return *metrics;
}

}  // namespace

Calendar Calendar::Root(CalendarRep rep, Granularity g) {
  rep.Finalize();
  auto shared = std::make_shared<const CalendarRep>(std::move(rep));
  const uint32_t top = static_cast<uint32_t>(shared->TopCount());
  const uint32_t leaves = static_cast<uint32_t>(shared->leaves.size());
  return Calendar(std::move(shared), g, /*level=*/0, /*begin=*/0,
                  /*end=*/top, /*leaf_begin=*/0, /*leaf_end=*/leaves);
}

Calendar Calendar::Order1(Granularity g, std::vector<Interval> intervals) {
  CalendarRep rep;  // Root's Finalize checks and, if needed, sorts
  rep.order = 1;
  rep.leaves = std::move(intervals);
  return Root(std::move(rep), g);
}

Result<Calendar> Calendar::MakeOrder1(Granularity g,
                                      std::vector<Interval> intervals) {
  for (const Interval& i : intervals) {
    if (!IsValidPoint(i.lo) || !IsValidPoint(i.hi)) {
      return Status::InvalidArgument(
          "interval endpoint 0 is not a valid time point");
    }
    if (i.lo > i.hi) {
      return Status::InvalidArgument("interval " + FormatInterval(i) +
                                     " has lo > hi");
    }
  }
  return Order1(g, std::move(intervals));
}

Calendar Calendar::Nested(Granularity g, std::vector<Calendar> children,
                          int order_if_empty) {
  CALDB_DCHECK(order_if_empty >= 2, "Nested calendars have order >= 2");
  const int child_order =
      children.empty() ? order_if_empty - 1 : children.front().order();
  CalendarRep rep;
  rep.order = child_order + 1;
  rep.offsets.assign(static_cast<size_t>(rep.order - 1), {0});
  for (const Calendar& child : children) {
    CALDB_DCHECK(child.order() == child_order,
                 "Calendar::Nested requires children of equal order");
    rep.offsets[0].push_back(rep.offsets[0].back() +
                             static_cast<uint32_t>(child.size()));
    std::vector<std::vector<uint32_t>> child_offsets = child.ViewOffsets();
    for (int k = 0; k + 1 < child_order; ++k) {
      std::vector<uint32_t>& dst = rep.offsets[static_cast<size_t>(k) + 1];
      const uint32_t base = dst.back();
      const std::vector<uint32_t>& src = child_offsets[static_cast<size_t>(k)];
      for (size_t idx = 1; idx < src.size(); ++idx) {
        dst.push_back(base + src[idx]);
      }
    }
    IntervalSpan lv = child.Leaves();
    rep.leaves.insert(rep.leaves.end(), lv.begin(), lv.end());
  }
  if (!children.empty()) Metrics().rep_copies->Increment();
  return Root(std::move(rep), g);
}

Calendar Calendar::NestedLike(const Calendar& shape, Granularity g,
                              CalendarRep leaves,
                              std::vector<uint32_t> inner) {
  CALDB_DCHECK(static_cast<int64_t>(inner.size()) ==
                       shape.TotalIntervals() + 1 &&
                   inner.front() == 0 && inner.back() == leaves.leaves.size(),
               "NestedLike requires one group per shape leaf");
  leaves.order = shape.order() + 1;
  leaves.offsets = shape.ViewOffsets();
  leaves.offsets.push_back(std::move(inner));
  return Root(std::move(leaves), g);
}

IntervalSpan Calendar::Leaves() const {
  if (!rep_) return {};
  return IntervalSpan(rep_->leaves.data() + leaf_begin_,
                      leaf_end_ - leaf_begin_);
}

Calendar Calendar::child(size_t i) const {
  CALDB_DCHECK(rep_ != nullptr && order() > 1 && i < size(),
               "Calendar::child requires a nested calendar and i < size()");
  const std::vector<uint32_t>& level = rep_->offsets[static_cast<size_t>(level_)];
  uint32_t b = level[begin_ + static_cast<uint32_t>(i)];
  uint32_t e = level[begin_ + static_cast<uint32_t>(i) + 1];
  // Walk the CSR levels down to the leaf range of the child view.
  uint32_t lb = b;
  uint32_t le = e;
  for (int k = level_ + 1; k + 1 < rep_->order; ++k) {
    lb = rep_->offsets[static_cast<size_t>(k)][lb];
    le = rep_->offsets[static_cast<size_t>(k)][le];
  }
  return Calendar(rep_, granularity_, level_ + 1, b, e, lb, le);
}

std::vector<Calendar> Calendar::children() const {
  std::vector<Calendar> out;
  for (size_t i = 0; i < size(); ++i) out.push_back(child(i));
  return out;
}

Calendar Calendar::Slice(size_t begin, size_t end) const {
  CALDB_DCHECK(order() == 1 && begin <= end && end <= size(),
               "Calendar::Slice requires an order-1 calendar and a range");
  // An order-1 view's element range is its leaf range.
  const uint32_t b = begin_ + static_cast<uint32_t>(begin);
  const uint32_t e = begin_ + static_cast<uint32_t>(end);
  return Calendar(rep_, granularity_, level_, b, e, b, e);
}

std::vector<std::vector<uint32_t>> Calendar::ViewOffsets() const {
  std::vector<std::vector<uint32_t>> out;
  if (!rep_ || order() == 1) return out;
  uint32_t b = begin_;
  uint32_t e = end_;
  for (int k = level_; k + 1 < rep_->order; ++k) {
    const std::vector<uint32_t>& src = rep_->offsets[static_cast<size_t>(k)];
    std::vector<uint32_t> lvl(src.begin() + b, src.begin() + e + 1);
    const uint32_t base = lvl.front();
    for (uint32_t& x : lvl) x -= base;
    out.push_back(std::move(lvl));
    b = src[b];
    e = src[e];
  }
  return out;
}

Calendar Calendar::Flattened() const {
  if (!rep_ || order() == 1) return *this;
  if (rep_->leaves_sorted) {
    // Order-1 view over the same leaf run — no copy, no sort.
    return Calendar(rep_, granularity_, rep_->order - 1, leaf_begin_,
                    leaf_end_, leaf_begin_, leaf_end_);
  }
  IntervalSpan lv = Leaves();
  Metrics().rep_copies->Increment();
  return Order1(granularity_, std::vector<Interval>(lv.begin(), lv.end()));
}

std::optional<Interval> Calendar::Span() const {
  if (IsNull()) return std::nullopt;
  if (leaf_begin_ == 0 && leaf_end_ == rep_->leaves.size()) {
    return rep_->span;  // precomputed for whole-rep handles
  }
  IntervalSpan lv = Leaves();
  // Within one order-1 group (and in globally sorted buffers) the first
  // leaf has the minimal lo; hi needs the scan unless it is monotone.
  const bool lo_sorted = order() == 1 || rep_->leaves_sorted;
  if (lo_sorted && rep_->hi_monotone) {
    return Interval{lv.front().lo, lv.back().hi};
  }
  TimePoint lo = lv.front().lo;
  TimePoint hi = lv.front().hi;
  for (const Interval& i : lv) {
    if (!lo_sorted && i.lo < lo) lo = i.lo;
    if (i.hi > hi) hi = i.hi;
  }
  return Interval{lo, hi};
}

bool Calendar::ContainsPoint(TimePoint p) const {
  const bool lo_sorted = order() == 1 || (rep_ && rep_->leaves_sorted);
  for (const Interval& i : Leaves()) {
    if (lo_sorted && i.lo > p) break;
    if (i.Contains(p)) return true;
  }
  return false;
}

namespace {

// Appends "(lo,hi)" without a temporary string.
void AppendInterval(const Interval& i, std::string* out) {
  char buf[24];  // an int64 takes at most 20 characters
  out->push_back('(');
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), i.lo).ptr);
  out->push_back(',');
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), i.hi).ptr);
  out->push_back(')');
}

// Appends elements [b, e) of nesting level `level` of `rep`, braced.
void AppendElements(const CalendarRep& rep, int level, uint32_t b, uint32_t e,
                    std::string* out) {
  out->push_back('{');
  const bool leaves = level + 1 == rep.order;
  for (uint32_t t = b; t < e; ++t) {
    if (t > b) out->push_back(',');
    if (leaves) {
      AppendInterval(rep.leaves[t], out);
    } else {
      const std::vector<uint32_t>& next = rep.offsets[static_cast<size_t>(level)];
      AppendElements(rep, level + 1, next[t], next[t + 1], out);
    }
  }
  out->push_back('}');
}

}  // namespace

std::string Calendar::ToString() const {
  if (!rep_) return "{}";
  std::string out;
  // About 10 characters per "(lo,hi)," at four-digit points.
  out.reserve(static_cast<size_t>(TotalIntervals()) * 10 + 2);
  AppendElements(*rep_, level_, begin_, end_, &out);
  return out;
}

Result<Calendar> Calendar::TransformLeaves(
    Granularity g,
    const std::function<Result<Interval>(const Interval&)>& fn) const {
  std::vector<Interval> mapped;
  mapped.reserve(static_cast<size_t>(TotalIntervals()));
  for (const Interval& i : Leaves()) {
    CALDB_ASSIGN_OR_RETURN(Interval m, fn(i));
    mapped.push_back(m);
  }
  CalendarRep rep;
  rep.order = order();
  rep.offsets = ViewOffsets();
  rep.leaves = std::move(mapped);
  Metrics().cow_rebuilds->Increment();
  return Root(std::move(rep), g);
}

bool Calendar::operator==(const Calendar& other) const {
  if (granularity_ != other.granularity_ || order() != other.order()) {
    return false;
  }
  if (rep_ == other.rep_ && level_ == other.level_ && begin_ == other.begin_ &&
      end_ == other.end_) {
    return true;  // same view of the same rep
  }
  // Same leaves and the same grouping at every level.
  return std::ranges::equal(Leaves(), other.Leaves()) &&
         ViewOffsets() == other.ViewOffsets();
}

}  // namespace caldb
