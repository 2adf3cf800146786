#include "core/generate.h"

#include "common/macros.h"
#include "core/sweep.h"

namespace caldb {

Result<Calendar> GenerateBaseCalendar(const TimeSystem& ts, Granularity g,
                                      Granularity unit, const Interval& span,
                                      bool clip) {
  if (FinerThan(g, unit)) {
    return Status::InvalidArgument(
        std::string("generate: unit ") + std::string(GranularityName(unit)) +
        " is coarser than calendar granularity " +
        std::string(GranularityName(g)));
  }
  CALDB_ASSIGN_OR_RETURN(TimePoint first,
                         ts.GranuleContaining(g, span.lo, unit));
  std::vector<Interval> out;
  for (TimePoint idx = first;; idx = PointAdd(idx, 1)) {
    CALDB_ASSIGN_OR_RETURN(Interval r, ts.GranuleToUnit(g, idx, unit));
    if (r.lo > span.hi) break;
    if (clip) {
      std::optional<Interval> clipped = Intersect(r, span);
      if (clipped) out.push_back(*clipped);
    } else {
      out.push_back(r);
    }
  }
  return Calendar::Order1(unit, std::move(out));
}

Result<Calendar> CalOperate(const Calendar& c, std::optional<TimePoint> te,
                            const std::vector<int64_t>& groups) {
  if (c.order() != 1) {
    return Status::InvalidArgument("caloperate requires an order-1 calendar");
  }
  if (groups.empty()) {
    return Status::InvalidArgument("caloperate requires a nonempty group list");
  }
  for (int64_t x : groups) {
    if (x <= 0) {
      return Status::InvalidArgument("caloperate group sizes must be positive");
    }
  }
  // Grouping is a sweep: one covering interval per group of consecutive
  // elements, O(#groups) emits after the te cutoff scan.  A group that
  // straddles the epoch (first.lo < 0 < last.hi) is a closed range of
  // skip-zero points — it never contains the nonexistent point 0 (see
  // Interval::Contains).
  return Calendar::Order1(c.granularity(),
                          SweepGroup(c.intervals(), te, groups));
}

Result<Interval> IntervalToUnit(const TimeSystem& ts, Granularity from,
                                const Interval& i, Granularity to) {
  if (from == to) return i;
  if (FinerThan(from, to)) {
    CALDB_ASSIGN_OR_RETURN(TimePoint lo, ts.GranuleContaining(to, i.lo, from));
    CALDB_ASSIGN_OR_RETURN(TimePoint hi, ts.GranuleContaining(to, i.hi, from));
    return Interval{lo, hi};
  }
  CALDB_ASSIGN_OR_RETURN(Interval lo, ts.GranuleToUnit(from, i.lo, to));
  CALDB_ASSIGN_OR_RETURN(Interval hi, ts.GranuleToUnit(from, i.hi, to));
  return Interval{lo.lo, hi.hi};
}

Result<Calendar> Rescale(const TimeSystem& ts, const Calendar& c,
                         Granularity target) {
  if (c.granularity() == target) return c;
  if (FinerThan(c.granularity(), target)) {
    return Status::InvalidArgument(
        std::string("cannot rescale ") +
        std::string(GranularityName(c.granularity())) + " calendar to coarser " +
        std::string(GranularityName(target)));
  }
  // Granule conversion is monotone in (lo, hi), so mapping the flat leaf
  // buffer preserves every group's sort order; the nesting structure is
  // copied wholesale by TransformLeaves.
  const Granularity from = c.granularity();
  return c.TransformLeaves(target, [&](const Interval& i) {
    return IntervalToUnit(ts, from, i, target);
  });
}

Result<std::string> FormatCalendarCivil(const TimeSystem& ts,
                                        const Calendar& c) {
  if (c.order() != 1) {
    return Status::InvalidArgument(
        "civil rendering is defined for order-1 calendars; Flattened() first");
  }
  std::string out = "{";
  for (size_t i = 0; i < c.intervals().size(); ++i) {
    if (i > 0) out += ", ";
    CALDB_ASSIGN_OR_RETURN(
        Interval days, IntervalToUnit(ts, c.granularity(), c.intervals()[i],
                                      Granularity::kDays));
    if (days.lo == days.hi) {
      out += FormatCivil(ts.CivilFromDayPoint(days.lo));
    } else {
      out += "[" + FormatCivil(ts.CivilFromDayPoint(days.lo)) + ".." +
             FormatCivil(ts.CivilFromDayPoint(days.hi)) + "]";
    }
  }
  out += "}";
  return out;
}

}  // namespace caldb
