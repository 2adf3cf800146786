// generate / caloperate / rescale (§3.2): the procedures that materialize
// base calendars and derive new calendars by grouping.

#ifndef CALDB_CORE_GENERATE_H_
#define CALDB_CORE_GENERATE_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "core/calendar.h"
#include "time/time_system.h"

namespace caldb {

/// `generate(cal1, cal2, [ts, te])`: the granules of `g` overlapping
/// `span` (an interval of `unit` points), each expressed in `unit` points.
/// With `clip` true the first/last granule are clipped to the span — the
/// paper's generate(YEARS, DAYS, [Jan 1 1987, Jan 3 1992]) ends with
/// (1827,1829).  With `clip` false whole granules are kept — the paper's
/// WEEKS-of-1993 starts with (-4,3).  `unit` must be finer or equal to `g`.
Result<Calendar> GenerateBaseCalendar(const TimeSystem& ts, Granularity g,
                                      Granularity unit, const Interval& span,
                                      bool clip);

/// `caloperate(C, Te; (x1; ...; xn))`: derives a calendar whose k-th
/// interval spans the next x_{k mod n} consecutive intervals of C (the
/// group list is circular).  C must be order-1.  A trailing partial group
/// is kept.  When `te` is set, only source intervals with hi <= te are
/// consumed (the paper's "*" means no bound).
Result<Calendar> CalOperate(const Calendar& c, std::optional<TimePoint> te,
                            const std::vector<int64_t>& groups);

/// Re-expresses a calendar in a finer (or equal) granularity: each interval
/// (lo, hi) becomes (first target point of granule lo, last target point of
/// granule hi).  Recurses through nested calendars.
Result<Calendar> Rescale(const TimeSystem& ts, const Calendar& c,
                         Granularity target);

/// The `to`-unit interval covered by an interval of granularity `from`
/// (exact when `to` is finer; the covering granule range when coarser;
/// the interval itself, unchecked, when the units are equal).  Every
/// granule conversion outside src/time goes through here.
Result<Interval> IntervalToUnit(const TimeSystem& ts, Granularity from,
                                const Interval& i, Granularity to);

/// Renders an order-1 calendar with civil dates — the human-facing output
/// the paper's §5 discussion (MultiCal's concern) is about:
///   "{[1993-01-04..1993-01-10], [1993-01-11..1993-01-17]}"
/// Sub-day calendars render their covering day range.  Single-day
/// intervals render as one date.
Result<std::string> FormatCalendarCivil(const TimeSystem& ts,
                                        const Calendar& c);

}  // namespace caldb

#endif  // CALDB_CORE_GENERATE_H_
