#include "core/calendar_rep.h"

#include <algorithm>

#include "common/macros.h"

namespace caldb {

void CalendarRep::Scan() {
  leaves_sorted = true;
  hi_monotone = true;
  if (leaves.empty()) return;
  // Branch-free accumulation into locals (members could alias the leaves
  // and force a store per step): one tight pass.
  Interval s = leaves.front();
  bool valid = IsValidPoint(s.lo) & IsValidPoint(s.hi) & (s.lo <= s.hi);
  bool sorted = true;
  bool monotone = true;
  for (size_t i = 1; i < leaves.size(); ++i) {
    const Interval l = leaves[i];
    const Interval prev = leaves[i - 1];
    valid &= IsValidPoint(l.lo) & IsValidPoint(l.hi) & (l.lo <= l.hi);
    s.lo = std::min(s.lo, l.lo);
    s.hi = std::max(s.hi, l.hi);
    monotone &= l.hi >= prev.hi;
    sorted &= !IntervalLess(l, prev);
  }
  CALDB_DCHECK(valid, "invalid interval in a calendar");
  span = s;
  leaves_sorted = sorted;
  hi_monotone = monotone;
}

void CalendarRep::Finalize() {
  if (scanned) return;
  Scan();
  if (leaves_sorted) return;
  // Some order-1 group may be out of order: sort just those groups.
  std::vector<uint32_t> whole = {0, static_cast<uint32_t>(leaves.size())};
  const std::vector<uint32_t>& groups = order == 1 ? whole : offsets.back();
  bool resorted = false;
  for (size_t g = 0; g + 1 < groups.size(); ++g) {
    auto b = leaves.begin() + groups[g], e = leaves.begin() + groups[g + 1];
    if (std::is_sorted(b, e, IntervalLess)) continue;
    std::sort(b, e, IntervalLess);
    resorted = true;
  }
  if (resorted) Scan();
}

}  // namespace caldb
