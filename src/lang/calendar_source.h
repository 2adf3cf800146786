// CalendarSource: the interface through which the expression language
// resolves calendar names.  The catalog module (the CALENDARS table of
// §3.2) implements it; a null source resolves only base calendars,
// literals, variables and `today`.

#ifndef CALDB_LANG_CALENDAR_SOURCE_H_
#define CALDB_LANG_CALENDAR_SOURCE_H_

#include <memory>
#include <optional>
#include <string>

#include "common/result.h"
#include "core/calendar.h"
#include "time/granularity.h"

namespace caldb {

struct Script;  // defined in lang/ast.h
struct Plan;    // defined in lang/plan.h

/// What a calendar name resolves to.
struct ResolvedCalendar {
  enum class Kind {
    kBase,     // one of SECONDS..CENTURY, materialized by generate()
    kDerived,  // defined by a derivation script (inlined or invoked)
    kValues,   // explicit stored values (e.g. HOLIDAYS)
  };

  Kind kind = Kind::kBase;
  Granularity granularity = Granularity::kDays;
  // The row's lifespan in DAYS points (nullopt = unbounded; base calendars
  // have none).  The calendar has no values outside it: every reference
  // reads it over the step window intersected with the lifespan.
  std::optional<Interval> lifespan_days;

  // kDerived: the parsed derivation script and its compiled eval-plan
  // (the CALENDARS table's derivation-script / eval-plan columns).
  std::shared_ptr<const Script> script;
  std::shared_ptr<const Plan> plan;

  // kValues: the stored intervals.
  Calendar values;
};

class CalendarSource {
 public:
  virtual ~CalendarSource() = default;

  /// Resolves a calendar name (case-sensitive for user calendars; the nine
  /// base names are case-insensitive).  NotFound when unknown.
  virtual Result<ResolvedCalendar> Resolve(const std::string& name) const = 0;
};

}  // namespace caldb

#endif  // CALDB_LANG_CALENDAR_SOURCE_H_
