#include "catalog/calendar_functions.h"

#include "common/macros.h"
#include "core/generate.h"

namespace caldb {

namespace {

// The evaluation window for probing a named calendar near `day`.
EvalOptions WindowAround(const CalendarCatalog& catalog,
                         const std::string& name, TimePoint day,
                         int64_t default_window_days) {
  EvalOptions opts;
  Result<CalendarDef> def = catalog.Describe(name);
  if (def.ok() && def->lifespan_days.has_value()) {
    opts.window_days = *def->lifespan_days;
  } else {
    opts.window_days = Interval{PointAdd(day, -default_window_days),
                                PointAdd(day, default_window_days)};
  }
  opts.today_day = day;
  return opts;
}

}  // namespace

Status RegisterCalendarFunctions(Database* db, const CalendarCatalog* catalog,
                                 int64_t default_window_days) {
  FunctionRegistry& registry = db->registry();

  CALDB_RETURN_IF_ERROR(registry.Register(
      "cal_contains", 2, 2,
      [catalog, default_window_days](const std::vector<Value>& args) -> Result<Value> {
        CALDB_ASSIGN_OR_RETURN(std::string name, args[0].AsText());
        CALDB_ASSIGN_OR_RETURN(int64_t day, args[1].AsInt());
        if (!IsValidPoint(day)) {
          return Status::InvalidArgument("0 is not a valid time point");
        }
        EvalOptions opts = WindowAround(*catalog, name, day, default_window_days);
        CALDB_ASSIGN_OR_RETURN(Calendar cal, catalog->EvaluateCalendar(name, opts));
        // Probe with the first granule of the day in the calendar's unit.
        CALDB_ASSIGN_OR_RETURN(
            Interval probe,
            IntervalToUnit(catalog->time_system(), Granularity::kDays,
                           PointInterval(day), cal.granularity()));
        return Value::Bool(cal.ContainsPoint(probe.lo));
      }));

  CALDB_RETURN_IF_ERROR(registry.Register(
      "cal_next", 2, 2,
      [catalog](const std::vector<Value>& args) -> Result<Value> {
        CALDB_ASSIGN_OR_RETURN(std::string name, args[0].AsText());
        CALDB_ASSIGN_OR_RETURN(int64_t day, args[1].AsInt());
        CALDB_ASSIGN_OR_RETURN(
            std::optional<TimePoint> next,
            catalog->NextFireDay(name, day, PointAdd(day, 3700)));
        if (!next.has_value()) return Value::Null();
        return Value::Int(*next);
      }));

  CALDB_RETURN_IF_ERROR(registry.Register(
      "cal_eval", 1, 3,
      [catalog](const std::vector<Value>& args) -> Result<Value> {
        CALDB_ASSIGN_OR_RETURN(std::string script, args[0].AsText());
        EvalOptions opts;
        if (args.size() == 3) {
          CALDB_ASSIGN_OR_RETURN(int64_t lo, args[1].AsInt());
          CALDB_ASSIGN_OR_RETURN(int64_t hi, args[2].AsInt());
          CALDB_ASSIGN_OR_RETURN(opts.window_days, MakeInterval(lo, hi));
        }
        CALDB_ASSIGN_OR_RETURN(ScriptValue value,
                               catalog->EvaluateScript(script, opts));
        if (value.kind != ScriptValue::Kind::kCalendar) {
          return Status::EvalError("cal_eval script did not return a calendar");
        }
        return Value::Of(std::move(value.calendar));
      }));

  CALDB_RETURN_IF_ERROR(registry.Register(
      "cal_span", 1, 1, [](const std::vector<Value>& args) -> Result<Value> {
        CALDB_ASSIGN_OR_RETURN(Calendar cal, args[0].AsCalendar());
        std::optional<Interval> span = cal.Span();
        if (!span.has_value()) return Value::Null();
        return Value::Of(*span);
      }));

  CALDB_RETURN_IF_ERROR(registry.Register(
      "cal_count", 1, 1, [](const std::vector<Value>& args) -> Result<Value> {
        CALDB_ASSIGN_OR_RETURN(Calendar cal, args[0].AsCalendar());
        return Value::Int(cal.TotalIntervals());
      }));

  CALDB_RETURN_IF_ERROR(registry.Register(
      "interval_lo", 1, 1, [](const std::vector<Value>& args) -> Result<Value> {
        CALDB_ASSIGN_OR_RETURN(Interval i, args[0].AsInterval());
        return Value::Int(i.lo);
      }));
  CALDB_RETURN_IF_ERROR(registry.Register(
      "interval_hi", 1, 1, [](const std::vector<Value>& args) -> Result<Value> {
        CALDB_ASSIGN_OR_RETURN(Interval i, args[0].AsInterval());
        return Value::Int(i.hi);
      }));
  CALDB_RETURN_IF_ERROR(registry.Register(
      "make_interval", 2, 2,
      [](const std::vector<Value>& args) -> Result<Value> {
        CALDB_ASSIGN_OR_RETURN(int64_t lo, args[0].AsInt());
        CALDB_ASSIGN_OR_RETURN(int64_t hi, args[1].AsInt());
        CALDB_ASSIGN_OR_RETURN(Interval i, MakeInterval(lo, hi));
        return Value::Of(i);
      }));

  // The listops, as boolean operators over interval values.
  struct ListOpFn {
    const char* name;
    ListOp op;
  };
  for (const ListOpFn& entry :
       {ListOpFn{"overlaps", ListOp::kOverlaps}, ListOpFn{"during", ListOp::kDuring},
        ListOpFn{"meets", ListOp::kMeets}, ListOpFn{"before", ListOp::kBefore}}) {
    ListOp op = entry.op;
    CALDB_RETURN_IF_ERROR(registry.Register(
        entry.name, 2, 2,
        [op](const std::vector<Value>& args) -> Result<Value> {
          CALDB_ASSIGN_OR_RETURN(Interval a, args[0].AsInterval());
          CALDB_ASSIGN_OR_RETURN(Interval b, args[1].AsInterval());
          return Value::Bool(EvalListOp(op, a, b));
        }));
  }

  CALDB_RETURN_IF_ERROR(registry.Register(
      "day_of_week", 1, 1,
      [catalog](const std::vector<Value>& args) -> Result<Value> {
        CALDB_ASSIGN_OR_RETURN(int64_t day, args[0].AsInt());
        if (!IsValidPoint(day)) {
          return Status::InvalidArgument("0 is not a valid time point");
        }
        return Value::Int(
            static_cast<int>(catalog->time_system().WeekdayOfDayPoint(day)));
      }));

  CALDB_RETURN_IF_ERROR(registry.Register(
      "date_to_day", 1, 1,
      [catalog](const std::vector<Value>& args) -> Result<Value> {
        CALDB_ASSIGN_OR_RETURN(std::string text, args[0].AsText());
        CALDB_ASSIGN_OR_RETURN(CivilDate date, ParseCivil(text));
        return Value::Int(catalog->time_system().DayPointFromCivil(date));
      }));

  CALDB_RETURN_IF_ERROR(registry.Register(
      "day_to_date", 1, 1,
      [catalog](const std::vector<Value>& args) -> Result<Value> {
        CALDB_ASSIGN_OR_RETURN(int64_t day, args[0].AsInt());
        if (!IsValidPoint(day)) {
          return Status::InvalidArgument("0 is not a valid time point");
        }
        return Value::Text(
            FormatCivil(catalog->time_system().CivilFromDayPoint(day)));
      }));

  // Civil-calendar arithmetic on day points, with the day-of-month clamp
  // (Jan 31 + 1 month = Feb 28/29; a Feb 29 anniversary lands on Feb 28 in
  // non-leap years), so recurrence rules anchored on month ends resolve
  // deterministically.
  struct CivilAddFn {
    const char* name;
    CivilDate (*apply)(CivilDate, int64_t);
  };
  for (const CivilAddFn& entry :
       {CivilAddFn{"add_months", &AddMonths}, CivilAddFn{"add_years", &AddYears}}) {
    auto apply = entry.apply;
    CALDB_RETURN_IF_ERROR(registry.Register(
        entry.name, 2, 2,
        [catalog, apply](const std::vector<Value>& args) -> Result<Value> {
          CALDB_ASSIGN_OR_RETURN(int64_t day, args[0].AsInt());
          CALDB_ASSIGN_OR_RETURN(int64_t count, args[1].AsInt());
          if (!IsValidPoint(day)) {
            return Status::InvalidArgument("0 is not a valid time point");
          }
          CivilDate date = catalog->time_system().CivilFromDayPoint(day);
          return Value::Int(
              catalog->time_system().DayPointFromCivil(apply(date, count)));
        }));
  }

  return Status::OK();
}

}  // namespace caldb
