#include "timeseries/time_series.h"

#include "common/macros.h"
#include "core/generate.h"

namespace caldb {

RegularTimeSeries::RegularTimeSeries(const CalendarCatalog* catalog,
                                     std::string calendar_name,
                                     TimePoint anchor_day)
    : catalog_(catalog),
      calendar_name_(std::move(calendar_name)),
      anchor_day_(anchor_day) {}

Status RegularTimeSeries::EnsureIntervals(size_t count) const {
  if (intervals_cache_.size() >= count) return Status::OK();
  // Evaluate the calendar over growing windows until enough intervals at
  // or after the anchor are available.
  for (int64_t span_days = 512;; span_days *= 4) {
    EvalOptions opts;
    opts.window_days = Interval{anchor_day_, PointAdd(anchor_day_, span_days)};
    CALDB_ASSIGN_OR_RETURN(Calendar cal,
                           catalog_->EvaluateCalendar(calendar_name_, opts));
    // Flattened() is a zero-copy view whenever the shared leaf buffer is
    // already sorted (true for every evaluated calendar in practice).
    Calendar flat = cal.Flattened();
    std::vector<Interval> days;
    for (const Interval& i : flat.intervals()) {
      CALDB_ASSIGN_OR_RETURN(
          Interval d, IntervalToUnit(catalog_->time_system(),
                                     flat.granularity(), i, Granularity::kDays));
      if (d.hi < anchor_day_) continue;
      days.push_back(d);
    }
    if (days.size() >= count) {
      intervals_cache_ = std::move(days);
      return Status::OK();
    }
    if (span_days > 400 * 400) {
      return Status::EvalError("calendar '" + calendar_name_ +
                               "' yields too few intervals after day " +
                               std::to_string(anchor_day_));
    }
  }
}

Result<double> RegularTimeSeries::ValueAt(size_t i) const {
  if (i >= values_.size()) {
    return Status::OutOfRange("observation " + std::to_string(i) +
                              " out of range (size " +
                              std::to_string(values_.size()) + ")");
  }
  return values_[i];
}

Result<Interval> RegularTimeSeries::IntervalAt(size_t i) const {
  CALDB_RETURN_IF_ERROR(EnsureIntervals(i + 1));
  return intervals_cache_[i];
}

Result<TimePoint> RegularTimeSeries::DayAt(size_t i) const {
  CALDB_ASSIGN_OR_RETURN(Interval interval, IntervalAt(i));
  return interval.hi;
}

Result<std::vector<std::pair<TimePoint, double>>>
RegularTimeSeries::Materialize() const {
  CALDB_RETURN_IF_ERROR(EnsureIntervals(values_.size()));
  std::vector<std::pair<TimePoint, double>> out;
  out.reserve(values_.size());
  for (size_t i = 0; i < values_.size(); ++i) {
    out.emplace_back(intervals_cache_[i].hi, values_[i]);
  }
  return out;
}

Result<std::optional<double>> RegularTimeSeries::ValueOn(TimePoint day) const {
  CALDB_RETURN_IF_ERROR(EnsureIntervals(values_.size()));
  for (size_t i = 0; i < values_.size(); ++i) {
    if (intervals_cache_[i].Contains(day)) return std::optional<double>(values_[i]);
  }
  return std::optional<double>(std::nullopt);
}

Result<std::vector<std::pair<TimePoint, double>>> RegularTimeSeries::Slice(
    const Interval& window) const {
  CALDB_ASSIGN_OR_RETURN(auto all, Materialize());
  std::vector<std::pair<TimePoint, double>> out;
  for (const auto& [day, value] : all) {
    if (window.Contains(day)) out.emplace_back(day, value);
  }
  return out;
}

Status IrregularTimeSeries::Append(TimePoint day, double value) {
  if (!IsValidPoint(day)) {
    return Status::InvalidArgument("0 is not a valid time point");
  }
  if (!points_.empty() && day <= points_.back().first) {
    return Status::InvalidArgument("observation days must strictly increase");
  }
  points_.emplace_back(day, value);
  return Status::OK();
}

Result<std::optional<double>> IrregularTimeSeries::ValueOn(TimePoint day) const {
  for (const auto& [d, v] : points_) {
    if (d == day) return std::optional<double>(v);
    if (d > day) break;
  }
  return std::optional<double>(std::nullopt);
}

Calendar IrregularTimeSeries::AsCalendar() const {
  std::vector<Interval> intervals;
  intervals.reserve(points_.size());
  for (const auto& [d, v] : points_) intervals.push_back(PointInterval(d));
  return Calendar::Order1(Granularity::kDays, std::move(intervals));
}

}  // namespace caldb
