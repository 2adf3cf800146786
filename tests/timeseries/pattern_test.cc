// The §6 future-work pattern predicates: {S_t < Next(S_t)} etc.

#include "timeseries/pattern.h"

#include <gtest/gtest.h>

namespace caldb {
namespace {

TEST(PatternTest, PaperRisingPricesPattern) {
  // "the time points at which the end-of-day closing prices for two
  // successive days showed an increase": {S_t < Next(S_t)}.
  std::vector<double> prices = {10, 12, 11, 11, 14, 13};
  auto matches = MatchPatternIndices(prices, "S < next(S)");
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_EQ(*matches, (std::vector<size_t>{0, 3}));
}

TEST(PatternTest, PrevAndArithmetic) {
  std::vector<double> v = {1, 2, 4, 4, 3};
  // Strictly rising by at least 1 versus the previous observation.
  auto rising = MatchPatternIndices(v, "S >= prev(S) + 1");
  ASSERT_TRUE(rising.ok());
  EXPECT_EQ(*rising, (std::vector<size_t>{1, 2}));
  // Local maximum.
  auto peak = MatchPatternIndices(v, "S > prev(S) and S > next(S)");
  ASSERT_TRUE(peak.ok());
  EXPECT_TRUE(peak->empty());  // plateau at 4,4 breaks strictness
  auto plateau_peak =
      MatchPatternIndices(v, "S > prev(S) and S >= next(S)");
  ASSERT_TRUE(plateau_peak.ok());
  EXPECT_EQ(*plateau_peak, (std::vector<size_t>{2}));
}

TEST(PatternTest, NestedShifts) {
  std::vector<double> v = {1, 2, 3, 2, 1};
  // Rising two steps ahead.
  auto r = MatchPatternIndices(v, "S < next(next(S))");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<size_t>{0}));
}

TEST(PatternTest, BoundaryReferencesFail) {
  std::vector<double> v = {5, 5};
  // next(S) at the last observation is missing: no match there.
  auto r = MatchPatternIndices(v, "S = next(S)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<size_t>{0}));
  // An always-true comparison on S alone matches everywhere.
  auto all = MatchPatternIndices(v, "S = 5");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, (std::vector<size_t>{0, 1}));
}

TEST(PatternTest, OrAndNot) {
  std::vector<double> v = {1, 10, 2, 20};
  auto r = MatchPatternIndices(v, "S < 2 or S > 15");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<size_t>{0, 3}));
  auto n = MatchPatternIndices(v, "not (S < 5)");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, (std::vector<size_t>{1, 3}));
}

TEST(PatternTest, DivisionGuards) {
  std::vector<double> v = {4, 0, 2};
  // Division by a zero observation yields no match rather than an error.
  auto r = MatchPatternIndices(v, "8 / S > 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<size_t>{0, 2}));
}

TEST(PatternTest, ParseErrors) {
  std::vector<double> v = {1};
  EXPECT_FALSE(MatchPatternIndices(v, "").ok());
  EXPECT_FALSE(MatchPatternIndices(v, "S <").ok());
  EXPECT_FALSE(MatchPatternIndices(v, "bogus(S) < 1").ok());
  EXPECT_FALSE(MatchPatternIndices(v, "S + 1").ok());   // not a predicate
  EXPECT_FALSE(MatchPatternIndices(v, "S < 1 extra").ok());
  EXPECT_FALSE(MatchPatternIndices(v, "S @ 1").ok());
  EXPECT_FALSE(MatchPatternIndices(v, "S < 1 /* c */").ok());
  EXPECT_FALSE(MatchPatternIndices(v, "S < 1 // c").ok());
}

TEST(PatternTest, NumbersFollowTheSharedGrammar) {
  std::vector<double> v = {0.25, 0.75};
  auto r = MatchPatternIndices(v, "S < 0.5");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, (std::vector<size_t>{0}));
  // Numbers are d+ or d+.d+: neither a bare leading nor trailing dot.
  EXPECT_FALSE(MatchPatternIndices(v, "S < .5").ok());
  EXPECT_FALSE(MatchPatternIndices(v, "S < 5.").ok());
}

TEST(PatternTest, RegularSeriesYieldsDayPoints) {
  CalendarCatalog catalog{TimeSystem{CivilDate{1993, 1, 1}}};
  ASSERT_TRUE(
      catalog.DefineDerived("MONTH_ENDS", "[n]/DAYS:during:MONTHS").ok());
  RegularTimeSeries series(&catalog, "MONTH_ENDS", 1);
  for (double v : {10.0, 12.0, 11.0, 15.0}) series.Append(v);
  auto cal = MatchPattern(series, "S < next(S)");
  ASSERT_TRUE(cal.ok()) << cal.status();
  // Matches at observations 0 (Jan 31 = day 31) and 2 (Mar 31 = day 90).
  EXPECT_EQ(cal->ToString(), "{(31,31),(90,90)}");
}

TEST(PatternTest, IrregularSeries) {
  IrregularTimeSeries series;
  ASSERT_TRUE(series.Append(3, 1.0).ok());
  ASSERT_TRUE(series.Append(8, 5.0).ok());
  ASSERT_TRUE(series.Append(21, 2.0).ok());
  auto cal = MatchPattern(series, "S > prev(S)");
  ASSERT_TRUE(cal.ok());
  EXPECT_EQ(cal->ToString(), "{(8,8)}");
}

}  // namespace
}  // namespace caldb
