#include "workload/wiki_synth.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/calendar.hpp"

namespace billcap::workload {
namespace {

TEST(WikiSynthTest, DeterministicInSeed) {
  const WikiSynthParams params;
  const Trace a = generate_wiki_trace(params, 200, 11);
  const Trace b = generate_wiki_trace(params, 200, 11);
  const Trace c = generate_wiki_trace(params, 200, 12);
  for (std::size_t h = 0; h < 200; ++h)
    EXPECT_DOUBLE_EQ(a.at(h), b.at(h));
  bool any_diff = false;
  for (std::size_t h = 0; h < 200; ++h)
    if (a.at(h) != c.at(h)) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(WikiSynthTest, MeanNearConfigured) {
  WikiSynthParams params;
  params.flash_crowd_per_hour = 0.0;  // isolate the regular pattern
  const Trace t = generate_wiki_trace(params, 8 * util::kHoursPerWeek, 3);
  EXPECT_NEAR(t.mean() / params.mean_rate, 1.0, 0.15);
}

TEST(WikiSynthTest, StrongWeeklyPattern) {
  // The paper: "users behavior in the trace shows a very clear weekly
  // pattern". Same hour-of-week across weeks must correlate strongly.
  WikiSynthParams params;
  params.flash_crowd_per_hour = 0.0;
  params.noise_sigma = 0.0;
  const Trace t = generate_wiki_trace(params, 2 * util::kHoursPerWeek, 3);
  for (std::size_t h = 0; h < util::kHoursPerWeek; ++h)
    EXPECT_NEAR(t.at(h), t.at(h + util::kHoursPerWeek), 1e-6);
}

TEST(WikiSynthTest, DiurnalSwingVisible) {
  WikiSynthParams params;
  params.flash_crowd_per_hour = 0.0;
  params.noise_sigma = 0.0;
  const Trace t = generate_wiki_trace(params, 24, 3);
  double peak = 0.0;
  double trough = 1e300;
  for (std::size_t h = 0; h < 24; ++h) {
    peak = std::max(peak, t.at(h));
    trough = std::min(trough, t.at(h));
  }
  EXPECT_GT(peak / trough, 1.2);  // a pronounced day/night swing
}

TEST(WikiSynthTest, WeekendsLighter) {
  WikiSynthParams params;
  params.flash_crowd_per_hour = 0.0;
  params.noise_sigma = 0.0;
  const Trace t = generate_wiki_trace(params, util::kHoursPerWeek, 3);
  const double wed_noon = t.at(2 * 24 + 12);
  const double sat_noon = t.at(5 * 24 + 12);
  EXPECT_NEAR(sat_noon / wed_noon, 1.0 - params.weekend_drop, 1e-9);
}

TEST(WikiSynthTest, FlashCrowdsCreateSpikes) {
  WikiSynthParams calm;
  calm.flash_crowd_per_hour = 0.0;
  WikiSynthParams stormy = calm;
  stormy.flash_crowd_per_hour = 0.05;
  stormy.flash_crowd_magnitude = 1.0;
  const std::size_t hours = 4 * util::kHoursPerWeek;
  const Trace base = generate_wiki_trace(calm, hours, 9);
  const Trace spiky = generate_wiki_trace(stormy, hours, 9);
  const auto peak = [](const Trace& t) {
    return *std::max_element(t.series().begin(), t.series().end());
  };
  EXPECT_GT(peak(spiky), 1.5 * peak(base));
}

TEST(WikiSynthTest, FlashCrowdsDecayOverHours) {
  WikiSynthParams params;
  params.noise_sigma = 0.0;
  params.flash_crowd_per_hour = 1.0;  // guaranteed start at hour 0
  params.flash_crowd_decay = 0.5;
  params.diurnal_amplitude = 0.0;
  params.weekend_drop = 0.0;
  // With an event every hour the level approaches the geometric-series
  // steady state rather than growing without bound.
  const Trace t = generate_wiki_trace(params, 100, 1);
  const double bound =
      params.mean_rate *
      (1.0 + params.flash_crowd_magnitude / (1.0 - params.flash_crowd_decay));
  for (std::size_t h = 0; h < 100; ++h) EXPECT_LE(t.at(h), bound * 1.01);
}

TEST(WikiSynthTest, Validation) {
  WikiSynthParams params;
  params.mean_rate = 0.0;
  EXPECT_THROW(generate_wiki_trace(params, 10, 1), std::invalid_argument);
  params = {};
  params.diurnal_amplitude = 1.5;
  EXPECT_THROW(generate_wiki_trace(params, 10, 1), std::invalid_argument);
  params = {};
  params.flash_crowd_decay = 1.0;
  EXPECT_THROW(generate_wiki_trace(params, 10, 1), std::invalid_argument);
}

TEST(TwoMonthTraceTest, PaperShapedMonths) {
  const TwoMonthTrace both = paper_two_month_trace(2012);
  EXPECT_EQ(both.history.hours(), 744u);     // 31-day October
  EXPECT_EQ(both.evaluation.hours(), 720u);  // 30-day November
}

TEST(TwoMonthTraceTest, MonthsAreContinuous) {
  // The evaluation month continues the same series (weekly phase intact).
  const TwoMonthTrace both = paper_two_month_trace(7);
  const Trace full = generate_wiki_trace({}, 744 + 720, 7);
  EXPECT_DOUBLE_EQ(both.history.at(0), full.at(0));
  EXPECT_DOUBLE_EQ(both.evaluation.at(0), full.at(744));
  EXPECT_DOUBLE_EQ(both.evaluation.at(719), full.at(1463));
}

}  // namespace
}  // namespace billcap::workload
