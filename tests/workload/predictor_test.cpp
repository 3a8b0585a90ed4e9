#include "workload/predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/calendar.hpp"
#include "workload/wiki_synth.hpp"

namespace billcap::workload {
namespace {

TEST(HourOfWeekWeightsTest, UniformWithoutFullWeek) {
  const std::vector<double> short_history(100, 5.0);
  const auto w = hour_of_week_weights(short_history);
  ASSERT_EQ(w.size(), util::kHoursPerWeek);
  for (double x : w) EXPECT_DOUBLE_EQ(x, 1.0 / 168.0);
}

TEST(HourOfWeekWeightsTest, WeightsSumToOne) {
  std::vector<double> history;
  for (std::size_t h = 0; h < 3 * util::kHoursPerWeek; ++h)
    history.push_back(1.0 + static_cast<double>(h % 24));
  const auto w = hour_of_week_weights(history, 2);
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-12);
}

TEST(HourOfWeekWeightsTest, RecoversPeriodicPattern) {
  // History exactly periodic: weight proportional to the slot's level.
  std::vector<double> history;
  for (std::size_t h = 0; h < 2 * util::kHoursPerWeek; ++h)
    history.push_back(util::hour_of_week(h) == 10 ? 500.0 : 1.0);
  const auto w = hour_of_week_weights(history, 2);
  EXPECT_GT(w[10], 100 * w[11]);
}

TEST(HourOfWeekWeightsTest, UsesOnlyRecentWeeks) {
  // Older history beyond the window must not influence the weights.
  std::vector<double> history(util::kHoursPerWeek, 1000.0);  // old week
  for (std::size_t h = 0; h < 2 * util::kHoursPerWeek; ++h)
    history.push_back(1.0);  // two recent flat weeks
  const auto w = hour_of_week_weights(history, 2);
  for (double x : w) EXPECT_NEAR(x, 1.0 / 168.0, 1e-9);
}

TEST(HourOfWeekWeightsTest, ZeroWeeksThrows) {
  EXPECT_THROW(hour_of_week_weights(std::vector<double>{}, 0),
               std::invalid_argument);
}

TEST(HourOfWeekWeightsTest, AllZeroHistoryFallsBackToUniform) {
  const std::vector<double> zeros(2 * util::kHoursPerWeek, 0.0);
  const auto w = hour_of_week_weights(zeros, 2);
  for (double x : w) EXPECT_DOUBLE_EQ(x, 1.0 / 168.0);
}

TEST(HistoryPredictorTest, OctoberPredictsNovemberShape) {
  // The end-to-end property the budgeter relies on (Section VI-B): weights
  // learned on the history month rank November's hours correctly.
  const TwoMonthTrace both = paper_two_month_trace(2012);
  const std::vector<double> predicted =
      hour_of_week_weights(both.history.series(), 2);
  // Predicted weights must correlate with the realized hour-of-week means
  // of the evaluation month: check peak vs trough ordering.
  std::vector<double> november_mean(util::kHoursPerWeek, 0.0);
  std::vector<int> counts(util::kHoursPerWeek, 0);
  for (std::size_t h = 0; h < both.evaluation.hours(); ++h) {
    // Evaluation month starts 744 h into the series; preserve phase.
    const std::size_t how = util::hour_of_week(744 + h);
    november_mean[how] += both.evaluation.at(h);
    ++counts[how];
  }
  for (std::size_t s = 0; s < util::kHoursPerWeek; ++s)
    november_mean[s] /= std::max(counts[s], 1);

  const auto peak_slot = static_cast<std::size_t>(
      std::max_element(november_mean.begin(), november_mean.end()) -
      november_mean.begin());
  const auto trough_slot = static_cast<std::size_t>(
      std::min_element(november_mean.begin(), november_mean.end()) -
      november_mean.begin());
  EXPECT_GT(predicted[peak_slot], predicted[trough_slot]);
}

}  // namespace
}  // namespace billcap::workload
