#include "core/budgeter.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/calendar.hpp"

namespace billcap::core {
namespace {

std::vector<double> uniform_weights() {
  return std::vector<double>(util::kHoursPerWeek, 1.0 / 168.0);
}

TEST(BudgeterTest, Validation) {
  EXPECT_THROW(Budgeter(0.0, uniform_weights(), 720), std::invalid_argument);
  EXPECT_THROW(Budgeter(1e6, std::vector<double>(10, 0.1), 720),
               std::invalid_argument);
  EXPECT_THROW(Budgeter(1e6, uniform_weights(), 0), std::invalid_argument);
  std::vector<double> negative = uniform_weights();
  negative[5] = -0.1;
  EXPECT_THROW(Budgeter(1e6, negative, 720), std::invalid_argument);
  std::vector<double> zeros(util::kHoursPerWeek, 0.0);
  EXPECT_THROW(Budgeter(1e6, zeros, 720), std::invalid_argument);
}

TEST(BudgeterTest, UniformWeightsSplitEvenly) {
  const Budgeter b(720.0, uniform_weights(), 720);
  EXPECT_NEAR(b.hourly_budget(0, 0.0), 1.0, 1e-9);
}

TEST(BudgeterTest, FullConsumptionConservesBudget) {
  // Spending exactly each hour's budget walks through the whole month and
  // exhausts (exactly) the monthly total.
  const Budgeter b(2.5e6, uniform_weights(), 720);
  double spent = 0.0;
  for (std::size_t h = 0; h < 720; ++h)
    spent += b.hourly_budget(h, spent);
  EXPECT_NEAR(spent, 2.5e6, 1.0);
}

TEST(BudgeterTest, UnusedBudgetCarriesOver) {
  // Spend nothing for a while: later hourly budgets must grow (Figure 6's
  // within-week growth).
  const Budgeter b(720.0, uniform_weights(), 720);
  const double early = b.hourly_budget(0, 0.0);
  const double later = b.hourly_budget(100, 0.0);  // still nothing spent
  EXPECT_GT(later, early);
}

TEST(BudgeterTest, OverrunShrinksLaterBudgets) {
  const Budgeter b(720.0, uniform_weights(), 720);
  const double nominal = b.hourly_budget(100, 100.0);
  const double after_overrun = b.hourly_budget(100, 400.0);
  EXPECT_LT(after_overrun, nominal);
}

TEST(BudgeterTest, ExhaustedBudgetYieldsZero) {
  const Budgeter b(1000.0, uniform_weights(), 720);
  EXPECT_DOUBLE_EQ(b.hourly_budget(10, 1000.0), 0.0);
  EXPECT_DOUBLE_EQ(b.hourly_budget(10, 2000.0), 0.0);
}

TEST(BudgeterTest, WeightedHoursGetProportionalBudget) {
  std::vector<double> weights(util::kHoursPerWeek, 1.0);
  weights[12] = 5.0;  // one hot hour-of-week slot
  const Budgeter b(1e6, weights, 720);
  const double hot = b.hourly_budget(12, 0.0);
  const double cold = b.hourly_budget(13, 0.0);
  EXPECT_NEAR(hot / cold, 5.0, 0.05);
}

TEST(BudgeterTest, HourBeyondHorizonThrows) {
  const Budgeter b(1e6, uniform_weights(), 720);
  EXPECT_THROW(b.hourly_budget(720, 0.0), std::out_of_range);
}

TEST(BudgeterTest, WeightsOfHoursSumToOne) {
  std::vector<double> weights(util::kHoursPerWeek, 1.0);
  weights[0] = 7.0;
  const Budgeter b(1e6, weights, 720);
  double horizon_weight = 0.0;
  for (std::size_t h = 0; h < 720; ++h)
    horizon_weight += weights[util::hour_of_week(h)];
  // Spending every hour's budget in full hands each hour exactly its static
  // weight share of the month, and the shares add up to the whole budget.
  double spent = 0.0;
  for (std::size_t h = 0; h < 720; ++h) {
    const double budget = b.hourly_budget(h, spent);
    EXPECT_NEAR(budget / 1e6, weights[util::hour_of_week(h)] / horizon_weight,
                1e-12)
        << h;
    spent += budget;
  }
  EXPECT_NEAR(spent / 1e6, 1.0, 1e-9);
}

TEST(BudgeterTest, LastHourGetsEverythingRemaining) {
  const Budgeter b(1000.0, uniform_weights(), 720);
  EXPECT_NEAR(b.hourly_budget(719, 400.0), 600.0, 1e-9);
}

TEST(BudgeterTest, PhaseOffsetShiftsSlots) {
  // A month that starts on Thursday 00:00 (offset 72): the hot Monday-noon
  // slot (index 36) must be applied 96 hours into the month, not 36.
  std::vector<double> weights(util::kHoursPerWeek, 1.0);
  weights[36] = 9.0;
  const Budgeter aligned(1e6, weights, 720, /*phase_offset_hours=*/0);
  const Budgeter thursday(1e6, weights, 720, /*phase_offset_hours=*/72);
  EXPECT_GT(aligned.hourly_budget(36, 0.0),
            5.0 * aligned.hourly_budget(35, 0.0));
  // Off-slot hours differ only through the shrinking suffix (<1 %).
  EXPECT_NEAR(thursday.hourly_budget(36, 0.0) / thursday.hourly_budget(35, 0.0),
              1.0, 0.01);
  EXPECT_GT(thursday.hourly_budget(36 + 96, 0.0),
            5.0 * thursday.hourly_budget(35 + 96, 0.0));
}

TEST(BudgeterTest, PhaseOffsetConservesBudget) {
  const Budgeter b(1e6, uniform_weights(), 720, 72);
  double spent = 0.0;
  for (std::size_t h = 0; h < 720; ++h) spent += b.hourly_budget(h, spent);
  EXPECT_NEAR(spent, 1e6, 1.0);
}

TEST(BudgeterTest, HourOfWeekPeriodicity) {
  // With nothing spent, two hours sharing an hour-of-week slot but in
  // different weeks differ only through the shrinking tail.
  std::vector<double> weights(util::kHoursPerWeek, 1.0);
  weights[30] = 3.0;
  const Budgeter b(1e6, weights, 720);
  EXPECT_GT(b.hourly_budget(30, 0.0), b.hourly_budget(29, 0.0));
  EXPECT_GT(b.hourly_budget(30 + 168, 0.0), b.hourly_budget(29 + 168, 0.0));
}

}  // namespace
}  // namespace billcap::core
