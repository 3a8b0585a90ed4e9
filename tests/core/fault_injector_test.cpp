#include "core/fault_injector.hpp"

#include <gtest/gtest.h>

namespace billcap::core {
namespace {

TEST(FaultInjectorTest, DefaultConstructedReportsNoFaults) {
  const FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  EXPECT_TRUE(injector.site_available(0, 0));
  EXPECT_EQ(injector.sites_down(5), 0u);
  EXPECT_FALSE(injector.prices_stale(7));
  EXPECT_EQ(injector.observed_market_hour(7), 7u);
  EXPECT_DOUBLE_EQ(injector.demand_multiplier(1, 3), 1.0);
  EXPECT_EQ(injector.solver_node_budget(3), 0);
}

TEST(FaultInjectorTest, OutageWindowExactBounds) {
  FaultPlan plan;
  plan.outages.push_back({1, 10, 5});  // hours [10, 15)
  const FaultInjector injector(plan, 3, 100);
  EXPECT_TRUE(injector.enabled());
  EXPECT_TRUE(injector.site_available(1, 9));
  EXPECT_FALSE(injector.site_available(1, 10));
  EXPECT_FALSE(injector.site_available(1, 14));
  EXPECT_TRUE(injector.site_available(1, 15));
  // Other sites untouched.
  EXPECT_TRUE(injector.site_available(0, 12));
  EXPECT_TRUE(injector.site_available(2, 12));
  EXPECT_EQ(injector.sites_down(12), 1u);
  EXPECT_EQ(injector.sites_down(15), 0u);
}

TEST(FaultInjectorTest, StaleIntervalFreezesAtLastSeenHour) {
  FaultPlan plan;
  plan.stale_intervals.push_back({20, 4});  // hours [20, 24)
  const FaultInjector injector(plan, 3, 100);
  EXPECT_FALSE(injector.prices_stale(19));
  EXPECT_TRUE(injector.prices_stale(20));
  EXPECT_TRUE(injector.prices_stale(23));
  EXPECT_FALSE(injector.prices_stale(24));
  for (std::size_t h = 20; h < 24; ++h)
    EXPECT_EQ(injector.observed_market_hour(h), 19u) << h;
  EXPECT_EQ(injector.observed_market_hour(24), 24u);
}

TEST(FaultInjectorTest, StaleIntervalStartingAtZeroPinsHourZero) {
  FaultPlan plan;
  plan.stale_intervals.push_back({0, 3});
  const FaultInjector injector(plan, 2, 50);
  EXPECT_EQ(injector.observed_market_hour(0), 0u);
  EXPECT_EQ(injector.observed_market_hour(2), 0u);
  // Hour 0 observes its own (hour-0) data, so it is not reported stale.
  EXPECT_FALSE(injector.prices_stale(0));
  EXPECT_TRUE(injector.prices_stale(1));
}

TEST(FaultInjectorTest, ShocksMultiplyAndCompose) {
  FaultPlan plan;
  plan.demand_shocks.push_back({0, 5, 10, 1.5});
  plan.demand_shocks.push_back({0, 8, 2, 2.0});  // overlaps hours 8-9
  const FaultInjector injector(plan, 2, 50);
  EXPECT_DOUBLE_EQ(injector.demand_multiplier(0, 4), 1.0);
  EXPECT_DOUBLE_EQ(injector.demand_multiplier(0, 5), 1.5);
  EXPECT_DOUBLE_EQ(injector.demand_multiplier(0, 8), 3.0);
  EXPECT_DOUBLE_EQ(injector.demand_multiplier(0, 10), 1.5);
  EXPECT_DOUBLE_EQ(injector.demand_multiplier(1, 8), 1.0);
}

TEST(FaultInjectorTest, TightestDeadlineWinsOnOverlap) {
  FaultPlan plan;
  plan.deadline_squeezes.push_back({10, 10, 8});
  plan.deadline_squeezes.push_back({15, 2, 2});
  plan.deadline_squeezes.push_back({30, 5, 0});  // no budget: ignored
  const FaultInjector injector(plan, 1, 50);
  EXPECT_EQ(injector.solver_node_budget(9), 0);
  EXPECT_EQ(injector.solver_node_budget(12), 8);
  EXPECT_EQ(injector.solver_node_budget(15), 2);
  EXPECT_EQ(injector.solver_node_budget(17), 8);
  EXPECT_EQ(injector.solver_node_budget(20), 0);
  EXPECT_EQ(injector.solver_node_budget(31), 0);
}

TEST(FaultInjectorTest, IntervalsClipToHorizonAndBadSitesIgnored) {
  FaultPlan plan;
  plan.outages.push_back({0, 45, 100});  // runs past the horizon
  plan.outages.push_back({9, 0, 10});    // site index out of range
  const FaultInjector injector(plan, 2, 50);
  EXPECT_FALSE(injector.site_available(0, 49));
  // Beyond the horizon everything reports "no fault".
  EXPECT_TRUE(injector.site_available(0, 50));
  EXPECT_EQ(injector.sites_down(120), 0u);
  EXPECT_EQ(injector.observed_market_hour(120), 120u);
}

TEST(FaultInjectorTest, GeneratedPlanDeterministicInSeed) {
  FaultRates rates;
  rates.outage_rate = 0.01;
  rates.stale_rate = 0.01;
  rates.shock_rate = 0.01;
  rates.squeeze_rate = 0.01;
  const FaultPlan a = generate_fault_plan(rates, 720, 3, 42);
  const FaultPlan b = generate_fault_plan(rates, 720, 3, 42);
  const FaultPlan c = generate_fault_plan(rates, 720, 3, 43);
  ASSERT_EQ(a.outages.size(), b.outages.size());
  for (std::size_t i = 0; i < a.outages.size(); ++i) {
    EXPECT_EQ(a.outages[i].site, b.outages[i].site);
    EXPECT_EQ(a.outages[i].start_hour, b.outages[i].start_hour);
    EXPECT_EQ(a.outages[i].duration_hours, b.outages[i].duration_hours);
  }
  ASSERT_EQ(a.stale_intervals.size(), b.stale_intervals.size());
  ASSERT_EQ(a.demand_shocks.size(), b.demand_shocks.size());
  ASSERT_EQ(a.deadline_squeezes.size(), b.deadline_squeezes.size());
  ASSERT_FALSE(a.deadline_squeezes.empty());
  for (const auto& squeeze : a.deadline_squeezes)
    EXPECT_EQ(squeeze.node_budget, kDrawnSqueezeNodes);
  // A different seed draws a different world.
  const auto same_outages = [](const FaultPlan& x, const FaultPlan& y) {
    if (x.outages.size() != y.outages.size()) return false;
    for (std::size_t i = 0; i < x.outages.size(); ++i) {
      if (x.outages[i].site != y.outages[i].site ||
          x.outages[i].start_hour != y.outages[i].start_hour)
        return false;
    }
    return true;
  };
  EXPECT_FALSE(same_outages(a, c));
}

TEST(FaultInjectorTest, IndependentStreamsPerFaultKind) {
  // Turning a second fault kind on must not change the draws of the first.
  FaultRates outages_only;
  outages_only.outage_rate = 0.02;
  FaultRates both = outages_only;
  both.stale_rate = 0.05;
  const FaultPlan a = generate_fault_plan(outages_only, 720, 3, 7);
  const FaultPlan b = generate_fault_plan(both, 720, 3, 7);
  ASSERT_EQ(a.outages.size(), b.outages.size());
  for (std::size_t i = 0; i < a.outages.size(); ++i) {
    EXPECT_EQ(a.outages[i].site, b.outages[i].site);
    EXPECT_EQ(a.outages[i].start_hour, b.outages[i].start_hour);
    EXPECT_EQ(a.outages[i].duration_hours, b.outages[i].duration_hours);
  }
  EXPECT_TRUE(a.stale_intervals.empty());
  EXPECT_FALSE(b.stale_intervals.empty());
}

TEST(FaultInjectorTest, ZeroRatesYieldEmptyPlan) {
  const FaultPlan plan = generate_fault_plan(FaultRates{}, 720, 3, 42);
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(FaultRates{}.any());
}

}  // namespace
}  // namespace billcap::core
