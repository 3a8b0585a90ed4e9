#include <gtest/gtest.h>

#include <algorithm>

#include "core/simulator.hpp"

namespace billcap::core {
namespace {

/// Full-month closed-loop runs of every strategy under the default
/// (paper) configuration. These are the system-level invariants every
/// figure rests on.
class EndToEndTest : public ::testing::Test {
 protected:
  static const MonthlyResult& cost_capping() {
    static const MonthlyResult r = [] {
      SimulationConfig config;
      config.monthly_budget = 1.5e6;
      return Simulator(config).run(Strategy::kCostCapping);
    }();
    return r;
  }
  static const MonthlyResult& min_only_avg() {
    static const MonthlyResult r = [] {
      SimulationConfig config;
      config.monthly_budget = 1.5e6;
      return Simulator(config).run(Strategy::kMinOnlyAvg);
    }();
    return r;
  }
};

TEST_F(EndToEndTest, PremiumCustomersAlwaysServed) {
  EXPECT_DOUBLE_EQ(cost_capping().premium_throughput_ratio(), 1.0);
  for (const auto& h : cost_capping().hours)
    EXPECT_DOUBLE_EQ(h.served_premium, h.premium_arrivals)
        << "hour " << h.hour;
}

TEST_F(EndToEndTest, ServedNeverExceedsArrivals) {
  for (const auto& h : cost_capping().hours) {
    EXPECT_LE(h.served_premium, h.premium_arrivals + 1.0);
    EXPECT_LE(h.served_ordinary, h.ordinary_arrivals + 1.0);
  }
}

TEST_F(EndToEndTest, HourlyCostsArePositiveAndBounded) {
  for (const auto& h : cost_capping().hours) {
    EXPECT_GT(h.cost, 0.0);
    EXPECT_LT(h.cost, 20'000.0);  // 3 sites x <=72 MW x <=52 $/MWh + margin
  }
}

TEST_F(EndToEndTest, SitePowersWithinCaps) {
  const Simulator sim{SimulationConfig{}};
  const auto& sites = sim.sites();
  for (const auto& h : cost_capping().hours) {
    for (std::size_t i = 0; i < sites.size(); ++i) {
      EXPECT_LE(h.site_power_mw[i],
                sites[i].spec().power_cap_mw * 1.001)
          << "hour " << h.hour << " site " << i;
    }
  }
}

TEST_F(EndToEndTest, DispatchedLambdaMatchesServed) {
  for (const auto& h : cost_capping().hours) {
    double dispatched = 0.0;
    for (double l : h.site_lambda) dispatched += l;
    EXPECT_NEAR(dispatched, h.served_premium + h.served_ordinary,
                1e-3 * std::max(1.0, dispatched))
        << "hour " << h.hour;
  }
}

TEST_F(EndToEndTest, BudgetViolationsOnlyInPremiumOnlyMode) {
  // When the capper reports kCapped or kUncapped, the believed cost fits
  // the hourly budget; ground truth may exceed only by the model gap.
  for (const auto& h : cost_capping().hours) {
    if (h.mode == CappingOutcome::Mode::kPremiumOnly) continue;
    EXPECT_LE(h.predicted_cost, h.hourly_budget * (1.0 + 1e-6))
        << "hour " << h.hour;
    EXPECT_LE(h.cost, h.hourly_budget * 1.05 + 5.0) << "hour " << h.hour;
  }
}

TEST_F(EndToEndTest, MonthlyCostControlledUnderTightBudget) {
  // $1.5M is insufficient for the full workload: Cost Capping lands within
  // a few percent of the cap while still guaranteeing premium QoS.
  EXPECT_LE(cost_capping().budget_utilization(), 1.02);
  EXPECT_GT(cost_capping().budget_utilization(), 0.70);
  EXPECT_LT(cost_capping().ordinary_throughput_ratio(), 1.0);
}

TEST_F(EndToEndTest, MinOnlyServesAllButIgnoresBudget) {
  EXPECT_DOUBLE_EQ(min_only_avg().premium_throughput_ratio(), 1.0);
  EXPECT_GT(min_only_avg().ordinary_throughput_ratio(), 0.999);
  // It spends more than Cost Capping under the same conditions.
  EXPECT_GT(min_only_avg().total_cost, cost_capping().total_cost);
}

TEST_F(EndToEndTest, SolverIsFastEnoughForOnlineUse) {
  // The paper reports ~2 ms per invocation with lp_solve; the latency here
  // is measured by bench/tab_solver_time (BENCH_solver.json). This pins the
  // deterministic effort behind it: the month's largest branch-and-bound
  // search takes 29 nodes, far inside the 200,000-node limit.
  long max_nodes = 0;
  for (const auto& h : cost_capping().hours)
    max_nodes = std::max(max_nodes, h.nodes);
  EXPECT_EQ(max_nodes, 29);
}

TEST_F(EndToEndTest, SpendFeedsBackIntoBudgeter) {
  // Re-running with a much smaller budget must change hourly budgets and
  // reduce the ordinary throughput.
  SimulationConfig tight;
  tight.monthly_budget = 0.5e6;
  const MonthlyResult starved = Simulator(tight).run(Strategy::kCostCapping);
  EXPECT_LT(starved.ordinary_throughput_ratio(),
            cost_capping().ordinary_throughput_ratio());
  EXPECT_DOUBLE_EQ(starved.premium_throughput_ratio(), 1.0);
}

}  // namespace
}  // namespace billcap::core
