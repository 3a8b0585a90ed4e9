#include "core/bill_capper.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/cost_model.hpp"
#include "datacenter/catalog.hpp"
#include "market/pricing_policy.hpp"

namespace billcap::core {
namespace {

class BillCapperTest : public ::testing::Test {
 protected:
  const std::vector<datacenter::DataCenter> sites_ =
      datacenter::paper_datacenters();
  const std::vector<market::PricingPolicy> policies_ =
      market::paper_policies(1);
  const std::vector<double> demand_ = {228.0, 182.0, 172.0};
  const BillCapper capper_{sites_, policies_};
};

TEST_F(BillCapperTest, AmpleBudgetUncapped) {
  const CappingOutcome outcome =
      capper_.decide(4.8e11, 1.2e11, demand_, 1e7);
  EXPECT_EQ(outcome.mode, CappingOutcome::Mode::kUncapped);
  EXPECT_DOUBLE_EQ(outcome.served_premium, 4.8e11);
  EXPECT_DOUBLE_EQ(outcome.served_ordinary, 1.2e11);
  EXPECT_DOUBLE_EQ(outcome.dropped_capacity, 0.0);
}

TEST_F(BillCapperTest, TightBudgetThrottlesOrdinaryOnly) {
  // Find the uncapped cost, then offer ~80 % of it.
  const CappingOutcome free_run =
      capper_.decide(8e11, 2e11, demand_, 1e7);
  const double budget = free_run.allocation.predicted_cost * 0.8;
  const CappingOutcome capped = capper_.decide(8e11, 2e11, demand_, budget);
  EXPECT_EQ(capped.mode, CappingOutcome::Mode::kCapped);
  EXPECT_DOUBLE_EQ(capped.served_premium, 8e11);  // premium untouched
  EXPECT_LT(capped.served_ordinary, 2e11);        // ordinary throttled
  EXPECT_LE(capped.allocation.predicted_cost, budget * (1.0 + 1e-6));
}

TEST_F(BillCapperTest, PunishingBudgetPremiumOnly) {
  const CappingOutcome outcome =
      capper_.decide(8e11, 2e11, demand_, 100.0);
  EXPECT_EQ(outcome.mode, CappingOutcome::Mode::kPremiumOnly);
  EXPECT_DOUBLE_EQ(outcome.served_premium, 8e11);
  EXPECT_DOUBLE_EQ(outcome.served_ordinary, 0.0);
  // The budget is deliberately violated for the QoS guarantee.
  EXPECT_GT(outcome.allocation.predicted_cost, 100.0);
}

TEST_F(BillCapperTest, PremiumQosNeverSacrificedToBudget) {
  for (double budget : {50.0, 300.0, 800.0, 2000.0, 1e7}) {
    const CappingOutcome outcome =
        capper_.decide(6e11, 1.5e11, demand_, budget);
    EXPECT_DOUBLE_EQ(outcome.served_premium, 6e11) << "budget " << budget;
  }
}

TEST_F(BillCapperTest, OrdinaryThroughputMonotoneInBudget) {
  double prev = -1.0;
  for (double budget : {100.0, 500.0, 1000.0, 2000.0, 5000.0}) {
    const CappingOutcome outcome =
        capper_.decide(8e11, 2e11, demand_, budget);
    EXPECT_GE(outcome.served_ordinary, prev - 1e6) << "budget " << budget;
    prev = outcome.served_ordinary;
  }
}

TEST_F(BillCapperTest, CapacityOverflowShedsOrdinaryFirst) {
  // Arrivals way beyond physical capacity: premium is served up to
  // capacity, ordinary takes the drop.
  const CappingOutcome outcome =
      capper_.decide(1.5e12, 5e11, demand_, 1e9);
  EXPECT_GT(outcome.dropped_capacity, 0.0);
  EXPECT_GT(outcome.served_premium, 1.49e12);
  EXPECT_LT(outcome.served_ordinary, 5e11);
  EXPECT_NEAR(outcome.served_premium + outcome.served_ordinary +
                  outcome.dropped_capacity,
              2e12, 1e6);
}

TEST_F(BillCapperTest, PremiumBeyondCapacityIsBounded) {
  const CappingOutcome outcome =
      capper_.decide(5e12, 0.0, demand_, 1e9);
  EXPECT_GT(outcome.dropped_capacity, 0.0);
  EXPECT_LT(outcome.served_premium, 2e12);
}

TEST_F(BillCapperTest, GroundTruthCostNearBudgetWhenCapped) {
  // 88 % of the uncapped cost: enough for the 80 % premium share, not for
  // everything -> the capper must land in kCapped.
  const CappingOutcome free_run = capper_.decide(8e11, 2e11, demand_, 1e7);
  const double budget = free_run.allocation.predicted_cost * 0.88;
  const CappingOutcome capped = capper_.decide(8e11, 2e11, demand_, budget);
  ASSERT_EQ(capped.mode, CappingOutcome::Mode::kCapped);
  const GroundTruth truth = evaluate_allocation(
      sites_, policies_, demand_, capped.allocation.lambda_vector());
  EXPECT_LE(truth.total_cost, budget * 1.01);
}

TEST_F(BillCapperTest, Validation) {
  EXPECT_THROW(capper_.decide(-1.0, 0.0, demand_, 100.0),
               std::invalid_argument);
  EXPECT_THROW(capper_.decide(0.0, -1.0, demand_, 100.0),
               std::invalid_argument);
  EXPECT_THROW(
      capper_.decide(1e11, 1e10, std::vector<double>{1.0}, 100.0),
      std::invalid_argument);
}

TEST_F(BillCapperTest, ConstructorValidation) {
  const std::vector<market::PricingPolicy> two = {policies_[0], policies_[1]};
  EXPECT_THROW(BillCapper(sites_, two), std::invalid_argument);
}

TEST_F(BillCapperTest, ModeNames) {
  EXPECT_STREQ(to_string(CappingOutcome::Mode::kUncapped), "uncapped");
  EXPECT_STREQ(to_string(CappingOutcome::Mode::kCapped), "capped");
  EXPECT_STREQ(to_string(CappingOutcome::Mode::kPremiumOnly), "premium_only");
}

TEST_F(BillCapperTest, ZeroArrivalsZeroCost) {
  const CappingOutcome outcome = capper_.decide(0.0, 0.0, demand_, 100.0);
  EXPECT_EQ(outcome.mode, CappingOutcome::Mode::kUncapped);
  EXPECT_NEAR(outcome.allocation.predicted_cost, 0.0, 1e-9);
}

// Checks the degraded allocation against the believed per-site limits: SLA
// capacity and power cap must hold no matter which ladder rung produced it.
void expect_within_site_limits(
    const CappingOutcome& outcome,
    const std::vector<datacenter::DataCenter>& sites,
    const std::vector<market::PricingPolicy>& policies,
    const std::vector<double>& demand) {
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const SiteModel model = make_site_model(sites[i], policies[i], demand[i]);
    EXPECT_LE(outcome.allocation.sites[i].lambda,
              model.lambda_max * (1.0 + 1e-9))
        << i;
    EXPECT_LE(outcome.allocation.sites[i].power_mw,
              model.power_cap_mw * (1.0 + 1e-9))
        << i;
  }
}

TEST_F(BillCapperTest, NodeStarvedSolverDegradesGracefully) {
  // max_nodes = 1: branch-and-bound cannot finish a single branching, so
  // every solve dies. decide() must not throw and must still return a
  // feasible, capacity- and cap-respecting allocation, tagged degraded.
  OptimizerOptions opts;
  opts.milp.max_nodes = 1;
  const BillCapper starved(sites_, policies_, opts);
  const CappingOutcome outcome = starved.decide(4.8e11, 1.2e11, demand_, 1e7);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_NE(outcome.failure, FailureReason::kNone);
  EXPECT_TRUE(outcome.used_incumbent || outcome.used_heuristic);
  EXPECT_TRUE(outcome.allocation.usable());
  EXPECT_GT(outcome.served_premium, 0.0);
  EXPECT_LE(outcome.served_premium, 4.8e11 * (1.0 + 1e-9));
  expect_within_site_limits(outcome, sites_, policies_, demand_);
}

TEST_F(BillCapperTest, ExpiredDeadlineDegradesGracefully) {
  // The per-hour deadline is a node budget (a squeeze, a fleet chunk's
  // deadline); zero nodes expires before the root is explored.
  DecideOptions overrides;
  overrides.max_nodes = 0;
  const CappingOutcome outcome =
      capper_.decide(4.8e11, 1.2e11, demand_, 1e7, overrides);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_EQ(outcome.failure, FailureReason::kNodeLimit);
  EXPECT_TRUE(outcome.used_heuristic);
  EXPECT_TRUE(outcome.allocation.usable());
  EXPECT_GT(outcome.served_premium, 0.0);
  expect_within_site_limits(outcome, sites_, policies_, demand_);
}

TEST_F(BillCapperTest, NodeStarvedTightBudgetStillGuaranteesPremium) {
  OptimizerOptions opts;
  opts.milp.max_nodes = 1;
  const BillCapper starved(sites_, policies_, opts);
  // A budget that forces step 2 (and its fallback) to engage.
  const CappingOutcome outcome =
      starved.decide(4.8e11, 1.2e11, demand_, 1500.0);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_NEAR(outcome.served_premium, 4.8e11, 4.8e11 * 1e-6);
  expect_within_site_limits(outcome, sites_, policies_, demand_);
}

TEST_F(BillCapperTest, DownedSiteTakesNoLoad) {
  const std::vector<std::uint8_t> available = {1, 0, 1};
  DecideOptions overrides;
  overrides.site_available = available;
  const CappingOutcome outcome =
      capper_.decide(4.8e11, 1.2e11, demand_, 1e7, overrides);
  EXPECT_DOUBLE_EQ(outcome.allocation.sites[1].lambda, 0.0);
  EXPECT_GT(outcome.allocation.sites[0].lambda +
                outcome.allocation.sites[2].lambda,
            0.0);
  // The clean solve over the surviving sites is not itself degraded.
  EXPECT_FALSE(outcome.degraded);
}

TEST_F(BillCapperTest, AllSitesDownShedsEverything) {
  const std::vector<std::uint8_t> available = {0, 0, 0};
  DecideOptions overrides;
  overrides.site_available = available;
  CappingOutcome outcome;
  ASSERT_NO_THROW(
      outcome = capper_.decide(4.8e11, 1.2e11, demand_, 1e7, overrides));
  EXPECT_DOUBLE_EQ(outcome.served_premium, 0.0);
  EXPECT_DOUBLE_EQ(outcome.served_ordinary, 0.0);
  EXPECT_NEAR(outcome.dropped_capacity, 6e11, 1.0);
}

TEST_F(BillCapperTest, BelievedDemandOverrideChangesThePlan) {
  // A stale feed showing much higher background demand pushes the plan
  // away from the (believed) expensive sites; the decision stays valid.
  const std::vector<double> stale_demand = {500.0, 182.0, 172.0};
  DecideOptions overrides;
  overrides.believed_demand_mw = stale_demand;
  const CappingOutcome outcome =
      capper_.decide(4.8e11, 1.2e11, demand_, 1e7, overrides);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_DOUBLE_EQ(outcome.served_premium, 4.8e11);
  // Planned against the stale belief, site 0 looks nearly saturated by
  // background draw and should carry less than in the fresh-feed plan.
  const CappingOutcome fresh = capper_.decide(4.8e11, 1.2e11, demand_, 1e7);
  EXPECT_LE(outcome.allocation.sites[0].lambda,
            fresh.allocation.sites[0].lambda + 1e-3);
}

TEST_F(BillCapperTest, FailureReasonNames) {
  EXPECT_STREQ(to_string(FailureReason::kNone), "none");
  EXPECT_STREQ(to_string(FailureReason::kNodeLimit), "node_limit");
  EXPECT_STREQ(to_string(FailureReason::kIterationLimit), "iteration_limit");
  // Retired, but older checkpoints still carry it.
  EXPECT_STREQ(to_string(FailureReason::kTimeLimit), "time_limit");
  EXPECT_EQ(static_cast<int>(FailureReason::kTimeLimit), 3);
  EXPECT_STREQ(to_string(FailureReason::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(FailureReason::kUnbounded), "unbounded");
  EXPECT_EQ(failure_reason_from(lp::SolveStatus::kNodeLimit),
            FailureReason::kNodeLimit);
  EXPECT_EQ(failure_reason_from(lp::SolveStatus::kArenaExhausted),
            FailureReason::kArenaExhausted);
  EXPECT_EQ(failure_reason_from(lp::SolveStatus::kOptimal),
            FailureReason::kNone);
}

}  // namespace
}  // namespace billcap::core
