#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "core/bill_capper.hpp"
#include "core/cost_model.hpp"
#include "core/simulator.hpp"
#include "datacenter/catalog.hpp"
#include "lp/lp_io.hpp"
#include "lp/milp_solve.hpp"
#include "market/pricing_policy.hpp"
#include "util/thread_pool.hpp"

namespace billcap::core {
namespace {

TEST(RobustnessTest, SingleSiteNetworkWorks) {
  const std::vector<datacenter::DataCenter> one_site = {
      datacenter::paper_datacenters()[0]};
  const std::vector<market::PricingPolicy> one_policy = {
      market::paper_policies(1)[0]};
  const BillCapper capper(one_site, one_policy);
  const std::vector<double> demand = {210.0};

  const CappingOutcome ample = capper.decide(2e11, 5e10, demand, 1e6);
  EXPECT_EQ(ample.mode, CappingOutcome::Mode::kUncapped);
  EXPECT_NEAR(ample.served_premium, 2e11, 1.0);

  const CappingOutcome tight = capper.decide(2e11, 5e10, demand, 300.0);
  EXPECT_NEAR(tight.served_premium, 2e11, 1.0);  // premium still guaranteed
}

TEST(RobustnessTest, SingleLevelPolicyDegeneratesGracefully) {
  // Flat policies: bill capping still works, there is just nothing to
  // dodge.
  const auto sites = datacenter::paper_datacenters();
  const std::vector<market::PricingPolicy> flat = {
      market::PricingPolicy::flat(15.0), market::PricingPolicy::flat(18.0),
      market::PricingPolicy::flat(12.0)};
  const BillCapper capper(sites, flat);
  const std::vector<double> demand = {0.0, 0.0, 0.0};
  const CappingOutcome out = capper.decide(6e11, 1.5e11, demand, 1e6);
  EXPECT_EQ(out.mode, CappingOutcome::Mode::kUncapped);
  // All load lands on the cheapest per-request site mix.
  const GroundTruth truth = evaluate_allocation(
      sites, flat, demand, out.allocation.lambda_vector());
  EXPECT_GT(truth.total_cost, 0.0);
}

TEST(RobustnessTest, ZeroBackgroundDemand) {
  const auto sites = datacenter::paper_datacenters();
  const auto policies = market::paper_policies(1);
  const BillCapper capper(sites, policies);
  const std::vector<double> demand = {0.0, 0.0, 0.0};
  const CappingOutcome out = capper.decide(8e11, 2e11, demand, 1e6);
  // Everything fits in the bottom price tier: cheap hour.
  const GroundTruth truth = evaluate_allocation(
      sites, policies, demand, out.allocation.lambda_vector());
  for (const auto& site : truth.sites)
    EXPECT_DOUBLE_EQ(site.price_per_mwh, 10.0);
}

TEST(RobustnessTest, AllPremiumAndAllOrdinaryMixes) {
  SimulationConfig all_premium;
  all_premium.premium_share = 1.0;
  all_premium.monthly_budget = 1.0e6;
  const MonthlyResult rp =
      Simulator(all_premium).run(Strategy::kCostCapping);
  // No ordinary traffic to shed: the budget must be violated instead.
  // (With 100 % premium the flash-crowd peak can brush physical capacity,
  // so allow a vanishing capacity shed — never a budget-driven one.)
  EXPECT_GT(rp.premium_throughput_ratio(), 0.9995);
  EXPECT_GT(rp.budget_utilization(), 1.0);

  SimulationConfig all_ordinary;
  all_ordinary.premium_share = 0.0;
  all_ordinary.monthly_budget = 1.0e6;
  const MonthlyResult ro =
      Simulator(all_ordinary).run(Strategy::kCostCapping);
  // Everything is sheddable: the budget must hold.
  EXPECT_LE(ro.budget_utilization(), 1.02);
}

TEST(RobustnessTest, InvariantsHoldAcrossSeeds) {
  // Monte-Carlo sweep: the core guarantees are seed-independent.
  std::vector<MonthlyResult> results(4);
  {
    // Each task returns its month through its future, read back in index
    // order, so the output does not depend on the schedule. The pool is
    // declared after all its tasks read: if a get() throws, its
    // destructor drains the queue before any of that goes away.
    util::ThreadPool pool(4);
    std::vector<std::future<MonthlyResult>> futures;
    for (std::size_t i = 0; i < results.size(); ++i)
      futures.push_back(pool.submit([i] {
        SimulationConfig config;
        config.seed = 100 + i * 37;
        config.monthly_budget = 1.2e6;
        return Simulator(config).run(Strategy::kCostCapping);
      }));
    for (std::size_t i = 0; i < results.size(); ++i)
      results[i] = futures[i].get();
  }
  for (const auto& r : results) {
    EXPECT_DOUBLE_EQ(r.premium_throughput_ratio(), 1.0);
    EXPECT_GT(r.ordinary_throughput_ratio(), 0.0);
    EXPECT_LT(r.budget_utilization(), 1.3);
    for (const auto& h : r.hours) {
      EXPECT_GE(h.served_ordinary, 0.0);
      EXPECT_LE(h.served_premium, h.premium_arrivals + 1.0);
    }
  }
}

TEST(RobustnessTest, PaperMilpSurvivesLpFormatRoundTrip) {
  // Cross-module: the actual step-1 formulation, serialized to CPLEX-LP
  // text, parsed back, and re-solved to the same optimum.
  const auto sites = datacenter::paper_datacenters();
  const auto policies = market::paper_policies(1);
  std::vector<SiteModel> models;
  const std::vector<double> demand = {228.0, 182.0, 172.0};
  for (std::size_t i = 0; i < sites.size(); ++i)
    models.push_back(make_site_model(sites[i], policies[i], demand[i], true));
  AllocationFormulation f = build_allocation_formulation(models);
  std::vector<lp::Term> demand_terms;
  for (const SiteVars& v : f.vars) demand_terms.push_back({v.lambda, 1.0});
  f.problem.add_constraint("demand", std::move(demand_terms),
                           lp::Relation::kEqual, 600.0);

  const lp::Solution direct = lp::solve_milp(f.problem);
  const lp::Problem parsed =
      lp::parse_lp_format(lp::write_lp_format(f.problem));
  const lp::Solution reparsed = lp::solve_milp(parsed);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_NEAR(direct.objective, reparsed.objective,
              1e-6 * std::max(1.0, direct.objective));
}

TEST(RobustnessTest, ExtremePolicyLevelsStayConsistent) {
  // Policy 3's steep steps must never produce a cheaper month than
  // Policy 1 for the same strategy.
  SimulationConfig config;
  config.enforce_budget = false;
  config.policy_level = 1;
  const double p1 = Simulator(config).run(Strategy::kCostCapping).total_cost;
  config.policy_level = 3;
  const double p3 = Simulator(config).run(Strategy::kCostCapping).total_cost;
  EXPECT_GT(p3, p1);
}

}  // namespace
}  // namespace billcap::core
