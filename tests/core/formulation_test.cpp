#include "core/formulation.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "datacenter/catalog.hpp"
#include "lp/milp_solve.hpp"
#include "lp/simplex.hpp"
#include "market/pricing_policy.hpp"

namespace billcap::core {
namespace {

class FormulationTest : public ::testing::Test {
 protected:
  const std::vector<datacenter::DataCenter> sites_ =
      datacenter::paper_datacenters();
  const std::vector<market::PricingPolicy> policies_ =
      market::paper_policies(1);
};

TEST_F(FormulationTest, SiteModelBasics) {
  const SiteModel m = make_site_model(sites_[0], policies_[0], 200.0, true);
  EXPECT_GT(m.lambda_max, 0.0);
  EXPECT_GT(m.power_slope, 0.0);
  EXPECT_GT(m.power_intercept_mw, 0.0);
  // Safety margin keeps the believed cap strictly below the supplier cap.
  EXPECT_LT(m.power_cap_mw, sites_[0].spec().power_cap_mw);
  EXPECT_GE(m.cost_curve.num_segments(), 1u);
}

TEST_F(FormulationTest, LambdaMaxRespectsBothLimits) {
  const SiteModel m = make_site_model(sites_[0], policies_[0], 200.0, true);
  // At lambda_max, believed power is within the (margined) cap...
  const double p = m.power_slope * m.lambda_max + m.power_intercept_mw;
  EXPECT_LE(p, m.power_cap_mw + 1e-9);
  // ...and the server capacity is respected.
  EXPECT_LE(m.lambda_max, sites_[0].max_requests_per_hour() + 1.0);
}

TEST_F(FormulationTest, ServerOnlyBeliefShrinksSlope) {
  const SiteModel full = make_site_model(sites_[1], policies_[1], 180.0, true);
  const SiteModel blind =
      make_site_model(sites_[1], policies_[1], 180.0, false);
  EXPECT_LT(blind.power_slope, full.power_slope);
  EXPECT_LT(blind.power_intercept_mw, full.power_intercept_mw);
}

TEST_F(FormulationTest, CostCurveCapTracksBackgroundDemand) {
  // With d = 0 the whole <=42 MW site stays in tier 1: a single cheap
  // segment. Near the thresholds the site's own draw spans several tiers;
  // beyond the last threshold only the top price remains.
  const SiteModel tier1 = make_site_model(sites_[0], policies_[0], 0.0, true);
  EXPECT_EQ(tier1.cost_curve.num_segments(), 1u);
  EXPECT_DOUBLE_EQ(tier1.cost_curve.slopes.front(),
                   policies_[0].prices_per_mwh().front());
  const SiteModel straddling =
      make_site_model(sites_[0], policies_[0], 190.0, true);
  EXPECT_GE(straddling.cost_curve.num_segments(), 2u);
  const SiteModel heavy =
      make_site_model(sites_[0], policies_[0], 310.0, true);
  EXPECT_EQ(heavy.cost_curve.num_segments(), 1u);
  EXPECT_DOUBLE_EQ(heavy.cost_curve.slopes.front(),
                   policies_[0].prices_per_mwh().back());
}

TEST_F(FormulationTest, BuildCreatesPerSiteBlocks) {
  std::vector<SiteModel> models;
  for (std::size_t i = 0; i < sites_.size(); ++i)
    models.push_back(make_site_model(sites_[i], policies_[i], 180.0, true));
  const AllocationFormulation f = build_allocation_formulation(models);
  ASSERT_EQ(f.vars.size(), 3u);
  for (const SiteVars& v : f.vars) {
    EXPECT_GE(v.lambda, 0);
    EXPECT_GE(v.active, 0);
    EXPECT_GE(v.power, 0);
    EXPECT_FALSE(v.cost.selectors.empty());
  }
  EXPECT_TRUE(f.problem.has_integers());
}

TEST_F(FormulationTest, DecodeRoundTripsLambdaScaling) {
  std::vector<SiteModel> models = {
      make_site_model(sites_[0], policies_[0], 180.0, true)};
  AllocationFormulation f = build_allocation_formulation(models);
  f.problem.add_constraint("demand", {{f.vars[0].lambda, 1.0}},
                           lp::Relation::kEqual, 120.0);  // 120 Greq/h
  const lp::Solution solution = lp::solve_milp(f.problem);
  ASSERT_TRUE(solution.ok());
  const AllocationResult r = decode_solution(f, models, solution);
  EXPECT_NEAR(r.sites[0].lambda, 120.0 * kLambdaScale, 1e3);
  EXPECT_TRUE(r.sites[0].active);
  EXPECT_NEAR(r.predicted_cost, r.sites[0].cost, 1e-9);
}

TEST_F(FormulationTest, DecodeFailedSolveCarriesStatus) {
  std::vector<SiteModel> models = {
      make_site_model(sites_[0], policies_[0], 180.0, true)};
  const AllocationFormulation f = build_allocation_formulation(models);
  lp::Solution failed;
  failed.status = lp::SolveStatus::kInfeasible;
  const AllocationResult r = decode_solution(f, models, failed);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.sites.empty());
}

TEST_F(FormulationTest, SystemCapacityIsSumOfLambdaMax) {
  std::vector<SiteModel> models;
  double expected = 0.0;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    models.push_back(make_site_model(sites_[i], policies_[i], 180.0, true));
    expected += models.back().lambda_max;
  }
  EXPECT_DOUBLE_EQ(system_capacity(models), expected);
}

TEST_F(FormulationTest, LambdaVectorMatchesSites) {
  AllocationResult r;
  r.sites = {SiteOutcome{1e10, 2.0, 30.0, true},
             SiteOutcome{0.0, 0.0, 0.0, false}};
  const std::vector<double> v = r.lambda_vector();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 1e10);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
}

TEST_F(FormulationTest, InactiveSiteDrawsNoPower) {
  // Force lambda = 0 at one site while requiring the other to serve load:
  // the inactive site's activation binary can stay 0 and its power 0.
  std::vector<SiteModel> models;
  for (int i = 0; i < 2; ++i)
    models.push_back(make_site_model(sites_[static_cast<std::size_t>(i)],
                                     policies_[static_cast<std::size_t>(i)],
                                     180.0, true));
  AllocationFormulation f = build_allocation_formulation(models);
  f.problem.add_constraint("demand", {{f.vars[0].lambda, 1.0}},
                           lp::Relation::kEqual, 100.0);
  f.problem.add_constraint("idle", {{f.vars[1].lambda, 1.0}},
                           lp::Relation::kEqual, 0.0);
  const lp::Solution solution = lp::solve_milp(f.problem);
  ASSERT_TRUE(solution.ok());
  const AllocationResult r = decode_solution(f, models, solution);
  EXPECT_DOUBLE_EQ(r.sites[1].lambda, 0.0);
  EXPECT_NEAR(r.sites[1].power_mw, 0.0, 1e-6);
  EXPECT_NEAR(r.sites[1].cost, 0.0, 1e-6);
}

}  // namespace
}  // namespace billcap::core
