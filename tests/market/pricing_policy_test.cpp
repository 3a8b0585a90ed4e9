#include "market/pricing_policy.hpp"

#include <gtest/gtest.h>

#include "lp/piecewise_value.hpp"

namespace billcap::market {
namespace {

PricingPolicy dc1_policy() {
  return PricingPolicy({0.0, 200.0, 237.3, 266.7, 300.0},
                       {10.00, 13.90, 15.00, 22.00, 24.00});
}

TEST(PricingPolicyTest, ValidationRejectsMalformed) {
  EXPECT_THROW(PricingPolicy({}, {}), std::invalid_argument);
  EXPECT_THROW(PricingPolicy({0.0, 100.0}, {10.0}), std::invalid_argument);
  EXPECT_THROW(PricingPolicy({50.0}, {10.0}), std::invalid_argument);
  EXPECT_THROW(PricingPolicy({0.0, 100.0, 100.0}, {1.0, 2.0, 3.0}),
               std::invalid_argument);
  EXPECT_THROW(PricingPolicy({0.0}, {-1.0}), std::invalid_argument);
}

TEST(PricingPolicyTest, PriceAtStepsUpAtThresholds) {
  const PricingPolicy p = dc1_policy();
  EXPECT_DOUBLE_EQ(p.price_at(0.0), 10.0);
  EXPECT_DOUBLE_EQ(p.price_at(199.99), 10.0);
  EXPECT_DOUBLE_EQ(p.price_at(200.0), 13.9);  // price maker crosses a step
  EXPECT_DOUBLE_EQ(p.price_at(250.0), 15.0);
  EXPECT_DOUBLE_EQ(p.price_at(280.0), 22.0);
  EXPECT_DOUBLE_EQ(p.price_at(1000.0), 24.0);
  EXPECT_DOUBLE_EQ(p.price_at(-5.0), 10.0);
}

TEST(PricingPolicyTest, CostForUsesTotalButBillsDcOnly) {
  const PricingPolicy p = dc1_policy();
  // 30 MW data center + 180 MW others = 210 MW total -> 13.90 $/MWh, but
  // only the 30 MWh of the data center are billed here.
  EXPECT_DOUBLE_EQ(p.cost_for(30.0, 180.0), 13.9 * 30.0);
  // Same draw with light background stays in the first tier.
  EXPECT_DOUBLE_EQ(p.cost_for(30.0, 100.0), 10.0 * 30.0);
}

TEST(PricingPolicyTest, PriceMakerEffect) {
  // The data center's own draw crosses the threshold: the paper's central
  // point — routing decisions change the price.
  const PricingPolicy p = dc1_policy();
  EXPECT_GT(p.price_at(190.0 + 20.0), p.price_at(190.0 + 5.0));
}

TEST(PricingPolicyTest, AverageAndMin) {
  const PricingPolicy p = dc1_policy();
  // The paper quotes 16.98 = (10 + 13.9 + 15 + 22 + 24)/5 for Min-Only
  // (Avg) and 10.00 for Min-Only (Low) at Data Center 1 (Section VII-A).
  EXPECT_NEAR(p.average_price(), 16.98, 1e-12);
  EXPECT_DOUBLE_EQ(p.min_price(), 10.0);
}

TEST(PricingPolicyTest, FlatPolicy) {
  const PricingPolicy p = PricingPolicy::flat(12.5);
  EXPECT_EQ(p.num_levels(), 1u);
  EXPECT_DOUBLE_EQ(p.price_at(0.0), 12.5);
  EXPECT_DOUBLE_EQ(p.price_at(1e6), 12.5);
}

TEST(PricingPolicyTest, ScaleIncreasesReproducesPaperPolicies23) {
  const PricingPolicy p1 = dc1_policy();
  // Section VII-B quotes Policy 2 = (10.00, 17.80, 20.00, 34.00, 38.00) and
  // Policy 3 = (10.00, 21.70, 25.00, 46.00, 52.00) for Data Center 1.
  const PricingPolicy p2 = p1.scale_increases(2.0);
  const std::vector<double> expect2 = {10.00, 17.80, 20.00, 34.00, 38.00};
  for (std::size_t k = 0; k < 5; ++k)
    EXPECT_NEAR(p2.prices_per_mwh()[k], expect2[k], 1e-9);

  const PricingPolicy p3 = p1.scale_increases(3.0);
  const std::vector<double> expect3 = {10.00, 21.70, 25.00, 46.00, 52.00};
  for (std::size_t k = 0; k < 5; ++k)
    EXPECT_NEAR(p3.prices_per_mwh()[k], expect3[k], 1e-9);
}

TEST(PricingPolicyTest, DcCostCurveLowBackground) {
  // With d = 0 the whole step structure is visible to the data center.
  const PricingPolicy p = dc1_policy();
  const lp::PiecewiseAffine pw = p.dc_cost_curve(0.0, 400.0);
  EXPECT_EQ(pw.num_segments(), 5u);
  EXPECT_DOUBLE_EQ(pw.slopes.front(), 10.0);
  EXPECT_DOUBLE_EQ(pw.slopes.back(), 24.0);
  EXPECT_DOUBLE_EQ(pw.breaks.back(), 400.0);
}

TEST(PricingPolicyTest, DcCostCurveShiftsWithBackground) {
  // d = 210 MW: the location is already in tier 2; tier 1 is unreachable.
  const PricingPolicy p = dc1_policy();
  const lp::PiecewiseAffine pw = p.dc_cost_curve(210.0, 50.0);
  EXPECT_DOUBLE_EQ(pw.slopes.front(), 13.9);
  // First break ~= 237.3 - 210 (minus the threshold safety margin).
  EXPECT_NEAR(pw.breaks[1], 237.3 - 210.0, 0.05);
}

TEST(PricingPolicyTest, DcCostCurveBeyondLastThreshold) {
  // d beyond every threshold: single top-price segment.
  const PricingPolicy p = dc1_policy();
  const lp::PiecewiseAffine pw = p.dc_cost_curve(500.0, 42.0);
  EXPECT_EQ(pw.num_segments(), 1u);
  EXPECT_DOUBLE_EQ(pw.slopes.front(), 24.0);
}

TEST(PricingPolicyTest, DcCostCurveMatchesCostForAwayFromSteps) {
  const PricingPolicy p = dc1_policy();
  const double d = 150.0;
  const lp::PiecewiseAffine pw = p.dc_cost_curve(d, 120.0);
  for (double dc_power : {5.0, 30.0, 60.0, 100.0, 115.0}) {
    EXPECT_NEAR(piecewise_value(pw, dc_power), p.cost_for(dc_power, d), 0.7)
        << "power " << dc_power;  // within margin-induced slack
  }
}

TEST(PricingPolicyTest, DcCostCurveConservativeNearSteps) {
  // Just below a real threshold the curve may already assume the higher
  // price (safety margin), never the other way around.
  const PricingPolicy p = dc1_policy();
  const double d = 150.0;
  const lp::PiecewiseAffine pw = p.dc_cost_curve(d, 120.0);
  for (double dc_power = 0.5; dc_power < 120.0; dc_power += 0.5) {
    EXPECT_GE(piecewise_value(pw, dc_power) + 1e-9, p.cost_for(dc_power, d))
        << "power " << dc_power;
  }
}

TEST(PricingPolicyTest, DcCostCurveValidation) {
  const PricingPolicy p = dc1_policy();
  EXPECT_THROW(p.dc_cost_curve(-1.0, 50.0), std::invalid_argument);
  EXPECT_THROW(p.dc_cost_curve(100.0, 0.0), std::invalid_argument);
}

TEST(PaperPoliciesTest, LevelsAndStructure) {
  for (int level : {0, 1, 2, 3}) {
    const auto policies = paper_policies(level);
    ASSERT_EQ(policies.size(), 3u) << "level " << level;
  }
  EXPECT_THROW(paper_policies(4), std::invalid_argument);
  EXPECT_THROW(paper_policies(-1), std::invalid_argument);
}

TEST(PaperPoliciesTest, Policy0IsFlatAtPolicy1Average) {
  const auto p0 = paper_policies(0);
  const auto p1 = paper_policies(1);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(p0[i].num_levels(), 1u);
    EXPECT_NEAR(p0[i].price_at(250.0), p1[i].average_price(), 1e-12);
  }
}

TEST(PaperPoliciesTest, Policy1Dc1MatchesPaperVerbatim) {
  const auto p1 = paper_policies(1);
  const std::vector<double> expect = {10.00, 13.90, 15.00, 22.00, 24.00};
  ASSERT_EQ(p1[0].prices_per_mwh().size(), 5u);
  for (std::size_t k = 0; k < 5; ++k)
    EXPECT_DOUBLE_EQ(p1[0].prices_per_mwh()[k], expect[k]);
}

TEST(PaperPoliciesTest, HigherLevelsDominate) {
  // For any load, policy 3 price >= policy 2 >= policy 1 at every site.
  const auto p1 = paper_policies(1);
  const auto p2 = paper_policies(2);
  const auto p3 = paper_policies(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (double load = 0.0; load < 400.0; load += 10.0) {
      EXPECT_LE(p1[i].price_at(load), p2[i].price_at(load));
      EXPECT_LE(p2[i].price_at(load), p3[i].price_at(load));
    }
  }
}

}  // namespace
}  // namespace billcap::market
