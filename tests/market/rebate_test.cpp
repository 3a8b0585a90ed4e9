#include "rebate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "lp/milp_solve.hpp"
#include "lp/piecewise_value.hpp"
#include "lp/problem.hpp"

namespace billcap::market {
namespace {

PricingPolicy dc1_policy() {
  return PricingPolicy({0.0, 200.0, 237.3, 266.7, 300.0},
                       {10.00, 13.90, 15.00, 22.00, 24.00});
}

RebateProgram program() {
  return RebateProgram{.baseline_mw = 25.0, .rebate_per_mwh = 8.0};
}

TEST(RebateProgramTest, Validation) {
  RebateProgram p = program();
  p.baseline_mw = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = program();
  p.rebate_per_mwh = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(RebatedCostTest, OffPeakUnchanged) {
  const PricingPolicy policy = dc1_policy();
  EXPECT_DOUBLE_EQ(
      rebated_cost(policy, program(), /*peak_hour=*/false, 20.0, 150.0),
      policy.cost_for(20.0, 150.0));
}

TEST(RebatedCostTest, CurtailmentEarnsCredit) {
  const PricingPolicy policy = dc1_policy();
  // 20 MW draw, 5 MW under the 25 MW baseline: credit 5 * 8 = $40.
  EXPECT_DOUBLE_EQ(rebated_cost(policy, program(), true, 20.0, 150.0),
                   policy.cost_for(20.0, 150.0) - 40.0);
}

TEST(RebatedCostTest, NoCreditAboveBaseline) {
  const PricingPolicy policy = dc1_policy();
  EXPECT_DOUBLE_EQ(rebated_cost(policy, program(), true, 30.0, 150.0),
                   policy.cost_for(30.0, 150.0));
}

TEST(ApplyRebateTest, MatchesGroundTruthEverywhere) {
  const PricingPolicy policy = dc1_policy();
  const RebateProgram prog = program();
  const double d = 150.0;
  const lp::PiecewiseAffine base = policy.dc_cost_curve(d, 60.0);
  const lp::PiecewiseAffine rebated = apply_rebate(base, prog);
  for (double p = 0.5; p < 60.0; p += 0.5) {
    EXPECT_NEAR(piecewise_value(rebated, p) - piecewise_value(base, p),
                -prog.rebate_per_mwh *
                    std::max(0.0, prog.baseline_mw - p),
                1e-9)
        << "p " << p;
  }
}

TEST(ApplyRebateTest, SplitsStraddlingSegment) {
  const PricingPolicy policy = dc1_policy();
  const lp::PiecewiseAffine base = policy.dc_cost_curve(150.0, 60.0);
  const lp::PiecewiseAffine rebated = apply_rebate(base, program());
  EXPECT_EQ(rebated.num_segments(), base.num_segments() + 1);
  // 25.0 must now be a breakpoint.
  bool found = false;
  for (double b : rebated.breaks)
    if (std::abs(b - 25.0) < 1e-12) found = true;
  EXPECT_TRUE(found);
}

TEST(ApplyRebateTest, ZeroRebateIsIdentity) {
  const lp::PiecewiseAffine base = dc1_policy().dc_cost_curve(150.0, 60.0);
  RebateProgram prog = program();
  prog.rebate_per_mwh = 0.0;
  const lp::PiecewiseAffine same = apply_rebate(base, prog);
  EXPECT_EQ(same.breaks, base.breaks);
  EXPECT_EQ(same.slopes, base.slopes);
}

TEST(ApplyRebateTest, MilpSeesTheIncentive) {
  // Minimizing cost with a demand floor: without the rebate the optimum
  // sits at the floor; with a strong rebate whose credit beats the energy
  // price the optimizer still cannot go below the floor, but the *cost*
  // reflects the credit.
  const PricingPolicy policy = dc1_policy();
  const lp::PiecewiseAffine rebated =
      apply_rebate(policy.dc_cost_curve(150.0, 60.0), program());

  lp::Problem problem;
  const lp::PiecewiseVars vars =
      lp::add_piecewise_cost(problem, rebated, "cost");
  problem.add_constraint("floor", {{vars.x, 1.0}}, lp::Relation::kGreaterEqual,
                         20.0);
  const lp::Solution s = lp::solve_milp(problem);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[static_cast<std::size_t>(vars.x)], 20.0, 1e-6);
  EXPECT_NEAR(s.objective, policy.cost_for(20.0, 150.0) - 40.0, 1e-6);
}

TEST(ApplyRebateTest, BaselineBeyondCapCreditsWholeRange) {
  const PricingPolicy policy = dc1_policy();
  RebateProgram prog = program();
  prog.baseline_mw = 100.0;  // beyond the 60 MW curve cap
  const lp::PiecewiseAffine base = policy.dc_cost_curve(150.0, 60.0);
  const lp::PiecewiseAffine rebated = apply_rebate(base, prog);
  EXPECT_EQ(rebated.num_segments(), base.num_segments());
  for (std::size_t k = 0; k < rebated.num_segments(); ++k)
    EXPECT_NEAR(rebated.slopes[k], base.slopes[k] + prog.rebate_per_mwh,
                1e-12);
}

}  // namespace
}  // namespace billcap::market
