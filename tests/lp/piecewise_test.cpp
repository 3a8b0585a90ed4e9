#include "lp/piecewise.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/milp_solve.hpp"
#include "lp/piecewise_value.hpp"
#include "util/rng.hpp"

namespace billcap::lp {
namespace {

/// A step-price curve shaped like the paper's Policy 1 for Data Center 1:
/// prices (10.00, 13.90, 15.00, 22.00, 24.00) $/MWh over load thresholds.
PiecewiseAffine paper_like_policy() {
  PiecewiseAffine pw;
  pw.breaks = {0.0, 200.0, 237.3, 266.7, 300.0, 400.0};
  pw.slopes = {10.0, 13.9, 15.0, 22.0, 24.0};
  pw.intercepts = {0.0, 0.0, 0.0, 0.0, 0.0};
  return pw;
}

TEST(PiecewiseAffineTest, ValidateAcceptsWellFormed) {
  EXPECT_NO_THROW(paper_like_policy().validate());
}

TEST(PiecewiseAffineTest, ValidateRejectsBadShapes) {
  PiecewiseAffine pw = paper_like_policy();
  pw.slopes.pop_back();
  EXPECT_THROW(pw.validate(), std::invalid_argument);

  pw = paper_like_policy();
  pw.breaks[0] = 1.0;
  EXPECT_THROW(pw.validate(), std::invalid_argument);

  pw = paper_like_policy();
  pw.breaks[2] = pw.breaks[1];
  EXPECT_THROW(pw.validate(), std::invalid_argument);

  pw = paper_like_policy();
  pw.intercepts.push_back(0.0);
  EXPECT_THROW(pw.validate(), std::invalid_argument);
}

TEST(PiecewiseAffineTest, SegmentLookupUsesRightContinuousConvention) {
  const PiecewiseAffine pw = paper_like_policy();
  EXPECT_EQ(pw.segment_of(0.0), 0u);
  EXPECT_EQ(pw.segment_of(199.99), 0u);
  EXPECT_EQ(pw.segment_of(200.0), 1u);  // price steps up AT the threshold
  EXPECT_EQ(pw.segment_of(237.3), 2u);
  EXPECT_EQ(pw.segment_of(399.0), 4u);
  EXPECT_EQ(pw.segment_of(400.0), 4u);  // top cap belongs to last segment
}

TEST(PiecewiseAffineTest, ValueMatchesStepPriceSemantics) {
  const PiecewiseAffine pw = paper_like_policy();
  EXPECT_DOUBLE_EQ(piecewise_value(pw, 100.0), 10.0 * 100.0);
  EXPECT_DOUBLE_EQ(piecewise_value(pw, 210.0), 13.9 * 210.0);
  EXPECT_DOUBLE_EQ(piecewise_value(pw, 350.0), 24.0 * 350.0);
}

TEST(PiecewiseAffineTest, ValueClampsOutOfRange) {
  const PiecewiseAffine pw = paper_like_policy();
  EXPECT_DOUBLE_EQ(piecewise_value(pw, -5.0), 0.0);
  EXPECT_DOUBLE_EQ(piecewise_value(pw, 1e9), 24.0 * 400.0);
}

TEST(PiecewiseEncodingTest, FixedQuantityReproducesCost) {
  // Pin x at assorted values (away from the ambiguous breakpoints, covered
  // by ThresholdChoosesCheaperSide) and check the MILP objective equals
  // value(x).
  const PiecewiseAffine pw = paper_like_policy();
  for (double target : {0.0, 50.0, 199.0, 236.0, 250.0, 299.0, 399.0}) {
    Problem p;
    const PiecewiseVars vars = add_piecewise_cost(p, pw, "cost");
    p.add_constraint("pin", {{vars.x, 1.0}}, Relation::kEqual, target);
    const Solution s = solve_milp(p);
    ASSERT_TRUE(s.ok()) << "target " << target;
    EXPECT_NEAR(s.objective, piecewise_value(pw, target), 1e-5)
        << "target " << target;
  }
}

TEST(PiecewiseEncodingTest, ThresholdChoosesCheaperSide) {
  // Exactly at a breakpoint the MILP may sit on either segment; the cheaper
  // one (the left, lower price) wins under minimization, which matches how
  // an optimizer would operate the data center at the threshold.
  const PiecewiseAffine pw = paper_like_policy();
  Problem p;
  const PiecewiseVars vars = add_piecewise_cost(p, pw, "cost");
  p.add_constraint("pin", {{vars.x, 1.0}}, Relation::kEqual, 200.0);
  const Solution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 10.0 * 200.0, 1e-5);
}

TEST(PiecewiseEncodingTest, ExactlyOneSegmentSelected) {
  const PiecewiseAffine pw = paper_like_policy();
  Problem p;
  const PiecewiseVars vars = add_piecewise_cost(p, pw, "cost");
  p.add_constraint("pin", {{vars.x, 1.0}}, Relation::kEqual, 250.0);
  const Solution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  double selected = 0.0;
  for (int z : vars.selectors) selected += s.x[static_cast<std::size_t>(z)];
  EXPECT_NEAR(selected, 1.0, 1e-9);
}

TEST(PiecewiseEncodingTest, ScaleMultipliesObjective) {
  const PiecewiseAffine pw = paper_like_policy();
  Problem p;
  const PiecewiseVars vars = add_piecewise_cost(p, pw, "cost", 2.5);
  p.add_constraint("pin", {{vars.x, 1.0}}, Relation::kEqual, 100.0);
  const Solution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 2.5 * piecewise_value(pw, 100.0), 1e-6);
}

TEST(PiecewiseEncodingTest, AffineSegmentsWithIntercepts) {
  PiecewiseAffine pw;
  pw.breaks = {0.0, 10.0, 20.0};
  pw.slopes = {1.0, 0.5};
  pw.intercepts = {0.0, 5.0};
  Problem p;
  const PiecewiseVars vars = add_piecewise_cost(p, pw, "aff");
  p.add_constraint("pin", {{vars.x, 1.0}}, Relation::kEqual, 15.0);
  const Solution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 5.0 + 0.5 * 15.0, 1e-6);
}

TEST(PiecewiseEncodingTest, MinimizerExploitsPriceDropRegion) {
  // With a demand floor spanning a price step, the minimizer should stop
  // just below the step rather than pay the higher price: the classic
  // "stay under the threshold" behaviour of the bill capper.
  const PiecewiseAffine pw = paper_like_policy();
  Problem p;
  const PiecewiseVars vars = add_piecewise_cost(p, pw, "cost");
  // x must be at least 150 but is otherwise free; minimum is at 150.
  p.add_constraint("floor", {{vars.x, 1.0}}, Relation::kGreaterEqual, 150.0);
  const Solution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[static_cast<std::size_t>(vars.x)], 150.0, 1e-6);
}

TEST(PiecewiseEncodingTest, RandomizedAgainstDirectEvaluation) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    // Random increasing step curve with 2-6 segments.
    const std::size_t m = 2 + rng.below(5);
    PiecewiseAffine pw;
    pw.breaks.push_back(0.0);
    double level = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      level += rng.uniform(5.0, 50.0);
      pw.breaks.push_back(level);
      pw.slopes.push_back(rng.uniform(1.0, 30.0));
      pw.intercepts.push_back(0.0);
    }
    const double target = rng.uniform(0.0, pw.breaks.back());

    Problem p;
    const PiecewiseVars vars = add_piecewise_cost(p, pw, "c");
    p.add_constraint("pin", {{vars.x, 1.0}}, Relation::kEqual, target);
    const Solution s = solve_milp(p);
    ASSERT_TRUE(s.ok()) << "trial " << trial;
    // The MILP may do better than value(target) only when `target` sits at
    // a breakpoint between differently-priced segments; away from
    // breakpoints it must match exactly. Either way, never worse than the
    // cheapest applicable segment, never better than the cheapest slope.
    const double direct = piecewise_value(pw, target);
    EXPECT_LE(s.objective, direct + 1e-6) << "trial " << trial;
    const std::size_t k = pw.segment_of(target);
    const double left_price = (k > 0 && target == pw.breaks[k])
                                  ? pw.slopes[k - 1]
                                  : pw.slopes[k];
    const double best_possible = std::min(pw.slopes[k], left_price) * target;
    EXPECT_NEAR(s.objective, best_possible, 1e-5) << "trial " << trial;
  }
}

}  // namespace
}  // namespace billcap::lp
