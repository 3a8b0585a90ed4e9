#include "lp/milp_solve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace billcap::lp {
namespace {

TEST(MilpTest, PureLpPassesThrough) {
  Problem p;
  p.set_sense(Sense::kMaximize);
  p.add_variable("x", 0, 4.5, 1.0);
  const Solution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 4.5, 1e-8);
}

TEST(MilpTest, SimpleIntegerRounding) {
  // max x, x integer, x <= 4.5  ->  x = 4.
  Problem p;
  p.set_sense(Sense::kMaximize);
  p.add_variable("x", 0, kInfinity, 1.0, /*is_integer=*/true);
  p.add_constraint("cap", {{0, 1.0}}, Relation::kLessEqual, 4.5);
  const Solution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s.x[0], 4.0);
  EXPECT_NEAR(s.objective, 4.0, 1e-9);
}

TEST(MilpTest, KnapsackAgainstDp) {
  // Classic 0/1 knapsack solved both ways.
  const std::vector<double> values = {60, 100, 120, 75, 90, 40};
  const std::vector<int> weights = {10, 20, 30, 15, 25, 5};
  const int capacity = 60;

  // DP ground truth.
  std::vector<double> dp(static_cast<std::size_t>(capacity) + 1, 0.0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (int w = capacity; w >= weights[i]; --w)
      dp[static_cast<std::size_t>(w)] =
          std::max(dp[static_cast<std::size_t>(w)],
                   dp[static_cast<std::size_t>(w - weights[i])] + values[i]);
  }

  Problem p;
  p.set_sense(Sense::kMaximize);
  std::vector<Term> weight_terms;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const int z = p.add_binary("z" + std::to_string(i), values[i]);
    weight_terms.push_back({z, static_cast<double>(weights[i])});
  }
  p.add_constraint("capacity", std::move(weight_terms), Relation::kLessEqual,
                   capacity);
  const Solution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, dp[static_cast<std::size_t>(capacity)], 1e-7);
}

TEST(MilpTest, InfeasibleIntegerProblem) {
  // 2x = 3 with x integer has no solution.
  Problem p;
  p.add_variable("x", 0, 10, 1.0, /*is_integer=*/true);
  p.add_constraint("eq", {{0, 2.0}}, Relation::kEqual, 3.0);
  EXPECT_EQ(solve_milp(p).status, SolveStatus::kInfeasible);
}

TEST(MilpTest, MixedIntegerContinuous) {
  // max 2n + x  s.t. n + x <= 5.3, n integer, x <= 0.8.
  // n = 5, x = 0.3 -> 10.3  beats n = 4, x = 0.8 -> 8.8.
  Problem p;
  p.set_sense(Sense::kMaximize);
  const int n = p.add_variable("n", 0, kInfinity, 2.0, true);
  const int x = p.add_variable("x", 0, 0.8, 1.0);
  p.add_constraint("cap", {{n, 1.0}, {x, 1.0}}, Relation::kLessEqual, 5.3);
  const Solution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s.x[static_cast<std::size_t>(n)], 5.0);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 0.3, 1e-8);
  EXPECT_NEAR(s.objective, 10.3, 1e-8);
}

TEST(MilpTest, BinaryEnumerationGroundTruth) {
  // Random binary problems small enough for exhaustive enumeration.
  util::Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    constexpr int kBits = 8;
    Problem p;
    p.set_sense(Sense::kMaximize);
    std::vector<double> costs(kBits);
    std::vector<double> weights(kBits);
    for (int j = 0; j < kBits; ++j) {
      costs[static_cast<std::size_t>(j)] = rng.uniform(-3.0, 8.0);
      weights[static_cast<std::size_t>(j)] = rng.uniform(0.5, 4.0);
      p.add_binary("z" + std::to_string(j), costs[static_cast<std::size_t>(j)]);
    }
    std::vector<Term> terms;
    for (int j = 0; j < kBits; ++j)
      terms.push_back({j, weights[static_cast<std::size_t>(j)]});
    const double cap = rng.uniform(3.0, 14.0);
    p.add_constraint("cap", std::move(terms), Relation::kLessEqual, cap);

    double best = 0.0;  // all-zeros is always feasible (weights > 0)
    for (unsigned mask = 0; mask < (1u << kBits); ++mask) {
      double value = 0.0;
      double weight = 0.0;
      for (int j = 0; j < kBits; ++j) {
        if (mask & (1u << j)) {
          value += costs[static_cast<std::size_t>(j)];
          weight += weights[static_cast<std::size_t>(j)];
        }
      }
      if (weight <= cap) best = std::max(best, value);
    }

    const Solution s = solve_milp(p);
    ASSERT_TRUE(s.ok()) << "trial " << trial;
    EXPECT_NEAR(s.objective, best, 1e-6) << "trial " << trial;
    EXPECT_TRUE(p.is_feasible(s.x, 1e-6)) << "trial " << trial;
  }
}

TEST(MilpTest, GeneralIntegerEnumerationGroundTruth) {
  // Random 3-variable integer programs vs exhaustive grid search.
  util::Rng rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    Problem p;
    p.set_sense(Sense::kMinimize);
    const int ub = 6;
    std::vector<double> costs(3);
    for (int j = 0; j < 3; ++j) {
      costs[static_cast<std::size_t>(j)] = rng.uniform(-4.0, 4.0);
      p.add_variable("n" + std::to_string(j), 0, ub,
                     costs[static_cast<std::size_t>(j)], true);
    }
    // One coupling row keeps it interesting.
    const double a0 = rng.uniform(0.5, 2.0);
    const double a1 = rng.uniform(0.5, 2.0);
    const double a2 = rng.uniform(0.5, 2.0);
    const double rhs = rng.uniform(4.0, 16.0);
    p.add_constraint("row", {{0, a0}, {1, a1}, {2, a2}},
                     Relation::kGreaterEqual, rhs);

    double best = kInfinity;
    for (int i = 0; i <= ub; ++i)
      for (int j = 0; j <= ub; ++j)
        for (int k = 0; k <= ub; ++k) {
          if (a0 * i + a1 * j + a2 * k < rhs) continue;
          best = std::min(best, costs[0] * i + costs[1] * j + costs[2] * k);
        }

    const Solution s = solve_milp(p);
    if (best == kInfinity) {
      EXPECT_EQ(s.status, SolveStatus::kInfeasible) << "trial " << trial;
    } else {
      ASSERT_TRUE(s.ok()) << "trial " << trial;
      EXPECT_NEAR(s.objective, best, 1e-6) << "trial " << trial;
    }
  }
}

TEST(MilpTest, NodeLimitReported) {
  Problem p;
  p.set_sense(Sense::kMaximize);
  for (int j = 0; j < 10; ++j) p.add_binary("z" + std::to_string(j), 1.0);
  std::vector<Term> terms;
  for (int j = 0; j < 10; ++j) terms.push_back({j, 1.0});
  p.add_constraint("cap", std::move(terms), Relation::kLessEqual, 4.5);
  MilpOptions opts;
  opts.max_nodes = 1;
  const Solution s = solve_milp(p, opts);
  EXPECT_EQ(s.status, SolveStatus::kNodeLimit);
}

TEST(MilpTest, SnapsIntegersExactly) {
  Problem p;
  p.set_sense(Sense::kMaximize);
  p.add_variable("n", 0, 100, 1.0, true);
  p.add_constraint("cap", {{0, 3.0}}, Relation::kLessEqual, 10.0);
  const Solution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.x[0], std::round(s.x[0]));
  EXPECT_DOUBLE_EQ(s.x[0], 3.0);
}

TEST(MilpTest, BestBoundMatchesObjectiveOnCompletion) {
  Problem p;
  p.set_sense(Sense::kMaximize);
  p.add_binary("a", 3.0);
  p.add_binary("b", 5.0);
  p.add_constraint("cap", {{0, 2.0}, {1, 4.0}}, Relation::kLessEqual, 5.0);
  const Solution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.best_bound, s.objective, 1e-9);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);  // b alone beats a alone
}

TEST(MilpTest, ReportsSearchEffort) {
  Problem p;
  p.set_sense(Sense::kMaximize);
  for (int j = 0; j < 6; ++j)
    p.add_binary("z" + std::to_string(j), 1.0 + 0.1 * j);
  std::vector<Term> terms;
  for (int j = 0; j < 6; ++j) terms.push_back({j, 1.0});
  p.add_constraint("cap", std::move(terms), Relation::kLessEqual, 2.5);
  const Solution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_GE(s.nodes, 1);
  EXPECT_GE(s.iterations, 1);
}

TEST(MilpTest, EqualityWithBinariesSelectsExactlyOne) {
  // The segment-selection pattern used by the piecewise encoding.
  Problem p;
  p.set_sense(Sense::kMinimize);
  const int z0 = p.add_binary("z0", 5.0);
  const int z1 = p.add_binary("z1", 3.0);
  const int z2 = p.add_binary("z2", 7.0);
  p.add_constraint("one", {{z0, 1.0}, {z1, 1.0}, {z2, 1.0}}, Relation::kEqual,
                   1.0);
  const Solution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s.x[static_cast<std::size_t>(z1)], 1.0);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
}

}  // namespace
}  // namespace billcap::lp
