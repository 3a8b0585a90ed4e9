#include "lp/lp_io.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "lp/milp_solve.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace billcap::lp {
namespace {

Problem sample_problem() {
  Problem p;
  p.set_sense(Sense::kMaximize);
  const int x = p.add_variable("x", 0.0, 4.0, 3.0);
  const int y = p.add_variable("y", -2.0, kInfinity, 5.0);
  const int z = p.add_binary("z", -1.0);
  const int n = p.add_variable("n", 0.0, 7.0, 0.5, /*is_integer=*/true);
  p.add_constraint("c1", {{x, 1.0}, {y, 2.0}}, Relation::kLessEqual, 14.0);
  p.add_constraint("c2", {{y, -1.0}, {z, 4.0}}, Relation::kGreaterEqual, -3.0);
  p.add_constraint("c3", {{x, 1.0}, {n, 1.0}}, Relation::kEqual, 5.0);
  return p;
}

TEST(LpIoTest, WriterEmitsAllSections) {
  const std::string text = write_lp_format(sample_problem());
  EXPECT_NE(text.find("Maximize"), std::string::npos);
  EXPECT_NE(text.find("Subject To"), std::string::npos);
  EXPECT_NE(text.find("Bounds"), std::string::npos);
  EXPECT_NE(text.find("Generals"), std::string::npos);
  EXPECT_NE(text.find("Binaries"), std::string::npos);
  EXPECT_NE(text.find("End"), std::string::npos);
}

TEST(LpIoTest, RoundTripPreservesOptimum) {
  const Problem original = sample_problem();
  const Problem parsed = parse_lp_format(write_lp_format(original));
  const Solution a = solve_milp(original);
  const Solution b = solve_milp(parsed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a.objective, b.objective, 1e-7);
}

TEST(LpIoTest, RoundTripPreservesStructure) {
  const Problem original = sample_problem();
  const Problem parsed = parse_lp_format(write_lp_format(original));
  EXPECT_EQ(parsed.num_variables(), original.num_variables());
  EXPECT_EQ(parsed.num_constraints(), original.num_constraints());
  EXPECT_EQ(parsed.sense(), original.sense());
  int integers = 0;
  for (int j = 0; j < parsed.num_variables(); ++j)
    if (parsed.variable(j).is_integer) ++integers;
  EXPECT_EQ(integers, 2);
}

TEST(LpIoTest, ParsesHandWrittenModel) {
  const char* text = R"(
Minimize
 obj: 2 x + 3 y
Subject To
 demand: x + y >= 10
 xcap: x <= 6
Bounds
 0 <= x <= 6
 y free
End
)";
  const Problem p = parse_lp_format(text);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  // All mass on x (cheaper) up to 6, remainder on y: 2*6 + 3*4 = 24.
  EXPECT_NEAR(s.objective, 24.0, 1e-7);
}

TEST(LpIoTest, ParsesNegativeRhsAndCoefficients) {
  const char* text = R"(
Minimize
 obj: x - 2 y
Subject To
 c: -x + y <= -1
Bounds
 0 <= x <= 5
 0 <= y <= 5
End
)";
  const Problem p = parse_lp_format(text);
  EXPECT_EQ(p.num_constraints(), 1);
  EXPECT_DOUBLE_EQ(p.constraint(0).rhs, -1.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
}

TEST(LpIoTest, SanitizesAwkwardNames) {
  Problem p;
  p.add_variable("site0.cost seg[2]", 0, 1, 1.0);
  p.add_variable("2bad", 0, 1, 1.0);
  const std::string text = write_lp_format(p);
  const Problem parsed = parse_lp_format(text);
  EXPECT_EQ(parsed.num_variables(), 2);
}

TEST(LpIoTest, CommentsAreIgnored)  {
  const char* text = R"(\* a comment *\
Minimize
 obj: x
Subject To
 c: x >= 2
End
)";
  const Problem p = parse_lp_format(text);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(LpIoTest, RejectsMalformedInput) {
  EXPECT_THROW(parse_lp_format("Garbage"), std::runtime_error);
  EXPECT_THROW(parse_lp_format("Minimize\n obj: x\nSubject To\n c: x ?? 3\nEnd\n"),
               std::runtime_error);
}

TEST(LpIoTest, RandomRoundTripProperty) {
  util::Rng rng(88);
  for (int trial = 0; trial < 30; ++trial) {
    Problem p;
    p.set_sense(rng.bernoulli(0.5) ? Sense::kMinimize : Sense::kMaximize);
    const int n = 2 + static_cast<int>(rng.below(4));
    for (int j = 0; j < n; ++j) {
      const double lo = rng.uniform(0.0, 1.0);
      p.add_variable("x" + std::to_string(j), lo, lo + rng.uniform(0.5, 4.0),
                     rng.uniform(-3.0, 3.0), rng.bernoulli(0.3));
    }
    const int m = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < m; ++i) {
      std::vector<Term> terms;
      for (int j = 0; j < n; ++j)
        if (rng.bernoulli(0.8)) terms.push_back({j, rng.uniform(-2.0, 2.0)});
      if (terms.empty()) terms.push_back({0, 1.0});
      p.add_constraint("r" + std::to_string(i), std::move(terms),
                       rng.bernoulli(0.5) ? Relation::kLessEqual
                                          : Relation::kGreaterEqual,
                       rng.uniform(-5.0, 10.0));
    }
    const Problem parsed = parse_lp_format(write_lp_format(p));
    const Solution a = solve_milp(p);
    const Solution b = solve_milp(parsed);
    ASSERT_EQ(a.status, b.status) << "trial " << trial;
    if (a.ok()) {
      EXPECT_NEAR(a.objective, b.objective,
                  1e-6 * std::max(1.0, std::abs(a.objective)))
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace billcap::lp
