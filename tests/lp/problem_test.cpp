#include "lp/problem.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace billcap::lp {
namespace {

TEST(ProblemTest, AddVariableAssignsSequentialIndices) {
  Problem p;
  EXPECT_EQ(p.add_variable("a", 0, 1), 0);
  EXPECT_EQ(p.add_variable("b", 0, 1), 1);
  EXPECT_EQ(p.num_variables(), 2);
}

TEST(ProblemTest, AddVariableRejectsEmptyInterval) {
  Problem p;
  EXPECT_THROW(p.add_variable("bad", 2.0, 1.0), std::invalid_argument);
}

TEST(ProblemTest, BinaryIsIntegerWithUnitBounds) {
  Problem p;
  const int z = p.add_binary("z");
  EXPECT_TRUE(p.variable(z).is_integer);
  EXPECT_EQ(p.variable(z).lower, 0.0);
  EXPECT_EQ(p.variable(z).upper, 1.0);
  EXPECT_TRUE(p.has_integers());
}

TEST(ProblemTest, HasIntegersFalseForPureLp) {
  Problem p;
  p.add_variable("x", 0, 10);
  EXPECT_FALSE(p.has_integers());
}

TEST(ProblemTest, ConstraintRejectsBadVariableIndex) {
  Problem p;
  p.add_variable("x", 0, 1);
  EXPECT_THROW(p.add_constraint("c", {{5, 1.0}}, Relation::kLessEqual, 1.0),
               std::out_of_range);
}

TEST(ProblemTest, ObjectiveEvaluation) {
  Problem p;
  p.add_variable("x", 0, 10, 2.0);
  p.add_variable("y", 0, 10, -1.0);
  p.set_objective_constant(5.0);
  const std::vector<double> x = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(p.objective_value(x), 2.0 * 3 - 4 + 5);
}

TEST(ProblemTest, RowActivity) {
  Problem p;
  p.add_variable("x", 0, 10);
  p.add_variable("y", 0, 10);
  p.add_constraint("c", {{0, 1.0}, {1, 2.0}}, Relation::kLessEqual, 100.0);
  const std::vector<double> x = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(p.row_activity(0, x), 11.0);
}

TEST(ProblemTest, FeasibilityChecksAllRelations) {
  Problem p;
  p.add_variable("x", 0, 10);
  p.add_constraint("le", {{0, 1.0}}, Relation::kLessEqual, 5.0);
  p.add_constraint("ge", {{0, 1.0}}, Relation::kGreaterEqual, 2.0);
  EXPECT_TRUE(p.is_feasible(std::vector<double>{3.0}));
  EXPECT_FALSE(p.is_feasible(std::vector<double>{6.0}));
  EXPECT_FALSE(p.is_feasible(std::vector<double>{1.0}));
}

TEST(ProblemTest, FeasibilityChecksEquality) {
  Problem p;
  p.add_variable("x", 0, 10);
  p.add_constraint("eq", {{0, 1.0}}, Relation::kEqual, 4.0);
  EXPECT_TRUE(p.is_feasible(std::vector<double>{4.0}));
  EXPECT_FALSE(p.is_feasible(std::vector<double>{4.5}));
}

TEST(ProblemTest, FeasibilityChecksIntegrality) {
  Problem p;
  p.add_variable("n", 0, 10, 0.0, /*is_integer=*/true);
  EXPECT_TRUE(p.is_feasible(std::vector<double>{3.0}));
  EXPECT_FALSE(p.is_feasible(std::vector<double>{3.4}));
}

TEST(ProblemTest, FeasibilityChecksBounds) {
  Problem p;
  p.add_variable("x", 1.0, 2.0);
  EXPECT_FALSE(p.is_feasible(std::vector<double>{0.5}));
  EXPECT_FALSE(p.is_feasible(std::vector<double>{2.5}));
  EXPECT_TRUE(p.is_feasible(std::vector<double>{1.5}));
}

TEST(ProblemTest, FeasibilityRejectsWrongSize) {
  Problem p;
  p.add_variable("x", 0, 1);
  EXPECT_FALSE(p.is_feasible(std::vector<double>{}));
}

TEST(ProblemTest, SetBoundsTightens) {
  Problem p;
  const int x = p.add_variable("x", 0, 10);
  p.set_bounds(x, 2.0, 3.0);
  EXPECT_EQ(p.variable(x).lower, 2.0);
  EXPECT_EQ(p.variable(x).upper, 3.0);
  EXPECT_THROW(p.set_bounds(x, 5.0, 4.0), std::invalid_argument);
}

TEST(SolveStatusTest, Names) {
  EXPECT_STREQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(SolveStatus::kUnbounded), "unbounded");
}

}  // namespace
}  // namespace billcap::lp
