// Property tests for ArenaSolver's basis handling and arena limits: a
// long-lived solver carries allocations, never a basis, from one solve to
// the next, so every answer is bitwise the answer of a fresh solver (and
// agrees with the reference engine); a byte cap must surface as the typed
// SolveStatus::kArenaExhausted with no incumbent.

#include "lp/arena_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "lp/milp.hpp"
#include "solution_bits.hpp"

namespace billcap::lp {
namespace {

/// min x + 2y  s.t. x + y >= rhs, both binary-scaled integers optional.
Problem two_var_problem(double rhs, bool integers = false) {
  Problem p;
  const int x = p.add_variable("x", 0.0, 10.0, 1.0, integers);
  const int y = p.add_variable("y", 0.0, 10.0, 2.0, integers);
  p.add_constraint("cover", {{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual,
                   rhs);
  return p;
}

/// A structurally different shape: three variables, two rows, a binary.
Problem three_var_problem(double rhs) {
  Problem p;
  const int x = p.add_variable("x", 0.0, 5.0, 1.0);
  const int y = p.add_variable("y", 0.0, 5.0, 3.0);
  const int z = p.add_binary("z", 2.0);
  p.add_constraint("cover", {{x, 1.0}, {y, 1.0}, {z, 4.0}},
                   Relation::kGreaterEqual, rhs);
  p.add_constraint("mix", {{x, 1.0}, {y, -1.0}}, Relation::kLessEqual, 2.0);
  return p;
}

/// Solves `p` on the long-lived `solver` and checks the answer against a
/// fresh solver (bitwise) and the reference engine (status, objective).
void expect_history_free(ArenaSolver& solver, const Problem& p,
                         const std::string& tag) {
  const Solution got = solve_history_free(solver, p, tag);
  const Solution want = solve_milp_reference(p);
  ASSERT_EQ(got.status, want.status) << tag;
  if (want.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(got.objective, want.objective, 1e-9) << tag;
  }
}

MilpOptions capped_at(std::size_t bytes) {
  MilpOptions options;
  options.max_arena_bytes = bytes;
  return options;
}

void expect_no_cross_solve_warm(const ArenaSolver& solver) {
  EXPECT_EQ(solver.stats().warm_solves, 0);
  EXPECT_EQ(solver.stats().warm_fallbacks, 0);
}

TEST(ArenaSolverTest, LongLivedSolverMatchesFreshOnRhsDrift) {
  ArenaSolver solver;
  for (int k = 0; k < 12; ++k) {
    const double rhs = 1.0 + 0.7 * k;
    expect_history_free(solver, two_var_problem(rhs, /*integers=*/true),
                        "k=" + std::to_string(k));
  }
  expect_no_cross_solve_warm(solver);
  EXPECT_EQ(solver.stats().cold_solves, 12);  // every root is cold
}

TEST(ArenaSolverTest, StructureChangeFallsBackColdNotWrong) {
  // Alternating shapes: the arena is rebuilt for a different tableau every
  // solve, and every answer must still be the fresh solver's and match the
  // reference.
  ArenaSolver solver;
  for (int k = 0; k < 10; ++k) {
    const bool odd = (k % 2) != 0;
    const Problem p =
        odd ? three_var_problem(3.0 + k) : two_var_problem(2.0 + k);
    expect_history_free(solver, p, "k=" + std::to_string(k));
  }
  expect_no_cross_solve_warm(solver);
}

TEST(ArenaSolverTest, RepeatedSolveIsBitwiseIdentical) {
  ArenaSolver solver;
  const Problem p = three_var_problem(4.0);
  const Solution first = solver.solve(p);
  const Solution second = solver.solve(p);
  EXPECT_EQ(first.status, SolveStatus::kOptimal);
  expect_bitwise_equal(first, second, "repeat");
  expect_no_cross_solve_warm(solver);
  EXPECT_EQ(solver.stats().cold_solves, 2);
}

TEST(ArenaSolverTest, ArenaExhaustionIsTypedAndRecoverable) {
  // A cap far below any real tableau: the solve must refuse to allocate,
  // return the typed status, and leave no bogus incumbent behind.
  ArenaSolver solver;
  const Problem p = three_var_problem(4.0);
  const MilpOptions tiny = capped_at(64);
  const Solution s = solver.solve(p, tiny);
  EXPECT_EQ(s.status, SolveStatus::kArenaExhausted);
  EXPECT_FALSE(s.has_incumbent());
  EXPECT_STREQ(to_string(s.status), "arena_exhausted");

  // The same solver keeps answering (typed, not crashed) on later capped
  // calls, and the cap binds only the call it is passed to: an uncapped
  // call on the same solver solves the identical problem as a fresh one.
  EXPECT_EQ(solver.solve(p, tiny).status, SolveStatus::kArenaExhausted);
  expect_history_free(solver, p, "uncapped after exhaustion");
}

TEST(ArenaSolverTest, GenerousCapStillSolves) {
  // A cap big enough for the tableau must not trip: the cap bounds the
  // footprint, it does not tax successful solves.
  ArenaSolver solver;
  const Problem p = three_var_problem(4.0);
  const MilpOptions capped = capped_at(std::size_t{1} << 20);
  const Solution s = solver.solve(p, capped);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_LE(solver.arena_bytes(), static_cast<std::size_t>(1) << 20);
  ArenaSolver fresh;
  expect_bitwise_equal(fresh.solve(p), s, "generous cap");
}

TEST(ArenaSolverTest, SqueezeBelowGrownFootprintIsExhausted) {
  // An arena grown by an earlier uncapped solve already holds more than a
  // squeezed cap: the squeezed call is exhausted up front even though a
  // fresh arena for the same small problem would fit under it.
  ArenaSolver solver;
  const Problem small = two_var_problem(3.0);
  ArenaSolver probe;
  ASSERT_EQ(probe.solve(small).status, SolveStatus::kOptimal);
  const std::size_t small_bytes = probe.arena_bytes();

  Problem big;
  std::vector<Term> cover;
  for (int j = 0; j < 40; ++j) {
    big.add_variable("x" + std::to_string(j), 0.0, 3.0, 1.0 + 0.1 * j, true);
    cover.push_back({j, 1.0});
  }
  big.add_constraint("cover", std::move(cover), Relation::kGreaterEqual, 7.5);
  ASSERT_EQ(solver.solve(big).status, SolveStatus::kOptimal);
  const std::size_t grown = solver.arena_bytes();
  ASSERT_GT(grown, small_bytes);

  const MilpOptions squeezed = capped_at(grown - 1);
  ASSERT_GE(squeezed.max_arena_bytes, small_bytes);
  EXPECT_EQ(probe.solve(small, squeezed).status, SolveStatus::kOptimal);
  const Solution s = solver.solve(small, squeezed);
  EXPECT_EQ(s.status, SolveStatus::kArenaExhausted);
  EXPECT_FALSE(s.has_incumbent());
  EXPECT_EQ(solver.arena_bytes(), grown);  // refused before touching it

  // The squeeze does not stick: the next uncapped call is history-free.
  expect_history_free(solver, small, "after squeeze");
}

TEST(ArenaSolverTest, StatsCountersAccountForNodeWarmStarts) {
  // A MILP with enough branching to exercise the node-warm path: children
  // re-solved by dual simplex must show up in node_warm_solves.
  Problem p;
  std::vector<Term> knap;
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> w(1.0, 5.0);
  for (int j = 0; j < 10; ++j) {
    const double weight = w(rng);
    p.add_binary("b" + std::to_string(j), -weight * 0.9);
    knap.push_back({j, weight});
  }
  p.add_constraint("cap", std::move(knap), Relation::kLessEqual, 12.0);
  ArenaSolver solver;
  const Solution s = solver.solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_GT(solver.stats().nodes_explored, 1);
  EXPECT_GT(solver.stats().node_warm_solves, 0);
  EXPECT_GT(solver.stats().dual_iterations, 0);
  // And it agrees with the reference.
  const Solution want = solve_milp_reference(p);
  EXPECT_NEAR(s.objective, want.objective, 1e-9);
}

TEST(ArenaSolverTest, LongLivedSolverHistoryFreeUnderRandomDrift) {
  // Property sweep: one long-lived solver, 60 solves whose rhs and costs
  // drift randomly (occasionally into infeasibility). Every answer must be
  // bitwise a fresh solver's, and match a reference solve.
  std::mt19937 rng(2026);
  std::uniform_real_distribution<double> rhs_draw(-2.0, 14.0);
  std::uniform_real_distribution<double> cost_draw(0.5, 3.0);
  ArenaSolver solver;
  for (int k = 0; k < 60; ++k) {
    Problem p;
    const int x = p.add_variable("x", 0.0, 4.0, cost_draw(rng), true);
    const int y = p.add_variable("y", 0.0, 4.0, cost_draw(rng), true);
    const int z = p.add_variable("z", 0.0, 4.0, cost_draw(rng));
    p.add_constraint("cover", {{x, 1.0}, {y, 1.0}, {z, 1.0}},
                     Relation::kGreaterEqual, rhs_draw(rng));
    p.add_constraint("cap", {{x, 1.0}, {y, 2.0}}, Relation::kLessEqual, 9.0);
    expect_history_free(solver, p, "k=" + std::to_string(k));
  }
  expect_no_cross_solve_warm(solver);
}

}  // namespace
}  // namespace billcap::lp
