// Property tests for ArenaSolver's basis handling and arena limits: a
// long-lived solver carries allocations, never a basis, from one solve to
// the next, so every answer is bitwise the answer of a fresh solver (and
// agrees with the reference engine); a byte cap must surface as the typed
// SolveStatus::kArenaExhausted with no incumbent, and it counts logical
// tableau bytes, so the rows' padding for the pivot kernels changes neither
// an answer nor a cap decision. The rhs-ranging walk
// (range_rhs) starts from solve()'s own answer, and between its
// breakpoints its dual is the one a cold solve at that rhs finds.

#include "lp/arena_solver.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "lp/milp.hpp"
#include "lp/reference.hpp"
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

/// The arena footprint a fresh solver grows to on `problem`: the smallest
/// byte cap under which it solves without exhausting its arena (the cap
/// is checked against every growth, and an arena never shrinks).
std::size_t grown_footprint(const Problem& problem) {
  std::size_t fits = std::size_t{1} << 24;
  std::size_t exhausted = 0;
  while (fits - exhausted > 1) {
    const std::size_t mid = exhausted + (fits - exhausted) / 2;
    ArenaSolver fresh;
    if (fresh.solve(problem, capped_at(mid)).status ==
        SolveStatus::kArenaExhausted)
      exhausted = mid;
    else
      fits = mid;
  }
  return fits;
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
  const std::size_t small_bytes = grown_footprint(small);

  Problem big;
  std::vector<Term> cover;
  for (int j = 0; j < 40; ++j) {
    big.add_variable("x" + std::to_string(j), 0.0, 3.0, 1.0 + 0.1 * j, true);
    cover.push_back({j, 1.0});
  }
  big.add_constraint("cover", std::move(cover), Relation::kGreaterEqual, 7.5);
  ASSERT_EQ(solver.solve(big).status, SolveStatus::kOptimal);
  const std::size_t grown = grown_footprint(big);
  ASSERT_GT(grown, small_bytes);

  const MilpOptions squeezed = capped_at(grown - 1);
  ASSERT_GE(squeezed.max_arena_bytes, small_bytes);
  EXPECT_EQ(probe.solve(small, squeezed).status, SolveStatus::kOptimal);
  const Solution s = solver.solve(small, squeezed);
  EXPECT_EQ(s.status, SolveStatus::kArenaExhausted);
  EXPECT_FALSE(s.has_incumbent());
  // Refused before touching the arena: it still fits a cap of `grown`.
  EXPECT_EQ(solver.solve(big, capped_at(grown)).status, SolveStatus::kOptimal);

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

/// Four variables in [0, 10], a cover row (>=) and `caps` capacity rows
/// (<=), every rhs nonnegative so no row is flipped. Its standard form has
/// m = 5 + caps rows and n_total = 10 + caps columns before the rhs: four
/// structural, one slack per bound, cover and capacity row, and the cover
/// row's artificial. Marked integer, the four bounds are column bounds
/// instead of rows: m = 1 + caps rows and n_total = 6 + caps columns. Even
/// `caps` gives an odd logical row width either way.
Problem width_problem(int caps, bool integers = false) {
  Problem p;
  std::vector<Term> cover;
  for (int j = 0; j < 4; ++j) {
    p.add_variable("x" + std::to_string(j), 0.0, 10.0, 4.0 - j, integers);
    cover.push_back({j, 1.0});
  }
  p.add_constraint("cover", std::move(cover), Relation::kGreaterEqual, 17.5);
  p.add_constraint("cap01", {{0, 1.0}, {1, 1.0}}, Relation::kLessEqual, 8.25);
  p.add_constraint("cap23", {{2, 1.0}, {3, 1.0}}, Relation::kLessEqual, 12.0);
  if (caps == 3)
    p.add_constraint("cap02", {{0, 2.0}, {2, 1.0}}, Relation::kLessEqual, 13.0);
  return p;
}

TEST(ArenaSolverTest, PaddedRowsMatchReferenceAtOddAndEvenWidths) {
  // Tableau rows are padded from their logical width n_total + 1 to an
  // even stride for the pivot's row kernels. With a padding lane (width
  // 13) and without one (width 14) the LP must be the reference simplex's
  // answer bit for bit: status, objective, every x, every dual, pivots.
  for (const int caps : {2, 3}) {
    const std::string tag = "caps=" + std::to_string(caps);
    const Problem p = width_problem(caps);
    const Solution want = solve_lp_reference(p);
    ArenaSolver solver;
    const Solution got = solver.solve(p);
    ASSERT_EQ(want.status, SolveStatus::kOptimal) << tag;
    ASSERT_EQ(got.status, want.status) << tag;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
              std::bit_cast<std::uint64_t>(want.objective))
        << tag;
    EXPECT_EQ(got.iterations, want.iterations) << tag;
    EXPECT_GE(got.iterations, 3) << tag << ": too few pivots to bite";
    ASSERT_EQ(got.x.size(), want.x.size()) << tag;
    for (std::size_t j = 0; j < want.x.size(); ++j)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.x[j]),
                std::bit_cast<std::uint64_t>(want.x[j]))
          << tag << " x" << j;
    ASSERT_EQ(got.duals.size(), want.duals.size()) << tag;
    for (std::size_t i = 0; i < want.duals.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.duals[i]),
                std::bit_cast<std::uint64_t>(want.duals[i]))
          << tag << " dual " << i;
  }
}

TEST(ArenaSolverTest, ByteCapCountsLogicalNotPaddedTableau) {
  // The cap counts the logical tableau, (m + 1) rows of n_total + 1
  // doubles with the cost row, plus the node pool, never the padded
  // stride: a MILP of odd logical width (9, padded to 10) solves under a
  // cap of exactly those bytes and is exhausted one byte under it. Its
  // integer bounds are column bounds, not rows (3 rows, not 7). The first
  // node pool is 1024 NodeSlots of 40 bytes.
  const Problem p = width_problem(2, /*integers=*/true);
  constexpr std::size_t kRows = 3;
  constexpr std::size_t kWidth = 9;
  constexpr std::size_t kPoolBytes = 1024 * 40;
  const std::size_t exact = (kRows + 1) * kWidth * sizeof(double) + kPoolBytes;

  ArenaSolver fits;
  const Solution s = fits.solve(p, capped_at(exact));
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_GT(s.nodes, 1) << "the MILP must branch for the pool to matter";
  ArenaSolver fresh;
  expect_bitwise_equal(fresh.solve(p), s, "exact cap");

  ArenaSolver squeezed;
  const Solution t = squeezed.solve(p, capped_at(exact - 1));
  EXPECT_EQ(t.status, SolveStatus::kArenaExhausted);
  EXPECT_FALSE(t.has_incumbent());
}

/// Economic dispatch: generators with random capacities and costs serve
/// `demand` (row 0), and a random weighted "line" row caps part of the
/// dispatch (row 1), so the demand row's dual steps both where a unit
/// fills and where the line binds.
Problem dispatch_problem(std::mt19937& rng, double demand) {
  std::uniform_real_distribution<double> cap(5.0, 40.0), cost(5.0, 50.0),
      weight(0.0, 1.0);
  Problem p;
  std::vector<Term> serve, line;
  for (int g = 0; g < 5; ++g) {
    const int v = p.add_variable("P", 0.0, cap(rng), cost(rng));
    serve.push_back({v, 1.0});
    line.push_back({v, weight(rng)});
  }
  p.add_constraint("demand", std::move(serve), Relation::kEqual, demand);
  p.add_constraint("line", std::move(line), Relation::kLessEqual, 30.0);
  return p;
}

/// The demand dual a cold solve finds with row 0's rhs moved by t.
Solution cold_at(const Problem& base, double t) {
  Problem p = base;
  p.set_rhs(0, base.constraint(0).rhs + t);
  ArenaSolver fresh;
  return fresh.solve(p);
}

TEST(ArenaSolverTest, RangeRhsStartIsSolveBitwiseWithDuals) {
  std::mt19937 rng(18);
  ArenaSolver walker;
  RhsRange walk;
  for (int k = 0; k < 40; ++k) {
    const Problem p = dispatch_problem(rng, 20.0);
    walker.range_rhs(p, 0, 1.0, 60.0, walk);
    ArenaSolver fresh;
    const Solution want = fresh.solve(p);
    const std::string tag = "k=" + std::to_string(k);
    expect_bitwise_equal(want, walk.start, tag);
    ASSERT_EQ(want.duals.size(), walk.start.duals.size()) << tag;
    for (std::size_t i = 0; i < want.duals.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(want.duals[i]),
                std::bit_cast<std::uint64_t>(walk.start.duals[i]))
          << tag << " dual " << i;
  }
  EXPECT_EQ(walker.stats().cold_solves, 40);
}

TEST(ArenaSolverTest, RangeRhsDualsAreColdDualsBetweenBreakpoints) {
  // Off its breakpoints the optimal value is linear in t, so its slope,
  // the demand row's dual, is unique: a cold solve anywhere strictly
  // between two breakpoints must find the walk's dual there. Past an
  // infeasible end no rhs is feasible.
  std::mt19937 rng(2012);
  ArenaSolver walker;
  RhsRange walk;
  int steps = 0, infeasible = 0;
  for (int k = 0; k < 60; ++k) {
    const Problem p = dispatch_problem(rng, 10.0);
    const double direction = k % 3 == 0 ? 2.5 : 1.0;
    walker.range_rhs(p, 0, direction, 50.0, walk);
    const std::string tag = "k=" + std::to_string(k);
    if (!walk.start.ok()) continue;
    ASSERT_NE(walk.end, RhsRange::End::kRefused) << tag;
    std::vector<double> ts = {0.0};
    std::vector<double> duals = {walk.start.duals[0]};
    for (const RhsBreakpoint& b : walk.breakpoints) {
      ts.push_back(b.t);
      duals.push_back(b.dual);
    }
    ts.push_back(walk.end_t);
    for (std::size_t j = 0; j + 1 < ts.size(); ++j) {
      if (ts[j + 1] - ts[j] < 1e-6) continue;
      const double mid = 0.5 * (ts[j] + ts[j + 1]);
      const Solution cold = cold_at(p, direction * mid);
      ASSERT_TRUE(cold.ok()) << tag << " t=" << mid;
      EXPECT_NEAR(cold.duals[0], duals[j], 1e-7) << tag << " t=" << mid;
      if (j > 0 && std::abs(duals[j] - duals[j - 1]) > 1e-9) ++steps;
    }
    if (walk.end == RhsRange::End::kInfeasible) {
      ++infeasible;
      EXPECT_FALSE(cold_at(p, direction * (walk.end_t + 1e-3)).ok()) << tag;
      EXPECT_TRUE(cold_at(p, direction * walk.end_t * (1.0 - 1e-9)).ok()) << tag;
    }
  }
  EXPECT_GT(steps, 60) << "too few dual steps for the check to bite";
  EXPECT_GT(infeasible, 5);
  EXPECT_EQ(walker.stats().range_refusals, 0);
}

TEST(ArenaSolverTest, RangeRhsOnARedundantRowRefusesOrEndsInfeasible) {
  // The same equality twice: phase 1 leaves one row's artificial basic at
  // zero. Moving one copy's rhs makes the pair inconsistent. In one
  // direction the basic artificial would rise, a pivot the walk refuses;
  // in the other it leaves with no entering column, which certifies
  // infeasibility. Either way nothing past t = 0 is reported.
  Problem p;
  const int x = p.add_variable("x", 0.0, 10.0, 1.0);
  const int y = p.add_variable("y", 0.0, 10.0, 2.0);
  p.add_constraint("a", {{x, 1.0}, {y, 1.0}}, Relation::kEqual, 3.0);
  p.add_constraint("b", {{x, 1.0}, {y, 1.0}}, Relation::kEqual, 3.0);
  ArenaSolver solver;
  RhsRange up, down;
  solver.range_rhs(p, 0, 1.0, 5.0, up);
  solver.range_rhs(p, 0, -1.0, 5.0, down);
  ASSERT_TRUE(up.start.ok());
  EXPECT_TRUE(up.breakpoints.empty());
  EXPECT_TRUE(down.breakpoints.empty());
  EXPECT_EQ(up.end_t, 0.0);
  EXPECT_EQ(down.end_t, 0.0);
  EXPECT_NE(up.end, down.end);
  for (const RhsRange* r : {&up, &down})
    EXPECT_NE(r->end, RhsRange::End::kReachedMax);
  EXPECT_EQ(solver.stats().range_refusals, 1);
}

TEST(ArenaSolverTest, RangeRhsWalksNothingFromAnInfeasibleStart) {
  ArenaSolver solver;
  RhsRange walk;
  Problem p;
  const int x = p.add_variable("x", 0.0, 1.0, 1.0);
  p.add_constraint("need", {{x, 1.0}}, Relation::kEqual, 2.0);
  solver.range_rhs(p, 0, -1.0, 5.0, walk);
  EXPECT_EQ(walk.start.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(walk.breakpoints.empty());
  EXPECT_EQ(walk.end, RhsRange::End::kRefused);
  EXPECT_EQ(walk.end_t, 0.0);
}

TEST(ArenaSolverTest, RangeRhsRejectsMilpsAndMissingRows) {
  ArenaSolver solver;
  RhsRange walk;
  EXPECT_THROW(solver.range_rhs(two_var_problem(3.0, true), 0, 1.0, 1.0, walk),
               std::invalid_argument);
  EXPECT_THROW(solver.range_rhs(two_var_problem(3.0), 1, 1.0, 1.0, walk),
               std::invalid_argument);
  EXPECT_THROW(solver.range_rhs(two_var_problem(3.0), -1, 1.0, 1.0, walk),
               std::invalid_argument);
}

}  // namespace
}  // namespace billcap::lp
