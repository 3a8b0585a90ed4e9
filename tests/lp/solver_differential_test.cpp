// Differential test harness for the arena solver: lp::ArenaSolver against
// the legacy engine (solve_milp_reference) over seeded random LPs/MILPs of
// every status class plus the paper's real hourly problems. A fresh arena
// per problem must agree with the reference on status and, when optimal,
// on the objective to 1e-9 relative; one long-lived arena carried across a
// drifting sequence must in addition answer every step bitwise as a fresh
// arena does (it keeps allocations, never a basis). Well over 200
// instances run per suite invocation, and over 200 of them carry integer
// variables the arena keeps as column bounds (the bounded-variable
// simplex's flips and bound moves) instead of bound rows.

#include "lp/arena_solver.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/allocation_problems.hpp"
#include "core/cost_minimizer.hpp"
#include "core/formulation.hpp"
#include "core/throughput_maximizer.hpp"
#include "datacenter/catalog.hpp"
#include "lp/milp.hpp"
#include "lp/reference.hpp"
#include "lp/simplex.hpp"
#include "market/dcopf.hpp"
#include "market/pjm5.hpp"
#include "market/pricing_policy.hpp"
#include "util/rng.hpp"
#include "solution_bits.hpp"

namespace billcap::lp {
namespace {

/// One differential comparison. `tag` names the instance in failures.
void expect_agrees(const Solution& ref, const Solution& arena,
                   const std::string& tag) {
  ASSERT_EQ(ref.status, arena.status)
      << tag << ": ref=" << to_string(ref.status)
      << " arena=" << to_string(arena.status);
  if (ref.status != SolveStatus::kOptimal) return;
  const double scale = std::max(1.0, std::abs(ref.objective));
  EXPECT_NEAR(ref.objective, arena.objective, 1e-9 * scale)
      << tag << ": objectives diverge";
}

/// Seeded random problem drawing from every variable kind the standard-form
/// builder distinguishes (finite lower, upper-only, free, bounded, binary)
/// and all three relations, both senses, with a sprinkle of integrality.
/// Infeasible and unbounded instances arise naturally from the draw.
Problem random_problem(std::mt19937& rng) {
  std::uniform_int_distribution<int> nv(1, 6), nc(1, 6), rel(0, 2);
  std::uniform_real_distribution<double> coef(-3.0, 3.0), rhs(-5.0, 5.0);
  std::uniform_int_distribution<int> quarter(0, 3), kind(0, 5);
  Problem p;
  const int n = nv(rng);
  for (int j = 0; j < n; ++j) {
    const int k = kind(rng);
    double lo = 0.0, hi = kInfinity;
    bool integer = quarter(rng) == 0;
    if (k == 0) {
      lo = 0.0; hi = 1.0;  // binary when the integer draw hits
    } else if (k == 1) {
      lo = -2.0; hi = 3.0;
    } else if (k == 2) {
      integer = false;  // plain nonnegative continuous
    } else if (k == 3) {
      lo = -kInfinity; hi = 2.0; integer = false;  // upper-only (mirrored)
    } else if (k == 4) {
      lo = -kInfinity; hi = kInfinity; integer = false;  // free (split)
    } else {
      lo = 1.0; hi = 4.0;
    }
    p.add_variable("x", lo, hi, coef(rng), integer);
  }
  const int m = nc(rng);
  for (int i = 0; i < m; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j)
      if (quarter(rng) != 1) terms.push_back({j, coef(rng)});
    if (terms.empty()) terms.push_back({0, coef(rng)});
    p.add_constraint("c", terms, static_cast<Relation>(rel(rng)), rhs(rng));
  }
  if (quarter(rng) == 0) p.set_sense(Sense::kMaximize);
  return p;
}

/// True when some integer variable of `p` takes the arena's column-bound
/// path: a finite lower bound and a finite upper bound (the binaries and
/// the bounded integers of random_problem).
bool has_bounded_integer(const Problem& p) {
  for (const Variable& v : p.variables())
    if (v.is_integer && v.lower != -kInfinity && v.upper != kInfinity)
      return true;
  return false;
}

TEST(SolverDifferentialTest, RandomInstancesAgreeCold) {
  std::mt19937 rng(12345);
  int optimal = 0, infeasible = 0, unbounded = 0, bounded = 0;
  long warm_nodes = 0;
  for (int iter = 0; iter < 700; ++iter) {
    const Problem p = random_problem(rng);
    const Solution ref = solve_milp_reference(p);
    ArenaSolver solver;  // fresh arena: pure cold path
    const Solution arena = solver.solve(p);
    expect_agrees(ref, arena, "cold iter " + std::to_string(iter));
    if (ref.status == SolveStatus::kOptimal) ++optimal;
    if (ref.status == SolveStatus::kInfeasible) ++infeasible;
    if (ref.status == SolveStatus::kUnbounded) ++unbounded;
    if (has_bounded_integer(p)) ++bounded;
    warm_nodes += solver.stats().node_warm_solves;
  }
  // The draw must actually exercise every status class, and the arena's
  // column bounds: at least 200 instances carry integers it keeps as
  // bounded columns, whose warm nodes move bounds instead of bound rows.
  EXPECT_GT(optimal, 100);
  EXPECT_GT(infeasible, 20);
  EXPECT_GT(unbounded, 20);
  EXPECT_GE(bounded, 200);
  EXPECT_GT(warm_nodes, 30);
}

TEST(SolverDifferentialTest, RandomSequencesHistoryFree) {
  // Sequences of structurally identical problems whose objective costs and
  // rhs drift step to step, the shape of the hourly capping MILPs. One
  // long-lived arena per sequence; every step must be bitwise a fresh
  // arena's answer and agree with the reference.
  std::mt19937 rng(777);
  std::uniform_real_distribution<double> dcost(-0.5, 0.5), drhs(-1.0, 1.0);
  for (int seq = 0; seq < 40; ++seq) {
    Problem p = random_problem(rng);
    ArenaSolver solver;
    for (int step = 0; step < 8; ++step) {
      if (step > 0) {
        for (int j = 0; j < p.num_variables(); ++j)
          p.set_objective(j, p.variable(j).objective + dcost(rng));
        for (int i = 0; i < p.num_constraints(); ++i)
          p.set_rhs(i, p.constraint(i).rhs + drhs(rng));
      }
      const std::string tag =
          "seq " + std::to_string(seq) + " step " + std::to_string(step);
      expect_agrees(solve_milp_reference(p),
                    solve_history_free(solver, p, tag), tag);
    }
    EXPECT_EQ(solver.stats().warm_solves, 0);
    EXPECT_EQ(solver.stats().warm_fallbacks, 0);
  }
}

/// Degeneracy on purpose: duplicated rows, zero rhs, and ties that make
/// several bases optimal.
Problem degenerate_problem(std::mt19937& rng) {
  std::uniform_real_distribution<double> coef(-2.0, 2.0);
  std::uniform_int_distribution<int> nv(2, 5), coin(0, 1);
  Problem p;
  const int n = nv(rng);
  for (int j = 0; j < n; ++j)
    p.add_variable("x", 0.0, 4.0, coef(rng), coin(rng) == 0 && j < 2);
  std::vector<Term> row;
  for (int j = 0; j < n; ++j) row.push_back({j, coef(rng)});
  // The same row three times, as <=, >= and (sometimes) = with rhs 0:
  // every vertex touching it is degenerate.
  p.add_constraint("a", row, Relation::kLessEqual, 0.0);
  p.add_constraint("b", row, Relation::kGreaterEqual, 0.0);
  if (coin(rng) == 0) p.add_constraint("c", row, Relation::kEqual, 0.0);
  std::vector<Term> cover;
  for (int j = 0; j < n; ++j) cover.push_back({j, 1.0});
  p.add_constraint("cover", cover, Relation::kLessEqual, 6.0);
  if (coin(rng) == 0) p.set_sense(Sense::kMaximize);
  return p;
}

TEST(SolverDifferentialTest, DegenerateLpsAgree) {
  // The anchored tie-break rule (see Simplex::choose_leaving) must keep
  // both engines on agreeing optima of degenerate problems.
  std::mt19937 rng(4242);
  for (int iter = 0; iter < 120; ++iter) {
    const Problem p = degenerate_problem(rng);
    const Solution ref = solve_milp_reference(p);
    ArenaSolver solver;
    const Solution arena = solver.solve(p);
    expect_agrees(ref, arena, "degenerate iter " + std::to_string(iter));
  }
}

TEST(SolverDifferentialTest, InfeasibleAndUnboundedByConstruction) {
  for (int k = 0; k < 20; ++k) {
    // x >= 2 + k  and  x <= 1: infeasible for every k.
    Problem inf;
    const int x = inf.add_variable("x", 0.0, kInfinity, 1.0);
    inf.add_constraint("lo", {{x, 1.0}}, Relation::kGreaterEqual, 2.0 + k);
    inf.add_constraint("hi", {{x, 1.0}}, Relation::kLessEqual, 1.0);
    ArenaSolver s1;
    expect_agrees(solve_milp_reference(inf), s1.solve(inf),
                  "constructed infeasible " + std::to_string(k));

    // max x with only a lower bound: unbounded for every k.
    Problem unb;
    unb.set_sense(Sense::kMaximize);
    const int y = unb.add_variable("y", 0.0, kInfinity, 1.0 + k);
    unb.add_constraint("lo", {{y, 1.0}}, Relation::kGreaterEqual, 1.0);
    ArenaSolver s2;
    expect_agrees(solve_milp_reference(unb), s2.solve(unb),
                  "constructed unbounded " + std::to_string(k));
  }
}

/// Bitwise equality of two doubles, NaN payloads and signed zeros included.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// An arena LP answer must carry the legacy engine's status and, when
/// optimal, its answer to the last bit (objective, x, duals, pivot count).
/// The B&B fields (nodes, best_bound) are the arena's alone.
void expect_lp_bitwise(const Solution& legacy, const Solution& arena,
                       const std::string& tag) {
  ASSERT_EQ(legacy.status, arena.status)
      << tag << ": legacy=" << to_string(legacy.status)
      << " arena=" << to_string(arena.status);
  if (!legacy.ok()) return;
  EXPECT_TRUE(same_bits(legacy.objective, arena.objective)) << tag;
  EXPECT_EQ(legacy.iterations, arena.iterations) << tag;
  ASSERT_EQ(legacy.x.size(), arena.x.size()) << tag;
  for (std::size_t j = 0; j < legacy.x.size(); ++j)
    EXPECT_TRUE(same_bits(legacy.x[j], arena.x[j])) << tag << ": x " << j;
  ASSERT_EQ(legacy.duals.size(), arena.duals.size()) << tag;
  for (std::size_t i = 0; i < legacy.duals.size(); ++i)
    EXPECT_TRUE(same_bits(legacy.duals[i], arena.duals[i]))
        << tag << ": dual " << i << " " << legacy.duals[i] << " vs "
        << arena.duals[i];
}

TEST(SolverDifferentialTest, LpDualsMatchLegacyBitwise) {
  // The LP cases of the random and degenerate corpora above (integer
  // marks dropped), against lp::solve_lp_reference: same status, and for
  // an optimum the same x and duals, bit for bit, because the arena's
  // cold root replays the legacy pivot sequence and reads duals off the
  // same reduced costs. Production lp::solve_lp is held to it too. Each
  // problem is solved again under a pivot cap of 0 and of 2: a root cut
  // short reports kIterationLimit as the legacy engine does, never a
  // phantom kInfeasible.
  std::mt19937 random_rng(12345), degenerate_rng(4242);
  int optimal = 0, capped = 0;
  for (int iter = 0; iter < 520; ++iter) {
    Problem p = iter < 400 ? random_problem(random_rng)
                           : degenerate_problem(degenerate_rng);
    const Solution marked = solve_lp(p);  // ignores the integrality marks
    for (int j = 0; j < p.num_variables(); ++j) p.set_integer(j, false);
    const std::string tag = "iter " + std::to_string(iter);
    ArenaSolver solver;
    const Solution legacy = solve_lp_reference(p);
    expect_lp_bitwise(legacy, solver.solve(p), tag);
    expect_lp_bitwise(legacy, solve_lp(p), tag + " solve_lp");
    expect_lp_bitwise(legacy, marked, tag + " solve_lp, marks kept");
    if (legacy.ok()) ++optimal;
    for (const long cap : {0L, 2L}) {
      MilpOptions options;
      options.lp.max_iterations = cap;
      const Solution capped_legacy = solve_lp_reference(p, options.lp);
      const std::string capped_tag = tag + " cap " + std::to_string(cap);
      expect_lp_bitwise(capped_legacy, solver.solve(p, options), capped_tag);
      expect_lp_bitwise(capped_legacy, solve_lp(p, options.lp), capped_tag);
      if (capped_legacy.status == SolveStatus::kIterationLimit) ++capped;
    }
  }
  EXPECT_GT(optimal, 150);
  EXPECT_GT(capped, 400) << "too few roots cut short by the pivot cap";
}

TEST(SolverDifferentialTest, DcOpfDualsMatchLegacyBitwise) {
  // Seeded PJM5 hours: loads around the paper's levels with the site draw
  // fed back at gain 1 or 4, plus line outages, D-E derates and bus demand
  // shocks. The arena's answer must be solve_lp_reference's to the last
  // bit, and its balance-row duals solve_dcopf's LMPs.
  const market::Grid nominal = market::pjm5_grid();
  int congested = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Rng rng(seed);
    const double gain = seed % 2 == 0 ? 1.0 : 4.0;
    const int out = rng.below(3) == 0 ? static_cast<int>(rng.below(6)) : -1;
    const double derate = rng.below(2) == 0 ? rng.uniform(0.3, 0.95) : 1.0;
    std::vector<double> loads(5, 0.0);
    for (const int bus : market::pjm5_load_buses())
      loads[static_cast<std::size_t>(bus)] =
          rng.uniform(140.0, 330.0) + gain * rng.uniform(0.0, 70.0);
    if (rng.below(3) == 0) loads[rng.below(5)] *= rng.uniform(1.0, 1.7);

    market::Grid grid;
    for (int b = 0; b < nominal.num_buses(); ++b)
      grid.add_bus(nominal.bus_name(b));
    for (int l = 0; l < nominal.num_lines(); ++l) {
      if (l == out) continue;
      const market::Line& line = nominal.line(l);
      grid.add_line(line.name, line.from_bus, line.to_bus, line.reactance,
                    line.limit_mw * derate);
    }
    for (const market::Generator& g : nominal.generators())
      grid.add_generator(g.name, g.bus, g.capacity_mw, g.marginal_cost);

    market::DcOpfModel model = market::build_dcopf_model(grid);
    market::set_dcopf_loads(model, grid, loads);
    const std::string tag = "seed " + std::to_string(seed);
    ArenaSolver solver;
    const Solution arena = solver.solve(model.problem);
    expect_lp_bitwise(solve_lp_reference(model.problem), arena, tag);
    const market::DcOpfResult want = market::solve_dcopf(grid, loads);
    ASSERT_EQ(want.ok(), arena.ok()) << tag;
    if (!want.ok()) continue;
    for (std::size_t b = 0; b < want.lmp.size(); ++b)
      EXPECT_TRUE(same_bits(
          want.lmp[b],
          arena.duals[static_cast<std::size_t>(model.balance_row[b])]))
          << tag << ": LMP at bus " << b;
    if (want.lmp[1] != want.lmp[4]) ++congested;
  }
  EXPECT_GT(congested, 20) << "too few congested hours to exercise the duals";
}

/// A production-shaped allocation MILP: 1-6 sites cycling over the paper's
/// three, each a make_site_model at a drawn background demand, policy
/// level and cooling, as the hourly cost minimization or the throughput
/// maximization under a drawn budget.
Problem allocation_problem(util::Rng& rng, bool throughput) {
  const auto sites = datacenter::paper_datacenters();
  const auto policies =
      market::paper_policies(static_cast<int>(rng.below(4)));
  std::vector<core::SiteModel> models;
  const std::size_t n = 1 + rng.below(6);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = i % sites.size();
    models.push_back(core::make_site_model(sites[s], policies[s],
                                           rng.uniform(120.0, 330.0),
                                           rng.bernoulli(0.8)));
  }
  const double lambda = rng.uniform(0.05, 1.05) * core::system_capacity(models);
  const core::AllocationFormulation f = core::build_allocation_formulation(models);
  if (!throughput) return core::min_cost_problem(f, lambda);
  return core::throughput_problem(f, models, lambda, rng.uniform(0.0, 8e4));
}

TEST(SolverDifferentialTest, AllocationMilpsAgreeAndAreHistoryFree) {
  // 120 seeded allocation MILPs, each a cost minimization and a throughput
  // maximization: status and objective agree with the reference, and one
  // long-lived arena answers every one bitwise as a fresh arena does.
  util::Rng rng(0xa110c);
  ArenaSolver solver;
  int optimal = 0;
  for (int k = 0; k < 120; ++k) {
    for (const bool throughput : {false, true}) {
      const Problem p = allocation_problem(rng, throughput);
      const std::string tag = (throughput ? "throughput " : "cost ") +
                              std::to_string(k);
      const Solution got = solve_history_free(solver, p, tag);
      expect_agrees(solve_milp_reference(p), got, tag);
      if (got.ok()) ++optimal;
    }
  }
  EXPECT_GT(optimal, 200);
  EXPECT_GT(solver.stats().node_warm_solves, 1000);
}

class RealHourlyDifferentialTest : public ::testing::Test {
 protected:
  RealHourlyDifferentialTest() {
    const auto sites = datacenter::paper_datacenters();
    const auto policies = market::paper_policies(1);
    const std::vector<double> demand = {228.0, 182.0, 172.0};
    for (std::size_t i = 0; i < sites.size(); ++i)
      models_.push_back(
          core::make_site_model(sites[i], policies[i], demand[i]));
  }

  /// The hourly min-cost MILP at a given total arrival rate.
  Problem min_cost_problem(double lambda_total) const {
    return core::min_cost_problem(core::build_allocation_formulation(models_),
                                  lambda_total);
  }

  std::vector<core::SiteModel> models_;
};

TEST_F(RealHourlyDifferentialTest, PaperMilpsHistoryFree) {
  // A month-shaped sweep: 60 hourly arrival rates across the fleet's
  // operating range, solved on one long-lived arena (as BillCapper holds
  // them) and on a fresh arena each. The two must agree bitwise, and both
  // with the reference engine.
  ArenaSolver solver;
  for (int h = 0; h < 60; ++h) {
    const double lambda = 1e11 + 1.4e10 * h;  // 1e11 .. ~9.3e11
    const Problem p = min_cost_problem(lambda);
    const std::string tag = "hour " + std::to_string(h);
    expect_agrees(solve_milp_reference(p), solve_history_free(solver, p, tag),
                  tag);
  }
  EXPECT_EQ(solver.stats().warm_solves, 0);
  EXPECT_EQ(solver.stats().warm_fallbacks, 0);
  EXPECT_EQ(solver.stats().cold_solves, 60);
}

TEST_F(RealHourlyDifferentialTest, OptimizerEntryPointsMatchReference) {
  // The production entry points (persistent-arena overloads included)
  // against a reference-engine recomputation of the same formulation.
  ArenaSolver solver;
  core::OptimizerOptions options;
  for (const double lambda : {2e11, 4e11, 6e11, 8e11}) {
    const core::AllocationResult got = core::minimize_cost_over_models(
        models_, lambda, options, solver);
    ASSERT_TRUE(got.ok()) << lambda;
    const Solution ref =
        solve_milp_reference(min_cost_problem(lambda), options.milp);
    ASSERT_EQ(ref.status, SolveStatus::kOptimal) << lambda;
    EXPECT_NEAR(got.predicted_cost, ref.objective,
                1e-9 * std::max(1.0, std::abs(ref.objective)))
        << lambda;
  }
}

}  // namespace
}  // namespace billcap::lp
