// The allocation MILP states no upper bound that one of its rows already
// implies (src/core/formulation.cpp, src/lp/piecewise.cpp): the arena
// turns every finite bound of a continuous variable into a tableau row and
// a slack column. Only the binaries keep bounds, and the arena carries
// those as column bounds with no row. These tests pin that shape (through
// the byte cap too), check the premise it rests on for every site-model
// family production builds, and re-add the dropped bounds on a seeded
// corpus to show that no optimum moves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/allocation_problems.hpp"
#include "core/baselines.hpp"
#include "core/bill_capper.hpp"
#include "core/cost_minimizer.hpp"
#include "core/formulation.hpp"
#include "core/throughput_maximizer.hpp"
#include "datacenter/catalog.hpp"
#include "lp/arena_solver.hpp"
#include "lp/reference.hpp"
#include "market/closed_loop.hpp"
#include "market/pricing_policy.hpp"
#include "util/rng.hpp"

namespace billcap::core {
namespace {

/// The model BillCapper builds for a site that is down this hour
/// (down_site_model in src/core/bill_capper.cpp): zero capacity and power
/// cap, and a cost curve that ends above that cap at 1e-6 MW.
SiteModel down_model() {
  SiteModel model;
  model.cost_curve.breaks = {0.0, 1e-6};
  model.cost_curve.slopes = {0.0};
  model.cost_curve.intercepts = {0.0};
  return model;
}

/// A bound the formulation leaves to its rows, and the value they imply.
struct DroppedBound {
  int var = -1;
  double upper = 0.0;
};

/// Per site: lambda <= lambda_max, power <= Ps, the aggregate
/// x <= breaks.back() and each segment amount q_k <= breaks[k+1].
std::vector<DroppedBound> dropped_bounds(const AllocationFormulation& f,
                                         std::span<const SiteModel> sites) {
  std::vector<DroppedBound> out;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const SiteVars& v = f.vars[i];
    const lp::PiecewiseAffine& curve = sites[i].cost_curve;
    out.push_back({v.lambda, sites[i].lambda_max / kLambdaScale});
    out.push_back({v.power, sites[i].power_cap_mw});
    out.push_back({v.cost.x, curve.breaks.back()});
    for (std::size_t k = 0; k < v.cost.amounts.size(); ++k)
      out.push_back({v.cost.amounts[k], curve.breaks[k + 1]});
  }
  return out;
}

// ---- shape -----------------------------------------------------------------

/// Expects every finite upper bound of the formulation over `models` to be
/// on a binary, and every site to have exactly 1 + m of them (its
/// activation y and the selectors z_k of its m-segment cost curve).
void expect_only_binaries_bounded(std::span<const SiteModel> models,
                                  const std::string& tag) {
  const AllocationFormulation f = build_allocation_formulation(models);
  int finite = 0;
  for (const lp::Variable& v : f.problem.variables()) {
    if (v.upper == lp::kInfinity) continue;
    ++finite;
    EXPECT_TRUE(v.is_integer) << tag << ": " << v.name;
  }
  int binaries = 0;
  for (const SiteModel& m : models)
    binaries += 1 + static_cast<int>(m.cost_curve.num_segments());
  EXPECT_EQ(finite, binaries) << tag;
}

TEST(ImpliedBoundsTest, OnlyTheBinariesOfAHomogeneousSiteKeepABound) {
  // Every site family production builds: the Cost Capping model with and
  // without cooling at every policy level, masked by availability, the
  // Min-Only beliefs, and a down site. The binaries' bounds reach the arena
  // as column bounds (nonbasic at 0 or at 1), not as rows, so every row of
  // the tableau is a row of the formulation.
  const auto sites = datacenter::paper_datacenters();
  for (int level = 0; level <= 3; ++level) {
    const auto policies = market::paper_policies(level);
    for (std::size_t i = 0; i < sites.size(); ++i) {
      for (const bool cooling : {true, false}) {
        for (const double demand : {0.0, 190.0, 230.0, 260.0, 310.0}) {
          const std::string tag = "level " + std::to_string(level) +
                                  " site " + std::to_string(i) + " cooling " +
                                  std::to_string(cooling) + " at " +
                                  std::to_string(demand) + " MW";
          std::vector<SiteModel> model = {
              make_site_model(sites[i], policies[i], demand, cooling)};
          expect_only_binaries_bounded(model, tag);
          model[0].lambda_max = 0.0;
          expect_only_binaries_bounded(model, "masked " + tag);
        }
      }
    }
    for (const auto belief : {MinOnlyPriceModel::kAverage,
                              MinOnlyPriceModel::kLow})
      expect_only_binaries_bounded(
          min_only_site_models(sites, policies, belief),
          "min-only level " + std::to_string(level));
  }
  const std::vector<SiteModel> down = {down_model()};
  expect_only_binaries_bounded(down, "down");
}

// ---- premise ---------------------------------------------------------------

void expect_curve_within_cap(const SiteModel& m, const std::string& tag) {
  EXPECT_LE(m.cost_curve.breaks.back(), m.power_cap_mw) << tag;
}

TEST(ImpliedBoundsTest, EveryCostCurveEndsAtOrBelowThePowerCap) {
  // power <= Ps is implied by power = x <= breaks.back() only while the
  // curve ends at or below Ps. Check every family production builds.
  const auto paper = datacenter::paper_datacenters();
  // The fleet catalog: bench/fleet_sweep's 100 sites cycle the paper's.
  std::vector<datacenter::DataCenter> fleet;
  while (fleet.size() < 100) fleet.push_back(paper[fleet.size() % 3]);

  for (int level = 0; level <= 3; ++level) {
    const auto policies = market::paper_policies(level);
    for (const bool cooling : {true, false}) {
      for (double d = 0.0; d <= 400.0; d += 2.5) {
        for (std::size_t i = 0; i < paper.size(); ++i) {
          const std::string tag = "level " + std::to_string(level) +
                                  " site " + std::to_string(i) + " d " +
                                  std::to_string(d);
          SiteModel m = make_site_model(paper[i], policies[i], d, cooling);
          expect_curve_within_cap(m, tag);
          // Availability masking zeroes lambda_max and keeps the curve.
          m.lambda_max = 0.0;
          expect_curve_within_cap(m, "masked " + tag);
        }
      }
    }
    for (std::size_t i = 0; i < fleet.size(); ++i)
      expect_curve_within_cap(
          make_site_model(fleet[i], policies[i % 3], 180.0),
          "fleet site " + std::to_string(i));
    for (const auto belief : {MinOnlyPriceModel::kAverage,
                              MinOnlyPriceModel::kLow})
      for (const SiteModel& m : min_only_site_models(paper, policies, belief))
        expect_curve_within_cap(m, "min-only level " + std::to_string(level));
  }

  // The closed loop's re-derived local curves.
  const market::CoupledMarket market = market::CoupledMarket::paper();
  const std::vector<double> background = {228.0, 182.0, 172.0};
  const std::vector<double> cap = {62.0, 62.0, 62.0};
  for (const double draw : {0.0, 20.0, 40.0}) {
    const std::vector<double> power(3, draw);
    const auto derived = market.derive_local_policies(
        power, background, background, cap, market::ClosedLoopOptions{},
        nullptr);
    for (std::size_t i = 0; i < paper.size(); ++i)
      expect_curve_within_cap(
          make_site_model(paper[i], derived[i], background[i]),
          "coupled site " + std::to_string(i));
  }
}

TEST(ImpliedBoundsTest, ADownSiteIsPinnedToZeroPowerByItsPowerLink) {
  // A down site's curve ends at 1e-6 MW, above its zero cap; its
  // power_link (power = 0 * lambda + 0 * y) pins power to 0 instead.
  const std::vector<SiteModel> down = {down_model()};
  ASSERT_GT(down[0].cost_curve.breaks.back(), down[0].power_cap_mw);
  AllocationFormulation f = build_allocation_formulation(down);
  f.problem.set_sense(lp::Sense::kMaximize);
  f.problem.set_objective(f.vars[0].power, 1.0);
  f.problem.set_objective(f.vars[0].cost.x, 1.0);
  lp::ArenaSolver solver;
  const lp::Solution s = solver.solve(f.problem);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.objective, 0.0);

  // The capper's own down model, through decide(): site 1 draws nothing.
  const auto sites = datacenter::paper_datacenters();
  const auto policies = market::paper_policies(1);
  const BillCapper capper(sites, policies);
  const std::vector<std::uint8_t> available = {1, 0, 1};
  DecideOptions overrides;
  overrides.site_available = available;
  const std::vector<double> demand = {228.0, 182.0, 172.0};
  for (const double budget : {1e7, 2e4}) {
    const CappingOutcome out =
        capper.decide(3e11, 2e11, demand, budget, overrides);
    ASSERT_EQ(out.allocation.sites.size(), 3u);
    EXPECT_EQ(out.allocation.sites[1].power_mw, 0.0) << budget;
    EXPECT_EQ(out.allocation.sites[1].lambda, 0.0) << budget;
  }
}

// ---- differential ----------------------------------------------------------

/// A seeded allocation instance: two to five sites drawn from every model
/// family (cooling on or off, any policy level, Min-Only beliefs, masked
/// and down sites), a demand and a budget.
struct Instance {
  std::vector<SiteModel> models;
  double lambda = 0.0;  ///< requests/hour
  double budget = 0.0;  ///< $ for the hour
};

Instance random_instance(util::Rng& rng) {
  const auto paper = datacenter::paper_datacenters();
  const auto policies =
      market::paper_policies(static_cast<int>(rng.below(4)));
  Instance inst;
  const std::size_t n = 2 + rng.below(4);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = i % paper.size();
    const double demand = rng.uniform(0.0, 350.0);
    const double family = rng.uniform();
    SiteModel m;
    if (family < 0.08) {
      m = down_model();
    } else if (family < 0.18) {
      m = min_only_site_models(paper, policies,
                               rng.bernoulli(0.5) ? MinOnlyPriceModel::kAverage
                                                  : MinOnlyPriceModel::kLow)[s];
    } else {
      m = make_site_model(paper[s], policies[s], demand, rng.bernoulli(0.8));
      if (rng.bernoulli(0.1)) m.lambda_max = 0.0;
    }
    inst.models.push_back(std::move(m));
  }
  inst.lambda = rng.uniform(0.0, 1.05) * system_capacity(inst.models);
  inst.budget = rng.uniform(0.0, 6e4);
  return inst;
}

/// Solves `lean` and the same problem with every dropped bound re-added:
/// same status, objectives within 1e-9 (relative above 1), and the lean
/// solution inside the re-added bounds to within 1e-9.
void expect_bounds_change_nothing(const lp::Problem& lean,
                                  std::span<const DroppedBound> dropped,
                                  const std::string& tag) {
  lp::Problem bounded = lean;
  for (const DroppedBound& b : dropped)
    bounded.set_bounds(b.var, 0.0, b.upper);
  lp::ArenaSolver solver;
  const lp::Solution got = solver.solve(lean);
  const lp::Solution want = solver.solve(bounded);
  ASSERT_EQ(got.status, want.status) << tag;
  if (!got.ok()) return;
  EXPECT_NEAR(got.objective, want.objective,
              1e-9 * std::max(1.0, std::abs(want.objective)))
      << tag;
  for (const DroppedBound& b : dropped)
    EXPECT_LE(got.x[static_cast<std::size_t>(b.var)], b.upper + 1e-9)
        << tag << ": " << lean.variable(b.var).name;
}

TEST(ImpliedBoundsTest, ReAddingTheDroppedBoundsMovesNoOptimum) {
  // 240 seeded instances, each solved as the cost minimization and the
  // throughput maximization. The problems built here are checked against
  // the production entry points first, so the corpus solves what they do.
  util::Rng rng(0x1b0d5);
  const OptimizerOptions options;
  int optimal = 0;
  for (int k = 0; k < 240; ++k) {
    const Instance inst = random_instance(rng);
    const std::string tag = "instance " + std::to_string(k);
    const AllocationFormulation base =
        build_allocation_formulation(inst.models);
    const std::vector<DroppedBound> dropped = dropped_bounds(base, inst.models);

    const lp::Problem cost = min_cost_problem(base, inst.lambda);
    const lp::Problem served =
        throughput_problem(base, inst.models, inst.lambda, inst.budget);
    lp::ArenaSolver solver;
    const AllocationResult cost_here =
        decode_solution(base, inst.models, solver.solve(cost));
    const AllocationResult served_here =
        decode_solution(base, inst.models, solver.solve(served));
    const AllocationResult cost_prod =
        minimize_cost_over_models(inst.models, inst.lambda, options);
    const AllocationResult served_prod = maximize_throughput_over_models(
        inst.models, inst.lambda, inst.budget, options);
    ASSERT_EQ(cost_here.status, cost_prod.status) << tag;
    EXPECT_EQ(cost_here.predicted_cost, cost_prod.predicted_cost) << tag;
    ASSERT_EQ(served_here.status, served_prod.status) << tag;
    EXPECT_EQ(served_here.total_lambda, served_prod.total_lambda) << tag;

    expect_bounds_change_nothing(cost, dropped, "cost-min " + tag);
    expect_bounds_change_nothing(served, dropped, "throughput-max " + tag);
    optimal += (cost_here.ok() ? 1 : 0) + (served_here.ok() ? 1 : 0);
  }
  // Most instances must reach an optimum, or the comparison shows little.
  EXPECT_GT(optimal, 400);
}

/// The 5 sites of a region-hour of perfbench's fleet_month at seed 7
/// (hour 185, region 14).
std::vector<SiteModel> seed7_chunk_models() {
  const auto site = [](double lambda_max, double slope, double intercept,
                       double cap, std::vector<double> breaks,
                       std::vector<double> prices) {
    SiteModel m;
    m.lambda_max = lambda_max;
    m.power_slope = slope;
    m.power_intercept_mw = intercept;
    m.power_cap_mw = cap;
    m.cost_curve.breaks = std::move(breaks);
    m.cost_curve.intercepts.assign(prices.size(), 0.0);
    m.cost_curve.slopes = std::move(prices);
    return m;
  };
  return {
      site(0x1.1de3d26be538dp+38, 0x1.e6a2bd5c79a3ap-33,
           0x1.f53825e13b18ep-13, 0x1.0fba5e353f7cfp+6,
           {0x0p+0, 0x1.6fae44d4e585p+4, 0x1.a30a559da5f5cp+5,
            0x1.0fba5e353f7cfp+6},
           {0x1.ep+3, 0x1.8p+4, 0x1.ep+4}),
      site(0x1.666387fa53905p+39, 0x1.9b075264ef4acp-34,
           0x1.ff8b28449b294p-13, 0x1.1fb645a1cac08p+6,
           {0x0p+0, 0x1.c4b4083307438p+4, 0x1.0660353ff5042p+6,
            0x1.1fb645a1cac08p+6},
           {0x1.4p+3, 0x1.7p+3, 0x1.ap+3}),
      site(0x1.eca3583b453aep+38, 0x1.5cdaf2b504cf5p-34,
           0x1.2b6cc4b532a2ep-13, 0x1.4fa9fbe76c8b4p+5,
           {0x0p+0, 0x1.b0bd34c43bfcp+1, 0x1.457239b2aa264p+5,
            0x1.4fa9fbe76c8b4p+5},
           {0x1.4p+3, 0x1.bcccccccccccdp+3, 0x1.ep+3}),
      site(0x1.1de3d26be538dp+38, 0x1.e6a2bd5c79a3ap-33,
           0x1.f53825e13b18ep-13, 0x1.0fba5e353f7cfp+6,
           {0x0p+0, 0x1.a301bcff64dp+0, 0x1.377e744e618dp+5,
            0x1.0fba5e353f7cfp+6},
           {0x1.4p+3, 0x1.ep+3, 0x1.8p+4}),
      site(0x1.666387fa53905p+39, 0x1.9b075264ef4acp-34,
           0x1.ff8b28449b294p-13, 0x1.1fb645a1cac08p+6,
           {0x0p+0, 0x1.49cf546681ebcp+5, 0x1.1fb645a1cac08p+6},
           {0x1.4p+3, 0x1.7p+3}),
  };
}

/// That region-hour's demand, requests/hour.
constexpr double kSeed7ChunkLambda = 0x1.d970754d176c2p+38;

TEST(ImpliedBoundsTest, AFleetChunkThatOnceLoopedClosesWithinItsNodeBudget) {
  // A 5-site region-hour of perfbench's fleet_month at seed 7 (hour 185,
  // region 14). On the lean formulation a warm node repair pivoted on
  // 1.04e-7 and left the resident tableau inconsistent; every later warm
  // node re-branched on an already fixed selector until the chunk's
  // 20,000-node budget ran out. Warm answers that break a row are now
  // re-solved cold, and the search closes at the optimum the bounded
  // formulation finds.
  const std::vector<SiteModel> models = seed7_chunk_models();
  const AllocationFormulation base = build_allocation_formulation(models);
  const lp::Problem cost = min_cost_problem(base, kSeed7ChunkLambda);
  lp::MilpOptions budget;
  budget.max_nodes = 20'000;  // the fleet's per-chunk deadline
  lp::ArenaSolver solver;
  const lp::Solution got = solver.solve(cost, budget);
  ASSERT_EQ(got.status, lp::SolveStatus::kOptimal);
  EXPECT_LT(got.nodes, 1'000);
  expect_bounds_change_nothing(cost, dropped_bounds(base, models), "seed 7");
  // No warm verdict prunes the optimum away: the search ends where the
  // reference branch-and-bound does.
  const lp::Solution want = lp::solve_milp_reference(cost);
  ASSERT_EQ(want.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(got.objective, want.objective,
              1e-9 * std::max(1.0, std::abs(want.objective)));
}

/// Logical tableau bytes of `problem` with one row per constraint and no
/// bound row: (constraints + 1) rows of structurals + slacks + artificials
/// + 1 doubles, the cost row included. Every variable must have a finite
/// lower bound (one structural column each). A row whose rhs is negative
/// is flipped first, as the arena flips it; a >= or = row then takes an
/// artificial, and every row but an = row a slack.
std::size_t rows_only_tableau_bytes(const lp::Problem& problem) {
  std::size_t slacks = 0;
  std::size_t artificials = 0;
  for (const lp::Variable& v : problem.variables()) {
    EXPECT_EQ(v.lower, 0.0) << v.name;
  }
  for (const lp::Constraint& c : problem.constraints()) {
    lp::Relation rel = c.relation;
    if (c.rhs < 0.0 && rel != lp::Relation::kEqual)
      rel = rel == lp::Relation::kLessEqual ? lp::Relation::kGreaterEqual
                                            : lp::Relation::kLessEqual;
    if (rel != lp::Relation::kEqual) ++slacks;
    if (rel != lp::Relation::kLessEqual) ++artificials;
  }
  const std::size_t width =
      static_cast<std::size_t>(problem.num_variables()) + slacks +
      artificials + 1;
  return (static_cast<std::size_t>(problem.num_constraints()) + 1) * width *
         sizeof(double);
}

TEST(ImpliedBoundsTest, AFleetChunkFitsATableauWithNoBoundRows) {
  // The byte cap counts the logical tableau. A cap of exactly one row per
  // constraint, no bound row, plus the first 1,024-slot node pool (40
  // bytes a slot) fits the seed-7 fleet chunk: its 19 binaries' bounds
  // cost no row and no slack column. The same chunk with those bounds as
  // rows (the binaries relaxed to continuous [0, 1]) is over that cap.
  const std::vector<SiteModel> models = seed7_chunk_models();
  const AllocationFormulation base = build_allocation_formulation(models);
  const lp::Problem cost = min_cost_problem(base, kSeed7ChunkLambda);
  lp::Problem relaxed = cost;
  int binaries = 0;
  for (int j = 0; j < cost.num_variables(); ++j) {
    if (cost.variable(j).upper == lp::kInfinity) continue;
    ++binaries;
    relaxed.set_integer(j, false);
  }
  ASSERT_EQ(binaries, 19);
  lp::MilpOptions capped;
  capped.max_nodes = 20'000;
  capped.max_arena_bytes = rows_only_tableau_bytes(cost) + 1024 * 40;
  lp::ArenaSolver solver;
  const lp::Solution got = solver.solve(cost, capped);
  ASSERT_NE(got.status, lp::SolveStatus::kArenaExhausted);
  ASSERT_EQ(got.status, lp::SolveStatus::kOptimal);
  lp::ArenaSolver fresh;
  EXPECT_EQ(got.objective, fresh.solve(cost).objective);

  lp::ArenaSolver with_rows;
  EXPECT_EQ(with_rows.solve(relaxed, capped).status,
            lp::SolveStatus::kArenaExhausted);
}

}  // namespace
}  // namespace billcap::core
