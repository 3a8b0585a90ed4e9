// The local step-curve derivation of the closed loop, proved against the
// linear own-draw sweep it replaces. CoupledMarket::derive_local_policies
// solves the DC-OPF cold at draw 0, walks the site's balance-row rhs on
// the same tableau to find where the LMP moves, and confirms each move
// with one cold solve at the grid draw it lands on; that is exact only
// because a bus's LMP is monotone in its own load and changes only with
// the optimal basis. This suite holds:
//
//   - the differential: reference_sweep_policies (the linear sweep, kept
//     here as the oracle) and the walk return bitwise-identical
//     thresholds and prices over a few hundred seeded operating points,
//     both feedback gains, 2 MW and irregular grid steps, line outages,
//     derates and bus demand shocks, and throw the same error naming the
//     same first infeasible draw;
//   - the cost: per site, cold solves are at most 1 + new levels + refused
//     walk pivots;
//   - the walk's edge paths: a breakpoint exactly on a grid draw (either
//     side may price there), a price move at the start draw, and an
//     infeasible tail whose boundary is or is not a grid draw;
//   - the precondition: on PJM5 the LMP at each site's bus never falls as
//     that site's draw rises on a fine grid, with and without a derate;
//   - the guards and edge cases: a non-positive price tolerance is
//     rejected, a zero cap gives a one-level curve, an empty grid fails,
//     and a grid whose last draw is a price step keeps that step.

#include "market/closed_loop.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "lp/arena_solver.hpp"
#include "util/rng.hpp"

namespace billcap::market {
namespace {

/// The linear sweep: one OPF at every grid draw of site i's own load,
/// collapsing the LMP series into steps whenever the price moves more than
/// price_tol off the current level.
std::vector<PricingPolicy> reference_sweep_policies(
    const CoupledMarket& market, std::span<const double> site_power_mw,
    std::span<const double> background_mw,
    std::span<const double> billing_base_mw,
    std::span<const double> sweep_cap_mw, const ClosedLoopOptions& options,
    const CoupledHourFaults* faults) {
  const std::size_t n = market.num_sites();
  const double step = std::max(0.1, options.sweep_step_mw);
  std::vector<PricingPolicy> policies;
  std::vector<double> point(site_power_mw.begin(), site_power_mw.end());
  for (std::size_t i = 0; i < n; ++i) {
    const double kept = point[i];
    std::vector<double> thresholds;
    std::vector<double> prices;
    for (double p = 0.0; p <= sweep_cap_mw[i] + 1e-9; p += step) {
      point[i] = p;
      const DcOpfResult opf =
          market.solve_at(point, background_mw, options.feedback_gain, faults);
      if (!opf.ok())
        throw std::runtime_error(
            "CoupledMarket: OPF infeasible sweeping site " + std::to_string(i) +
            " at draw " + std::to_string(p) + " MW");
      const double lmp = opf.lmp[static_cast<std::size_t>(market.site_buses()[i])];
      if (thresholds.empty()) {
        thresholds.push_back(0.0);
        prices.push_back(lmp);
      } else if (std::abs(lmp - prices.back()) > options.price_tol) {
        thresholds.push_back(billing_base_mw[i] + p);
        prices.push_back(lmp);
      }
    }
    point[i] = kept;
    policies.emplace_back(std::move(thresholds), std::move(prices));
  }
  return policies;
}

/// One derivation request: the operating point, the hour's hazards and the
/// loop options.
struct CurveCase {
  std::vector<double> power, background, base, cap;
  ClosedLoopOptions options;
  CoupledHourFaults faults;
};

/// What a derivation produced: the curves, or the error it threw.
struct Derived {
  std::vector<PricingPolicy> policies;
  std::optional<std::string> error;
};

template <class Derive>
Derived capture(Derive derive) {
  Derived out;
  try {
    out.policies = derive();
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  return out;
}

Derived by_sweep(const CoupledMarket& market, const CurveCase& c) {
  return capture([&] {
    return reference_sweep_policies(market, c.power, c.background, c.base,
                                    c.cap, c.options, &c.faults);
  });
}

Derived by_walk(const CoupledMarket& market, const CurveCase& c) {
  return capture([&] {
    return market.derive_local_policies(c.power, c.background, c.base, c.cap,
                                        c.options, &c.faults);
  });
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k)
    if (std::bit_cast<std::uint64_t>(a[k]) != std::bit_cast<std::uint64_t>(b[k]))
      return false;
  return true;
}

void expect_identical(const Derived& want, const Derived& got,
                      const std::string& tag) {
  ASSERT_EQ(want.error, got.error) << tag;
  ASSERT_EQ(want.policies.size(), got.policies.size()) << tag;
  for (std::size_t i = 0; i < want.policies.size(); ++i) {
    EXPECT_TRUE(bits_equal(want.policies[i].thresholds_mw(),
                           got.policies[i].thresholds_mw()))
        << tag << ": site " << i << " thresholds differ";
    EXPECT_TRUE(bits_equal(want.policies[i].prices_per_mwh(),
                           got.policies[i].prices_per_mwh()))
        << tag << ": site " << i << " prices differ";
  }
}

/// A seeded operating point on PJM5 with background demand around the
/// paper's levels, draws up to a site's full power, and per-seed hazards.
CurveCase random_case(const CoupledMarket& market, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t n = market.num_sites();
  const int lines = market.grid().num_lines();
  const int buses = market.grid().num_buses();
  CurveCase c;
  c.options.feedback_gain = seed % 2 == 0 ? 1.0 : 4.0;
  // Mostly the production 2 MW grid; the rest use steps with no exact
  // binary form, where an accumulated draw and k * step part in the last
  // bit.
  if (rng.below(3) == 0) c.options.sweep_step_mw = rng.uniform(0.5, 3.0);
  for (std::size_t i = 0; i < n; ++i) {
    c.cap.push_back(rng.uniform(10.0, 70.0));
    c.power.push_back(rng.uniform(0.0, c.cap.back()));
    c.background.push_back(rng.uniform(140.0, 330.0));
  }
  c.base = c.background;
  if (rng.below(3) == 0) {
    c.faults.line_out.assign(static_cast<std::size_t>(lines), 0);
    c.faults.line_out[rng.below(static_cast<std::uint64_t>(lines))] = 1;
  }
  if (rng.below(2) == 0) {
    // Only D-E (line 5) has a finite limit; derating any other line must
    // be the no-op the fault model promises.
    c.faults.line_limit_factor.assign(static_cast<std::size_t>(lines), 1.0);
    const std::size_t line = rng.below(3) == 0
                                 ? rng.below(static_cast<std::uint64_t>(lines))
                                 : 5;
    c.faults.line_limit_factor[line] = rng.uniform(0.3, 0.95);
  }
  if (rng.below(3) == 0) {
    c.faults.bus_demand_multiplier.assign(static_cast<std::size_t>(buses), 1.0);
    c.faults.bus_demand_multiplier[rng.below(static_cast<std::uint64_t>(buses))] =
        rng.uniform(1.0, 1.7);
  }
  return c;
}

TEST(LocalCurveTest, WalkMatchesLinearSweepBitwise) {
  const CoupledMarket market = CoupledMarket::paper();
  constexpr std::uint64_t kCases = 240;
  std::size_t stepped = 0;     // a site's curve has at least two levels
  std::size_t infeasible = 0;  // both paths threw
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    const CurveCase c = random_case(market, seed);
    const Derived want = by_sweep(market, c);
    const Derived got = by_walk(market, c);
    expect_identical(want, got, "seed " + std::to_string(seed));
    if (want.error) ++infeasible;
    for (const PricingPolicy& policy : want.policies)
      if (policy.num_levels() > 1) {
        ++stepped;
        break;
      }
  }
  // The draw must exercise the interesting regimes, not only flat curves.
  EXPECT_GE(stepped, kCases / 4) << "too few cases with a price step";
  EXPECT_GT(infeasible, 0u) << "no case reached an infeasible grid draw";
  EXPECT_LT(infeasible, kCases / 4) << "too many infeasible cases";
}

TEST(LocalCurveTest, GridEndingOnAPriceStepMatches) {
  // Every price step of the seeded curves becomes the last grid draw once
  // the cap is cut back to it: the step the walk must still find
  // when nothing lies beyond it, including steps one index apart.
  const CoupledMarket market = CoupledMarket::paper();
  std::size_t cut = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const CurveCase c = random_case(market, seed);
    const Derived full = by_sweep(market, c);
    for (std::size_t i = 0; i < full.policies.size(); ++i) {
      const std::vector<double>& thresholds = full.policies[i].thresholds_mw();
      for (std::size_t k = 1; k < thresholds.size(); ++k) {
        CurveCase truncated = c;
        truncated.cap[i] = thresholds[k] - c.base[i];
        expect_identical(by_sweep(market, truncated),
                         by_walk(market, truncated),
                         "seed " + std::to_string(seed) + " site " +
                             std::to_string(i) + " step " + std::to_string(k));
        ++cut;
      }
    }
  }
  EXPECT_GT(cut, 50u);
}

TEST(LocalCurveTest, GridTurningInfeasiblePartWayNamesTheSameFirstDraw) {
  // 1390.5 MW of load before site 0 draws anything: with 1530 MW of
  // generation behind the D-E limit, the OPF turns infeasible part-way up
  // site 0's 200 MW grid, first at the 120 MW draw.
  const CoupledMarket market = CoupledMarket::paper();
  CurveCase c;
  c.background = {450.0, 450.0, 450.0};
  c.base = c.background;
  c.power = {0.0, 20.5, 20.0};
  c.cap = {200.0, 40.0, 40.0};
  const Derived want = by_sweep(market, c);
  const Derived got = by_walk(market, c);
  ASSERT_TRUE(want.error.has_value());
  EXPECT_EQ(want.error, got.error);
  EXPECT_NE(want.error->find("site 0 at draw 120.000000 MW"), std::string::npos)
      << *want.error;
}

TEST(LocalCurveTest, LmpNeverFallsAsOwnDrawRises) {
  // The walk's precondition: the OPF cost is convex in one bus's load, so
  // the balance-row dual there is monotone in that site's draw. Checked on
  // a fine grid across load levels that cross Brighton's capacity and the
  // D-E limit, with and without that line derated.
  const CoupledMarket market = CoupledMarket::paper();
  const std::size_t lines = static_cast<std::size_t>(market.grid().num_lines());
  CoupledHourFaults derated;
  derated.line_limit_factor.assign(lines, 1.0);
  derated.line_limit_factor[5] = 0.5;
  std::size_t rises = 0;
  for (const CoupledHourFaults* faults : {static_cast<const CoupledHourFaults*>(nullptr),
                                          static_cast<const CoupledHourFaults*>(&derated)}) {
    for (double level : {150.0, 200.0, 250.0, 300.0}) {
      const std::vector<double> background(market.num_sites(), level);
      for (std::size_t i = 0; i < market.num_sites(); ++i) {
        std::vector<double> point(market.num_sites(), 20.0);
        const std::size_t bus = static_cast<std::size_t>(market.site_buses()[i]);
        double previous = -std::numeric_limits<double>::infinity();
        for (int k = 0; k <= 480; ++k) {
          point[i] = 0.25 * k;
          const DcOpfResult opf = market.solve_at(point, background, 1.0, faults);
          ASSERT_TRUE(opf.ok());
          const double lmp = opf.lmp[bus];
          ASSERT_GE(lmp, previous - 1e-9)
              << "site " << i << " at draw " << point[i] << " MW, level "
              << level << (faults ? ", derated" : "");
          if (lmp > previous + 1e-9 && k > 0) ++rises;
          previous = lmp;
        }
      }
    }
  }
  EXPECT_GT(rises, 0u) << "no price step crossed: the check is vacuous";
}

CurveCase nominal_case() {
  CurveCase c;
  c.background = {228.0, 182.0, 172.0};
  c.base = c.background;
  c.power = {30.0, 25.0, 20.0};
  c.cap = {62.0, 62.0, 62.0};
  return c;
}

TEST(LocalCurveTest, NonPositivePriceToleranceIsRejected) {
  const CoupledMarket market = CoupledMarket::paper();
  CurveCase c = nominal_case();
  for (double tol : {0.0, -0.05, std::numeric_limits<double>::quiet_NaN()}) {
    c.options.price_tol = tol;
    EXPECT_THROW(market.derive_local_policies(c.power, c.background, c.base,
                                              c.cap, c.options, nullptr),
                 std::invalid_argument)
        << "price_tol " << tol;
  }
}

TEST(LocalCurveTest, ZeroCapGivesTheOneLevelCurveAtZeroDraw) {
  const CoupledMarket market = CoupledMarket::paper();
  CurveCase c = nominal_case();
  c.options.feedback_gain = 4.0;
  c.cap = {0.0, 0.0, 0.0};
  const Derived want = by_sweep(market, c);
  const Derived got = by_walk(market, c);
  expect_identical(want, got, "zero cap");
  ASSERT_EQ(got.policies.size(), 3u);
  for (const PricingPolicy& policy : got.policies) {
    EXPECT_EQ(policy.num_levels(), 1u);
    EXPECT_EQ(policy.thresholds_mw().front(), 0.0);
  }
}

TEST(LocalCurveTest, EmptyGridIsRejectedLikeTheSweep) {
  // A negative cap leaves no grid draw at all; the empty curve is not a
  // valid PricingPolicy on either path.
  const CoupledMarket market = CoupledMarket::paper();
  CurveCase c = nominal_case();
  c.cap = {62.0, -1.0, 62.0};
  EXPECT_THROW(by_sweep(market, c), std::invalid_argument);
  EXPECT_THROW(by_walk(market, c), std::invalid_argument);
}

TEST(LocalCurveTest, GridEndingExactlyOnTheCapMatches) {
  // 62 MW is a whole number of 2 MW steps, so the last grid draw is the
  // cap itself; 61.9 MW stops one step short. Both boundaries, both gains.
  const CoupledMarket market = CoupledMarket::paper();
  for (double gain : {1.0, 4.0}) {
    for (double cap : {62.0, 61.9}) {
      CurveCase c = nominal_case();
      c.options.feedback_gain = gain;
      c.cap = {cap, cap, cap};
      expect_identical(by_sweep(market, c), by_walk(market, c),
                       "gain " + std::to_string(gain) + " cap " +
                           std::to_string(cap));
    }
  }
}

TEST(LocalCurveTest, WalkSolvesColdOnceAtDrawZeroAndOncePerLevel) {
  // Site by site (the other sites' grids cut to their single zero draw,
  // one cold solve each), over the differential corpus: every cold solve
  // beyond the start must open a new level or follow a refused pivot.
  const CoupledMarket market = CoupledMarket::paper();
  const std::size_t n = market.num_sites();
  long sweeps = 0, cold = 0, levels = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    const CurveCase c = random_case(market, seed);
    for (std::size_t i = 0; i < n; ++i) {
      CurveCase one = c;
      for (std::size_t j = 0; j < n; ++j)
        if (j != i) one.cap[j] = 0.0;
      lp::ArenaSolver solver;
      std::vector<PricingPolicy> policies;
      try {
        policies = market.derive_local_policies(one.power, one.background,
                                                one.base, one.cap, one.options,
                                                &one.faults, solver);
      } catch (const std::runtime_error&) {
        continue;  // an infeasible tail ends the sweep early
      }
      const long site_cold = solver.stats().cold_solves - static_cast<long>(n - 1);
      const long new_levels = static_cast<long>(policies[i].num_levels()) - 1;
      EXPECT_LE(site_cold, 1 + new_levels + solver.stats().range_refusals)
          << "seed " << seed << " site " << i;
      ++sweeps;
      cold += site_cold;
      levels += new_levels;
    }
  }
  ASSERT_GT(sweeps, 600);
  EXPECT_GT(levels, sweeps / 4) << "too few price steps to mean anything";
  EXPECT_LT(static_cast<double>(cold) / static_cast<double>(sweeps), 3.0);
}

/// PJM5 with D-E out: no thermal limit is left, so every price step sits
/// where total load crosses a generator stack capacity (600, 710, 810,
/// 1330 MW) and integer loads put it on an integer draw.
CurveCase uncongested_case(std::vector<double> background,
                           std::vector<double> power, double cap) {
  CurveCase c;
  c.background = std::move(background);
  c.base = c.background;
  c.power = std::move(power);
  c.cap = {cap, 0.0, 0.0};
  c.faults.line_out.assign(6, 0);
  c.faults.line_out[5] = 1;
  return c;
}

/// Where the walk from site 0's draw 0 sees basis changes up to just past
/// its cap, solved on the DC-OPF model the derivation uses.
std::vector<lp::RhsBreakpoint> site0_breakpoints(const CoupledMarket& market,
                                                 const CurveCase& c) {
  Grid grid;
  for (int b = 0; b < market.grid().num_buses(); ++b)
    grid.add_bus(market.grid().bus_name(b));
  for (int l = 0; l < market.grid().num_lines(); ++l) {
    if (c.faults.line_out[static_cast<std::size_t>(l)]) continue;
    const Line& line = market.grid().line(l);
    grid.add_line(line.name, line.from_bus, line.to_bus, line.reactance,
                  line.limit_mw);
  }
  for (const Generator& g : market.grid().generators())
    grid.add_generator(g.name, g.bus, g.capacity_mw, g.marginal_cost);
  std::vector<double> loads(5, 0.0);
  for (std::size_t i = 0; i < market.num_sites(); ++i)
    loads[static_cast<std::size_t>(market.site_buses()[i])] +=
        c.background[i] + (i == 0 ? 0.0 : c.power[i]);
  DcOpfModel model = build_dcopf_model(grid);
  set_dcopf_loads(model, grid, loads);
  lp::ArenaSolver solver;
  lp::RhsRange walk;
  const int row = model.balance_row[static_cast<std::size_t>(market.site_buses()[0])];
  solver.range_rhs(model.problem, row, 1.0, c.cap[0] + 1e-6, walk);
  return walk.breakpoints;
}

TEST(LocalCurveTest, BreakpointExactlyOnAGridDrawMatchesTheSweep) {
  // A price step whose breakpoint is a grid draw, where both adjacent
  // prices are optimal duals and the cold solve picks one. Brighton's
  // 600 MW filling at draw 50 (and at the last draw, 62) prices the old
  // side there, so the step shows one draw later or not at all;
  // Solitude's 1330 MW filling at draw 20 (also as the last draw) prices
  // the new side, so the step sits on the breakpoint itself.
  struct Tie {
    std::vector<double> background, power;
    double cap, at;
    std::size_t levels;
    double first_step;  // draw of the first step; 0 = none
  };
  const Tie ties[] = {
      {{200.0, 150.0, 150.0}, {0.0, 30.0, 20.0}, 62.0, 50.0, 2, 52.0},
      {{200.0, 150.0, 150.0}, {0.0, 18.0, 20.0}, 62.0, 62.0, 1, 0.0},
      {{990.0, 150.0, 150.0}, {0.0, 10.0, 10.0}, 62.0, 20.0, 2, 20.0},
      {{990.0, 150.0, 150.0}, {0.0, 10.0, 10.0}, 20.0, 20.0, 2, 20.0},
  };
  const CoupledMarket market = CoupledMarket::paper();
  for (const Tie& tie : ties) {
    const CurveCase c = uncongested_case(tie.background, tie.power, tie.cap);
    const std::string tag =
        "tie at " + std::to_string(tie.at) + ", cap " + std::to_string(tie.cap);
    const std::vector<lp::RhsBreakpoint> breaks = site0_breakpoints(market, c);
    ASSERT_FALSE(breaks.empty()) << tag;
    EXPECT_NEAR(breaks.front().t, tie.at, 1e-9) << tag << ": the tie";
    const Derived want = by_sweep(market, c);
    expect_identical(want, by_walk(market, c), tag);
    ASSERT_FALSE(want.error.has_value()) << tag;
    const std::vector<double>& thresholds = want.policies[0].thresholds_mw();
    ASSERT_EQ(thresholds.size(), tie.levels) << tag;
    if (tie.levels > 1) {
      EXPECT_EQ(thresholds[1], c.base[0] + tie.first_step) << tag;
    }
  }
}

TEST(LocalCurveTest, PriceMovingAtTheStartDrawMatchesTheSweep) {
  // 600 MW before site 0 draws: draw 0 itself is Brighton's breakpoint, so
  // the cold start sits on a degenerate vertex and the price moves at
  // t = 0+. Also the same breakpoint one grid draw up, and half a draw up,
  // where the step must land on the very next draw.
  const CoupledMarket market = CoupledMarket::paper();
  for (const double other : {50.0, 48.0, 49.0}) {
    const CurveCase c =
        uncongested_case({200.0, 150.0, 150.0}, {0.0, other, 50.0}, 40.0);
    const std::vector<lp::RhsBreakpoint> breaks = site0_breakpoints(market, c);
    ASSERT_FALSE(breaks.empty());
    EXPECT_NEAR(breaks.front().t, 50.0 - other, 1e-9);
    const Derived want = by_sweep(market, c);
    expect_identical(want, by_walk(market, c),
                     "start at " + std::to_string(other));
    ASSERT_FALSE(want.error.has_value());
    EXPECT_GE(want.policies[0].num_levels(), 2u);
  }
}

TEST(LocalCurveTest, InfeasibleTailNamesTheSweepsDraw) {
  // All 1530 MW of generation serve 1470 MW (or 1471 MW) before site 0
  // draws: the tail turns infeasible past draw 60, which is itself the
  // last feasible point (or past 59, between grid draws). The walk's
  // error must name the sweep's first infeasible draw, 62 or 60.
  const CoupledMarket market = CoupledMarket::paper();
  for (const double extra : {0.0, 1.0}) {
    const CurveCase c = uncongested_case({500.0, 480.0, 440.0 + extra},
                                         {0.0, 30.0, 20.0}, 100.0);
    const Derived want = by_sweep(market, c);
    const Derived got = by_walk(market, c);
    ASSERT_TRUE(want.error.has_value());
    EXPECT_EQ(want.error, got.error);
    const std::string draw = extra == 0.0 ? "62.000000" : "60.000000";
    EXPECT_NE(want.error->find("site 0 at draw " + draw + " MW"),
              std::string::npos)
        << *want.error;
  }
}

}  // namespace
}  // namespace billcap::market
