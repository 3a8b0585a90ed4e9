// The local step-curve derivation of the closed loop, held to the linear
// own-draw sweep as an oracle. CoupledMarket::derive_local_policies solves
// the DC-OPF cold at draw 0 and walks the site's balance-row rhs on the
// same tableau; each level opens at the exact draw where the walk's dual
// moves, priced by that dual. That is exact only because a bus's LMP is
// monotone in its own load and changes only with the optimal basis. This
// suite holds:
//
//   - the oracle: over a few hundred seeded operating points, both feedback
//     gains, 2 MW and irregular sweep steps, line outages, derates and bus
//     demand shocks, every level of reference_sweep_policies (the linear
//     sweep, kept here with its own step) is a walk level at a price equal
//     to 1e-9, whose threshold lies within one sweep step below the
//     sweep's; any other walk level is narrower than one step (the sweep
//     stepped over it); a cold OPF just below each walk threshold prices
//     the old level and one just above it the new level; and where the
//     sweep throws, the walk names the same site and a draw within one
//     step below the sweep's first infeasible draw;
//   - the cost: per site, one cold solve plus one per refused walk pivot;
//   - exactness: thresholds sit on the generator breakpoints, including a
//     price move at the start draw, and an infeasible tail is named at its
//     exact boundary;
//   - the precondition: on PJM5 the LMP at each site's bus never falls as
//     that site's draw rises on a fine grid, with and without a derate;
//   - the guards and edge cases: a non-positive price tolerance and a
//     negative or non-finite cap are rejected, and a zero cap gives a
//     one-level curve.

#include "market/closed_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

/// The linear sweep: one OPF at every grid draw 0, step, 2 step, ... of
/// site i's own load and at its cap, collapsing the LMP series into steps
/// whenever the price moves more than price_tol off the current level.
std::vector<PricingPolicy> reference_sweep_policies(
    const CoupledMarket& market, std::span<const double> site_power_mw,
    std::span<const double> background_mw,
    std::span<const double> billing_base_mw,
    std::span<const double> sweep_cap_mw, const ClosedLoopOptions& options,
    const CoupledHourFaults* faults, double step) {
  const std::size_t n = market.num_sites();
  std::vector<PricingPolicy> policies;
  std::vector<double> point(site_power_mw.begin(), site_power_mw.end());
  for (std::size_t i = 0; i < n; ++i) {
    const double kept = point[i];
    const double cap = sweep_cap_mw[i];
    if (!(cap >= 0.0)) throw std::invalid_argument("sweep: negative cap");
    std::vector<double> thresholds;
    std::vector<double> prices;
    for (double p = 0.0;; p = std::min(p + step, cap)) {
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
      if (p >= cap) break;
    }
    point[i] = kept;
    policies.emplace_back(std::move(thresholds), std::move(prices));
  }
  return policies;
}

/// One derivation request: the operating point, the hour's hazards, the
/// loop options and the reference sweep's grid step (MW).
struct CurveCase {
  std::vector<double> power, background, base, cap;
  ClosedLoopOptions options;
  CoupledHourFaults faults;
  double step = 2.0;
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
                                    c.cap, c.options, &c.faults, c.step);
  });
}

Derived by_walk(const CoupledMarket& market, const CurveCase& c) {
  return capture([&] {
    return market.derive_local_policies(c.power, c.background, c.base, c.cap,
                                        c.options, &c.faults);
  });
}

/// The draw a derivation error names ("... at draw X MW").
double named_draw(const std::string& error) {
  const std::size_t at = error.find(" at draw ");
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::stod(error.substr(at + 9));
}

/// Cold LMP at site i's bus with its own draw at `draw` and the other
/// sites at the case's operating point.
double cold_lmp(const CoupledMarket& market, const CurveCase& c, std::size_t i,
                double draw) {
  std::vector<double> point = c.power;
  point[i] = draw;
  const DcOpfResult opf =
      market.solve_at(point, c.background, c.options.feedback_gain, &c.faults);
  EXPECT_TRUE(opf.ok()) << "site " << i << " at draw " << draw;
  return opf.ok() ? opf.lmp[static_cast<std::size_t>(market.site_buses()[i])]
                  : std::numeric_limits<double>::quiet_NaN();
}

/// Holds the walk's answer `got` to the sweep's `want` for case `c`.
void expect_matches_sweep(const CoupledMarket& market, const CurveCase& c,
                          const Derived& want, const Derived& got,
                          const std::string& tag) {
  ASSERT_EQ(want.error.has_value(), got.error.has_value())
      << tag << ": sweep '" << want.error.value_or("") << "', walk '"
      << got.error.value_or("") << "'";
  if (want.error) {
    // Same site; the walk names the last feasible draw, which lies between
    // the sweep's last feasible grid draw and its first infeasible one.
    const std::string& w = *want.error;
    const std::string& g = *got.error;
    EXPECT_EQ(w.substr(0, w.find(" at draw ")), g.substr(0, g.find(" at draw ")))
        << tag;
    const double sweep_draw = named_draw(w);
    const double walk_draw = named_draw(g);
    EXPECT_LE(walk_draw, sweep_draw + 1e-6) << tag << ": " << g;
    EXPECT_GE(walk_draw, sweep_draw - c.step - 1e-6) << tag << ": " << g;
    return;
  }
  ASSERT_EQ(want.policies.size(), got.policies.size()) << tag;
  const double tol = c.options.price_tol;
  for (std::size_t i = 0; i < want.policies.size(); ++i) {
    const std::vector<double>& sweep_at = want.policies[i].thresholds_mw();
    const std::vector<double>& sweep_price = want.policies[i].prices_per_mwh();
    const std::vector<double>& walk_at = got.policies[i].thresholds_mw();
    const std::vector<double>& walk_price = got.policies[i].prices_per_mwh();
    const std::string site = tag + ": site " + std::to_string(i);
    std::size_t k = 0;  // the next sweep level to find in the walk
    for (std::size_t j = 0; j < walk_at.size(); ++j) {
      const std::string level = site + " level " + std::to_string(j);
      if (k < sweep_at.size() && std::abs(walk_price[j] - sweep_price[k]) <= 1e-9) {
        // The sweep sees a step at the first grid draw past the
        // breakpoint, or on it, so the exact threshold is at most one step
        // below.
        if (j > 0) {
          EXPECT_LE(walk_at[j], sweep_at[k] + 1e-9) << level;
          EXPECT_GE(walk_at[j], sweep_at[k] - c.step - 1e-9) << level;
        }
        ++k;
      } else {
        // A level the sweep stepped over must fit between two grid draws.
        ASSERT_GT(j, 0u) << level << ": the start prices differ";
        const double end =
            j + 1 < walk_at.size() ? walk_at[j + 1] : c.base[i] + c.cap[i];
        EXPECT_LT(end - walk_at[j], c.step) << level << " is not in the sweep";
      }
      if (j == 0) continue;
      const double draw = walk_at[j] - c.base[i];
      EXPECT_NEAR(cold_lmp(market, c, i, draw - 1e-6), walk_price[j - 1], tol)
          << level << ": just below";
      EXPECT_NEAR(cold_lmp(market, c, i, draw + 1e-6), walk_price[j], tol)
          << level << ": just above";
    }
    EXPECT_EQ(k, sweep_at.size()) << site << ": a sweep level is missing";
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
  // Mostly a 2 MW sweep; the rest use steps with no exact binary form.
  if (rng.below(3) == 0) c.step = rng.uniform(0.5, 3.0);
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
    expect_matches_sweep(market, c, want, got, "seed " + std::to_string(seed));
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

TEST(LocalCurveTest, GridTurningInfeasiblePartWayNamesTheSameFirstDraw) {
  // 1390.5 MW of load before site 0 draws anything: with 1530 MW of
  // generation behind the D-E limit, the OPF turns infeasible part-way up
  // site 0's 200 MW range, first at the sweep's 120 MW draw.
  const CoupledMarket market = CoupledMarket::paper();
  CurveCase c;
  c.background = {450.0, 450.0, 450.0};
  c.base = c.background;
  c.power = {0.0, 20.5, 20.0};
  c.cap = {200.0, 40.0, 40.0};
  const Derived want = by_sweep(market, c);
  const Derived got = by_walk(market, c);
  ASSERT_TRUE(want.error.has_value());
  EXPECT_NE(want.error->find("site 0 at draw 120.000000 MW"), std::string::npos)
      << *want.error;
  expect_matches_sweep(market, c, want, got, "part-way");
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
  expect_matches_sweep(market, c, want, got, "zero cap");
  ASSERT_EQ(got.policies.size(), 3u);
  for (const PricingPolicy& policy : got.policies) {
    EXPECT_EQ(policy.num_levels(), 1u);
    EXPECT_EQ(policy.thresholds_mw().front(), 0.0);
  }
}

TEST(LocalCurveTest, NegativeOrNonFiniteCapIsRejected) {
  // A cap must bound a draw range that starts at 0; the walk checks every
  // cap before any solve.
  const CoupledMarket market = CoupledMarket::paper();
  CurveCase c = nominal_case();
  c.cap = {62.0, -1.0, 62.0};
  EXPECT_THROW(by_sweep(market, c), std::invalid_argument);
  for (double bad : {-1.0, -1e-12, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    c.cap = {62.0, bad, 62.0};
    EXPECT_THROW(by_walk(market, c), std::invalid_argument) << "cap " << bad;
  }
}

TEST(LocalCurveTest, WalkSolvesColdOnceAtDrawZeroAndOncePerLevel) {
  // Site by site (the other sites' ranges cut to their zero draw, one cold
  // solve each), over the oracle corpus: a site's only cold solves are its
  // start at draw 0 and one restart per refused walk pivot, however many
  // levels its curve has.
  const CoupledMarket market = CoupledMarket::paper();
  const std::size_t n = market.num_sites();
  long sweeps = 0, levels = 0;
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
      EXPECT_EQ(solver.stats().cold_solves,
                static_cast<long>(n) + solver.stats().range_refusals)
          << "seed " << seed << " site " << i;
      ++sweeps;
      levels += static_cast<long>(policies[i].num_levels()) - 1;
    }
  }
  ASSERT_GT(sweeps, 600);
  EXPECT_GT(levels, sweeps / 4) << "too few price steps to mean anything";
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

TEST(LocalCurveTest, ThresholdsSitOnTheExactBreakpoints) {
  // Brighton's 600 MW filling at draw 50 and Solitude's 1330 MW filling at
  // draw 20: each is a price step at that exact draw, not at the next
  // 2 MW grid draw.
  struct Step {
    std::vector<double> background, power;
    double at;
  };
  const Step steps[] = {
      {{200.0, 150.0, 150.0}, {0.0, 30.0, 20.0}, 50.0},
      {{990.0, 150.0, 150.0}, {0.0, 10.0, 10.0}, 20.0},
  };
  const CoupledMarket market = CoupledMarket::paper();
  for (const Step& step : steps) {
    const CurveCase c = uncongested_case(step.background, step.power, 62.0);
    const std::string tag = "step at " + std::to_string(step.at);
    const std::vector<lp::RhsBreakpoint> breaks = site0_breakpoints(market, c);
    ASSERT_FALSE(breaks.empty()) << tag;
    EXPECT_NEAR(breaks.front().t, step.at, 1e-9) << tag << ": the breakpoint";
    const Derived got = by_walk(market, c);
    expect_matches_sweep(market, c, by_sweep(market, c), got, tag);
    ASSERT_FALSE(got.error.has_value()) << tag;
    const std::vector<double>& thresholds = got.policies[0].thresholds_mw();
    ASSERT_EQ(thresholds.size(), 2u) << tag;
    EXPECT_NEAR(thresholds[1], c.base[0] + step.at, 1e-9) << tag;
  }
}

TEST(LocalCurveTest, PriceMovingAtTheStartDrawMatchesTheSweep) {
  // 600 MW before site 0 draws: draw 0 itself is Brighton's breakpoint, so
  // the cold start sits on a degenerate vertex and the price moves at
  // t = 0+. Also the same breakpoint one grid draw up, and half a draw up;
  // each step opens at the breakpoint itself.
  const CoupledMarket market = CoupledMarket::paper();
  for (const double other : {50.0, 48.0, 49.0}) {
    const CurveCase c =
        uncongested_case({200.0, 150.0, 150.0}, {0.0, other, 50.0}, 40.0);
    const std::string tag = "start at " + std::to_string(other);
    const std::vector<lp::RhsBreakpoint> breaks = site0_breakpoints(market, c);
    ASSERT_FALSE(breaks.empty());
    EXPECT_NEAR(breaks.front().t, 50.0 - other, 1e-9);
    const Derived want = by_sweep(market, c);
    const Derived got = by_walk(market, c);
    expect_matches_sweep(market, c, want, got, tag);
    ASSERT_FALSE(got.error.has_value());
    ASSERT_GE(got.policies[0].num_levels(), 2u);
    EXPECT_NEAR(got.policies[0].thresholds_mw()[1], c.base[0] + 50.0 - other,
                1e-9)
        << tag;
  }
}

TEST(LocalCurveTest, InfeasibleTailNamesTheSweepsDraw) {
  // All 1530 MW of generation serve 1470 MW (or 1471 MW) before site 0
  // draws: the tail turns infeasible past draw 60, which is itself the
  // last feasible point (or past 59, between grid draws). The sweep names
  // its first infeasible draw, 62 or 60; the walk names the boundary.
  const CoupledMarket market = CoupledMarket::paper();
  for (const double extra : {0.0, 1.0}) {
    const CurveCase c = uncongested_case({500.0, 480.0, 440.0 + extra},
                                         {0.0, 30.0, 20.0}, 100.0);
    const Derived want = by_sweep(market, c);
    const Derived got = by_walk(market, c);
    ASSERT_TRUE(want.error.has_value());
    const std::string draw = extra == 0.0 ? "62.000000" : "60.000000";
    EXPECT_NE(want.error->find("site 0 at draw " + draw + " MW"),
              std::string::npos)
        << *want.error;
    expect_matches_sweep(market, c, want, got, "tail");
    ASSERT_TRUE(got.error.has_value());
    EXPECT_NEAR(named_draw(*got.error), 60.0 - extra, 1e-6) << *got.error;
  }
}

}  // namespace
}  // namespace billcap::market
