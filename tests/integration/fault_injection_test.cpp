// The acceptance scenario for the fault-injection framework: a month with a
// mid-month single-site outage, a stale-price interval and a tight per-solve
// node budget must complete without throwing, every hour must carry
// a feasible allocation, and the degraded hours must be flagged and counted
// consistently. Fault-free runs must behave exactly as before the framework
// existed.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/simulator.hpp"

namespace billcap::core {
namespace {

SimulationConfig acceptance_config() {
  SimulationConfig config;
  config.monthly_budget = 1.5e6;
  // Mid-month outage: site 1 dark for hours [300, 360).
  config.fault_plan.outages.push_back({1, 300, 60});
  // The market feed freezes for hours [400, 430).
  config.fault_plan.stale_intervals.push_back({400, 30});
  // Every solve of the month runs under a squeeze of 3 branch-and-bound
  // nodes.
  config.fault_plan.deadline_squeezes.push_back({0, 720, 3});
  return config;
}

TEST(FaultInjectionTest, AcceptanceScenarioCompletesAndStaysFeasible) {
  const SimulationConfig config = acceptance_config();
  const Simulator sim(config);
  MonthlyResult r;
  ASSERT_NO_THROW(r = sim.run(Strategy::kCostCapping));
  ASSERT_EQ(r.hours.size(), 720u);

  const auto& sites = sim.sites();
  for (const auto& h : r.hours) {
    // Every hour carries a real allocation: non-negative site rates that
    // never exceed what was served, and served never exceeds arrivals.
    EXPECT_LE(h.served_premium, h.premium_arrivals + 1.0) << h.hour;
    EXPECT_LE(h.served_ordinary, h.ordinary_arrivals + 1.0) << h.hour;
    ASSERT_EQ(h.site_lambda.size(), sites.size());
    for (std::size_t i = 0; i < sites.size(); ++i) {
      EXPECT_GE(h.site_lambda[i], 0.0) << h.hour;
      // Ground-truth site draw respects the power cap (small slack for the
      // integer server/switch rounding of the billing model).
      EXPECT_LE(h.site_power_mw[i], sites[i].spec().power_cap_mw * 1.05)
          << "site " << i << " hour " << h.hour;
    }
  }

  // The downed site takes no load during its outage window...
  for (std::size_t hour = 300; hour < 360; ++hour) {
    EXPECT_DOUBLE_EQ(r.hours[hour].site_lambda[1], 0.0) << hour;
    EXPECT_EQ(r.hours[hour].sites_down, 1u) << hour;
  }
  // ... and recovers afterwards (bookkeeping, not necessarily load).
  EXPECT_EQ(r.hours[360].sites_down, 0u);
  EXPECT_EQ(r.outage_hours, 60u);

  // The stale interval is flagged: hours [400, 430) plan on hour 399's feed.
  for (std::size_t hour = 400; hour < 430; ++hour)
    EXPECT_TRUE(r.hours[hour].stale_prices) << hour;
  EXPECT_FALSE(r.hours[399].stale_prices);
  EXPECT_FALSE(r.hours[430].stale_prices);
  EXPECT_EQ(r.stale_hours, 30u);

  // Premium QoS survives the faults apart from physical-capacity loss
  // while a third of the fleet is dark.
  EXPECT_GT(r.premium_throughput_ratio(), 0.95);
}

TEST(FaultInjectionTest, DegradedCountersMatchPerHourFlags) {
  const Simulator sim(acceptance_config());
  const MonthlyResult r = sim.run(Strategy::kCostCapping);
  std::size_t degraded = 0;
  std::size_t incumbent = 0;
  std::size_t heuristic = 0;
  std::size_t outage = 0;
  std::size_t stale = 0;
  for (const auto& h : r.hours) {
    degraded += h.degraded ? 1 : 0;
    incumbent += h.used_incumbent ? 1 : 0;
    heuristic += h.used_heuristic ? 1 : 0;
    outage += h.sites_down > 0 ? 1 : 0;
    stale += h.stale_prices ? 1 : 0;
    // A degraded hour names its failure; a clean hour names none.
    EXPECT_EQ(h.degraded, h.failure != FailureReason::kNone) << h.hour;
    // The ladder rungs are exclusive.
    EXPECT_FALSE(h.used_incumbent && h.used_heuristic) << h.hour;
  }
  EXPECT_EQ(r.degraded_hours, degraded);
  EXPECT_EQ(r.incumbent_hours, incumbent);
  EXPECT_EQ(r.heuristic_hours, heuristic);
  EXPECT_EQ(r.outage_hours, outage);
  EXPECT_EQ(r.stale_hours, stale);
}

TEST(FaultInjectionTest, FaultFreeRunIsCleanAndUndegraded) {
  // With no faults and default solver limits, nothing in the degradation
  // machinery fires: the month is bit-for-bit the pre-framework behaviour.
  SimulationConfig config;
  config.monthly_budget = 1.5e6;
  const MonthlyResult r = Simulator(config).run(Strategy::kCostCapping);
  EXPECT_EQ(r.degraded_hours, 0u);
  EXPECT_EQ(r.incumbent_hours, 0u);
  EXPECT_EQ(r.heuristic_hours, 0u);
  EXPECT_EQ(r.outage_hours, 0u);
  EXPECT_EQ(r.stale_hours, 0u);
  for (const auto& h : r.hours) {
    EXPECT_FALSE(h.degraded);
    EXPECT_EQ(h.failure, FailureReason::kNone);
  }
  EXPECT_DOUBLE_EQ(r.premium_throughput_ratio(), 1.0);
}

TEST(FaultInjectionTest, SameSeedSamePlanBitwiseIdentical) {
  // Determinism with every hourly fault kind (outages, stale feeds, demand
  // shocks and node-budget squeezes): two independent simulators must agree
  // to the last bit.
  SimulationConfig config;
  config.monthly_budget = 1.2e6;
  config.seed = 4242;
  config.fault_plan.outages.push_back({0, 100, 24});
  config.fault_plan.stale_intervals.push_back({250, 12});
  config.fault_plan.demand_shocks.push_back({2, 500, 48, 1.6});
  config.fault_plan.deadline_squeezes.push_back({600, 24, 3});

  const MonthlyResult a = Simulator(config).run(Strategy::kCostCapping);
  const MonthlyResult b = Simulator(config).run(Strategy::kCostCapping);

  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  EXPECT_DOUBLE_EQ(a.total_served_premium, b.total_served_premium);
  EXPECT_DOUBLE_EQ(a.total_served_ordinary, b.total_served_ordinary);
  EXPECT_EQ(a.incumbent_hours, b.incumbent_hours);
  EXPECT_EQ(a.heuristic_hours, b.heuristic_hours);
  EXPECT_EQ(a.outage_hours, b.outage_hours);
  EXPECT_EQ(a.stale_hours, b.stale_hours);
  ASSERT_EQ(a.hours.size(), b.hours.size());
  for (std::size_t h = 0; h < a.hours.size(); ++h) {
    EXPECT_DOUBLE_EQ(a.hours[h].cost, b.hours[h].cost) << h;
    EXPECT_DOUBLE_EQ(a.hours[h].served_ordinary, b.hours[h].served_ordinary)
        << h;
    EXPECT_EQ(a.hours[h].mode, b.hours[h].mode) << h;
    EXPECT_EQ(a.hours[h].degraded, b.hours[h].degraded) << h;
    ASSERT_EQ(a.hours[h].site_lambda.size(), b.hours[h].site_lambda.size());
    for (std::size_t i = 0; i < a.hours[h].site_lambda.size(); ++i)
      EXPECT_DOUBLE_EQ(a.hours[h].site_lambda[i], b.hours[h].site_lambda[i])
          << h;
  }
}

TEST(FaultInjectionTest, RateDrivenPlanDeterministicInSeed) {
  SimulationConfig config;
  config.fault_rates.outage_rate = 0.002;
  config.fault_rates.shock_rate = 0.002;
  const MonthlyResult a = Simulator(config).run(Strategy::kCostCapping);
  const MonthlyResult b = Simulator(config).run(Strategy::kCostCapping);
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.outage_hours, b.outage_hours);
}

TEST(FaultInjectionTest, MinOnlyBaselineSurvivesFaultsToo) {
  SimulationConfig config;
  config.fault_plan.outages.push_back({2, 200, 48});
  config.fault_plan.demand_shocks.push_back({0, 350, 24, 1.4});
  const Simulator sim(config);
  MonthlyResult r;
  ASSERT_NO_THROW(r = sim.run(Strategy::kMinOnlyAvg));
  ASSERT_EQ(r.hours.size(), 720u);
  for (std::size_t hour = 200; hour < 248; ++hour) {
    EXPECT_DOUBLE_EQ(r.hours[hour].site_lambda[2], 0.0) << hour;
    EXPECT_EQ(r.hours[hour].sites_down, 1u) << hour;
  }
  EXPECT_EQ(r.outage_hours, 48u);
  EXPECT_GT(r.premium_throughput_ratio(), 0.95);
}

/// FNV-1a over the bit pattern of every HourRecord field of the month, in
/// record order.
std::uint64_t hour_record_digest(const MonthlyResult& r) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  const auto mix_d = [&mix](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  const auto mix_all = [&](const std::vector<double>& values) {
    mix(values.size());
    for (double v : values) mix_d(v);
  };
  for (const HourRecord& rec : r.hours) {
    mix(rec.hour);
    mix_d(rec.arrivals);
    mix_d(rec.premium_arrivals);
    mix_d(rec.ordinary_arrivals);
    mix_d(rec.served_premium);
    mix_d(rec.served_ordinary);
    mix_d(rec.hourly_budget);
    mix_d(rec.cost);
    mix_d(rec.predicted_cost);
    mix(static_cast<std::uint64_t>(rec.mode));
    mix_all(rec.site_lambda);
    mix_all(rec.site_power_mw);
    mix(static_cast<std::uint64_t>(rec.nodes));
    mix(rec.degraded ? 1 : 0);
    mix(static_cast<std::uint64_t>(rec.failure));
    mix(rec.used_incumbent ? 1 : 0);
    mix(rec.used_heuristic ? 1 : 0);
    mix(rec.sites_down);
    mix(rec.stale_prices ? 1 : 0);
    mix(static_cast<std::uint64_t>(rec.feed_attempts));
    mix(rec.feed_recovered ? 1 : 0);
    mix(rec.coupler_iterations);
    mix(rec.coupler_converged ? 1 : 0);
    mix(rec.coupler_fallback ? 1 : 0);
    mix(rec.coupler_rung);
  }
  return hash;
}

TEST(FaultInjectionTest, LadderMonthDigestsArePinned) {
  // A three-node budget with an outage and a demand shock walks both
  // strategies down the degradation ladder (optimal, incumbent, greedy;
  // Min-Only Low never needs the greedy rung). The digests pin every
  // record field of those months and the rung counts pin the walk, so a
  // refactor of the hour pipeline that moves any bit fails here. A
  // squeeze is a node budget: one covering the whole month at 3 nodes
  // walks exactly the same ladder, and a looser squeeze than the configured
  // budget changes nothing (the tighter budget wins).
  SimulationConfig squeezed;
  squeezed.fault_plan.outages.push_back({2, 200, 48});
  squeezed.fault_plan.demand_shocks.push_back({0, 350, 24, 1.4});
  SimulationConfig configured = squeezed;
  configured.optimizer.milp.max_nodes = 3;
  squeezed.fault_plan.deadline_squeezes.push_back({0, 720, 3});
  SimulationConfig loose = configured;
  loose.fault_plan.deadline_squeezes.push_back({0, 720, 50});
  struct Pin {
    Strategy strategy;
    std::uint64_t digest;
    std::size_t incumbent_hours;
    std::size_t heuristic_hours;
  };
  for (const Pin& pin : {Pin{Strategy::kCostCapping, 0xd99cc033a1622668ULL,
                             126, 506},
                         Pin{Strategy::kMinOnlyAvg, 0x4cea46a40d8e1c9fULL,
                             100, 95},
                         Pin{Strategy::kMinOnlyLow, 0xefde25b56bd1fe64ULL,
                             32, 0}}) {
    for (const SimulationConfig* config : {&configured, &squeezed, &loose}) {
      const MonthlyResult r = Simulator(*config).run(pin.strategy);
      EXPECT_EQ(hour_record_digest(r), pin.digest) << to_string(pin.strategy);
      EXPECT_EQ(r.incumbent_hours, pin.incumbent_hours)
          << to_string(pin.strategy);
      EXPECT_EQ(r.heuristic_hours, pin.heuristic_hours)
          << to_string(pin.strategy);
    }
  }
}

TEST(FaultInjectionTest, RateDrawnSqueezeDrillDegradesHoursDeterministically) {
  // The drawn squeeze (kDrawnSqueezeNodes per solve) bites on any host:
  // simulate --fault-squeeze-rate 0.9 --fault-squeeze-mean 5 degrades
  // hours, differs from the fault-free month, and replays bit for bit.
  SimulationConfig drill;
  drill.fault_rates.squeeze_rate = 0.9;
  drill.fault_rates.squeeze_mean_hours = 5;
  const MonthlyResult a = Simulator(drill).run(Strategy::kCostCapping);
  const MonthlyResult b = Simulator(drill).run(Strategy::kCostCapping);
  const MonthlyResult clean =
      Simulator(SimulationConfig{}).run(Strategy::kCostCapping);
  EXPECT_GT(a.degraded_hours, 0u);
  EXPECT_EQ(hour_record_digest(a), hour_record_digest(b));
  EXPECT_NE(hour_record_digest(a), hour_record_digest(clean));
  EXPECT_EQ(clean.degraded_hours, 0u);
}

}  // namespace
}  // namespace billcap::core
