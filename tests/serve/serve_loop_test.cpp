// ServeLoop integration: the serving daemon's tick loop must complete a
// short horizon in memory, survive injected kills with a bitwise-identical
// recovery through its durable checkpoint, stop gracefully, pin the ladder
// in standby, and publish a progress counter the supervisor's probe reads.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "core/supervisor.hpp"
#include "serve/serve_loop.hpp"
#include "util/fnv1a.hpp"
#include "util/journal.hpp"

namespace billcap::serve {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

core::SimulationConfig small_config() {
  core::SimulationConfig config;
  config.monthly_budget = 1.5e6;
  config.seed = 2012;
  return config;
}

/// Horizon of the pinned months below.
constexpr std::size_t kPinnedHours = 96;

ServeConfig short_serve_config() {
  ServeConfig config;
  config.ticks_per_hour = 4;
  config.horizon_hours = 3;  // 12 ticks: seconds, not minutes
  return config;
}

/// Bitwise equality of two doubles (not EXPECT_DOUBLE_EQ's 4-ULP slack):
/// the checkpoint contract is byte identity, nothing weaker.
void expect_same_bits(double a, double b, const char* what) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

void expect_reports_bitwise_equal(const ServeReport& a, const ServeReport& b) {
  EXPECT_EQ(a.ticks_committed, b.ticks_committed);
  expect_same_bits(a.total_cost, b.total_cost, "total_cost");
  expect_same_bits(a.total_premium_arrivals, b.total_premium_arrivals,
                   "total_premium_arrivals");
  expect_same_bits(a.total_ordinary_arrivals, b.total_ordinary_arrivals,
                   "total_ordinary_arrivals");
  expect_same_bits(a.total_served_premium, b.total_served_premium,
                   "total_served_premium");
  expect_same_bits(a.total_served_ordinary, b.total_served_ordinary,
                   "total_served_ordinary");
  expect_same_bits(a.dropped_premium, b.dropped_premium, "dropped_premium");
  expect_same_bits(a.dropped_ordinary, b.dropped_ordinary, "dropped_ordinary");
  expect_same_bits(a.final_premium_depth, b.final_premium_depth,
                   "final_premium_depth");
  expect_same_bits(a.final_ordinary_depth, b.final_ordinary_depth,
                   "final_ordinary_depth");
  EXPECT_EQ(a.feed_updates_seen, b.feed_updates_seen);
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.degraded_replans, b.degraded_replans);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
  EXPECT_EQ(a.shed_ticks, b.shed_ticks);
  EXPECT_EQ(a.health_transitions, b.health_transitions);
  EXPECT_EQ(a.final_health, b.final_health);
  ASSERT_EQ(a.health_history.size(), b.health_history.size());
  for (std::size_t i = 0; i < a.health_history.size(); ++i) {
    EXPECT_EQ(a.health_history[i].tick, b.health_history[i].tick);
    EXPECT_EQ(a.health_history[i].from, b.health_history[i].from);
    EXPECT_EQ(a.health_history[i].to, b.health_history[i].to);
  }
}

void remove_generations(const std::string& path, std::size_t gens) {
  for (std::size_t g = 0; g < gens; ++g)
    std::remove(util::Journal::generation_path(path, g).c_str());
}

TEST(ServeLoopTest, InMemoryRunCompletesTheHorizon) {
  const core::Simulator sim(small_config());
  const ServeConfig cfg = short_serve_config();
  const ServeLoop loop(sim, cfg);
  ASSERT_EQ(loop.total_ticks(), 12u);

  std::size_t on_tick_calls = 0;
  const ServeOutcome outcome =
      loop.run("", /*resume=*/false,
               [&](const TickRecord& rec) {
                 EXPECT_EQ(rec.tick, on_tick_calls);
                 ++on_tick_calls;
               });
  EXPECT_FALSE(outcome.crashed);
  EXPECT_FALSE(outcome.stopped);
  EXPECT_EQ(outcome.report.ticks_committed, 12u);
  EXPECT_EQ(on_tick_calls, 12u);
  EXPECT_EQ(outcome.report.ticks_this_attempt.size(), 12u);
  // A calm month never violates the premium contract.
  EXPECT_TRUE(outcome.report.premium_qos_ok());
  // Backlog always respects the hard capacity ceiling.
  EXPECT_LE(outcome.report.max_premium_depth, loop.premium_queue_capacity());
  EXPECT_LE(outcome.report.max_ordinary_depth, loop.ordinary_queue_capacity());
}

TEST(ServeLoopTest, InMemoryRunRejectsResumeAndInjectedKills) {
  const core::Simulator sim(small_config());
  EXPECT_THROW(ServeLoop(sim, short_serve_config()).run("", /*resume=*/true),
               std::invalid_argument);
  ServeConfig cfg = short_serve_config();
  cfg.kill_at_ticks = {3};
  EXPECT_THROW(ServeLoop(sim, cfg).run("", /*resume=*/false),
               std::invalid_argument);
}

TEST(ServeLoopTest, KillAndResumeReproducesTheCleanRunBitwise) {
  const core::Simulator sim(small_config());
  const ServeConfig clean_cfg = short_serve_config();
  const ServeLoop clean_loop(sim, clean_cfg);
  const std::string clean_path = temp_path("billcap_serve_clean.j");
  std::remove(clean_path.c_str());
  const ServeOutcome want = clean_loop.run(clean_path, false);
  ASSERT_FALSE(want.crashed);
  std::remove(clean_path.c_str());

  // Same daemon, three deaths — including two at the same tick (the second
  // restart must die again at tick 6 before finally passing it).
  ServeConfig cfg = short_serve_config();
  cfg.kill_at_ticks = {2, 6, 6};
  const ServeLoop loop(sim, cfg);
  const std::string path = temp_path("billcap_serve_kills.j");
  std::remove(path.c_str());

  ServeOutcome outcome = loop.run(path, /*resume=*/false);
  std::size_t deaths = 0;
  while (outcome.crashed) {
    ++deaths;
    ASSERT_LE(deaths, 3u);
    outcome = loop.run(path, /*resume=*/true);
  }
  EXPECT_EQ(deaths, 3u);
  EXPECT_EQ(outcome.report.ticks_committed, 12u);
  expect_reports_bitwise_equal(want.report, outcome.report);
  std::remove(path.c_str());
}

TEST(ServeLoopTest, GracefulStopLeavesAResumableCheckpoint) {
  const core::Simulator sim(small_config());
  const ServeConfig cfg = short_serve_config();
  const ServeLoop loop(sim, cfg);
  const std::string clean_path = temp_path("billcap_serve_stop_ref.j");
  std::remove(clean_path.c_str());
  const ServeOutcome want = loop.run(clean_path, false);
  std::remove(clean_path.c_str());

  const std::string path = temp_path("billcap_serve_stop.j");
  std::remove(path.c_str());
  ServeLoop::Controls controls;
  controls.max_ticks = 5;
  ServeOutcome outcome = loop.run(path, /*resume=*/false, {}, controls);
  EXPECT_TRUE(outcome.stopped);
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.report.ticks_committed, 5u);

  // Resuming without the limit finishes the horizon bit-identically.
  outcome = loop.run(path, /*resume=*/true);
  EXPECT_FALSE(outcome.stopped);
  EXPECT_EQ(outcome.resumed_from_tick, 5u);
  EXPECT_EQ(outcome.report.ticks_committed, 12u);
  expect_reports_bitwise_equal(want.report, outcome.report);
  std::remove(path.c_str());
}

TEST(ServeLoopTest, StandbyPinsPremiumOnlyAndBypassesKills) {
  const core::Simulator sim(small_config());
  ServeConfig cfg = short_serve_config();
  cfg.standby = true;
  cfg.kill_at_ticks = {1, 4};  // must NOT fire on a standby attempt
  const ServeLoop loop(sim, cfg);
  const std::string path = temp_path("billcap_serve_standby.j");
  std::remove(path.c_str());

  const ServeOutcome outcome = loop.run(path, /*resume=*/false);
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.report.ticks_committed, 12u);
  EXPECT_EQ(outcome.report.standby_ticks, 12u);
  for (const TickRecord& rec : outcome.report.ticks_this_attempt) {
    EXPECT_EQ(rec.admission, AdmissionLevel::kPremiumOnly);
    EXPECT_EQ(rec.health, ServeHealth::kStandby);
    EXPECT_FALSE(rec.replanned);  // no MILP on the standby rung
  }
  std::remove(path.c_str());
}

TEST(ServeLoopTest, StandbyResumesThePrimarysCheckpoint) {
  // The digest must not mix `standby` (or the kill plan): the escalated
  // standby attempt picks up exactly where the dying primary stopped.
  const core::Simulator sim(small_config());
  ServeConfig primary_cfg = short_serve_config();
  primary_cfg.kill_at_ticks = {7};
  const ServeLoop primary(sim, primary_cfg);
  const std::string path = temp_path("billcap_serve_handoff.j");
  std::remove(path.c_str());

  ServeOutcome outcome = primary.run(path, /*resume=*/false);
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.crash_tick, 7u);

  // Same config (kill_at_ticks IS digested; `standby` alone is not), so
  // the standby attempt loads the primary's checkpoint cleanly.
  ServeConfig standby_cfg = primary_cfg;
  standby_cfg.standby = true;
  const ServeLoop standby(sim, standby_cfg);
  ServeLoop::Controls controls;
  controls.max_ticks = 2;  // a bounded standby chunk, like the supervisor's
  outcome = standby.run(path, /*resume=*/true, {}, controls);
  EXPECT_TRUE(outcome.stopped);
  EXPECT_EQ(outcome.resumed_from_tick, 7u);
  EXPECT_EQ(outcome.report.ticks_committed, 9u);

  // Handing back to the primary: the kill at tick 7 was consumed by the
  // crash, the standby walked past it, and the primary finishes.
  outcome = primary.run(path, /*resume=*/true);
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.report.ticks_committed, 12u);
  std::remove(path.c_str());
}

/// FNV-1a over every field of every tick, in order: one word that moves if
/// any per-tick decision, bill or state label does.
std::uint64_t tick_digest(const std::vector<TickRecord>& ticks) {
  util::Fnv1a d;
  for (const TickRecord& t : ticks) {
    d.mix_size(t.tick);
    d.mix_size(t.hour);
    d.mix_double(t.premium_arrivals);
    d.mix_double(t.ordinary_arrivals);
    d.mix_double(t.dropped_premium);
    d.mix_double(t.dropped_ordinary);
    d.mix_double(t.served_premium);
    d.mix_double(t.served_ordinary);
    d.mix_double(t.premium_depth);
    d.mix_double(t.ordinary_depth);
    d.mix_double(t.cost);
    d.mix_double(t.hour_budget);
    d.mix_double(t.crowd_multiplier);
    d.mix_size(t.feed_updates);
    d.mix_bool(t.replanned);
    d.mix_bool(t.replan_degraded);
    d.mix_bool(t.plan_held);
    d.mix_bool(t.stale);
    d.mix_size(static_cast<std::size_t>(t.admission));
    d.mix_size(static_cast<std::size_t>(t.breaker));
    d.mix_size(static_cast<std::size_t>(t.health));
  }
  return d.hash;
}

/// bench/serve_soak's plan over 96 hours (flash crowd, feed burst, stale
/// feed, site outage). A three-node re-plan budget degrades the MILP hours
/// the crowd makes hard, so the re-plan breaker trips, probes and closes
/// repeatedly.
ServeReport chaos_month() {
  const auto at = [](double frac) {
    return static_cast<std::size_t>(frac * static_cast<double>(kPinnedHours));
  };
  core::SimulationConfig chaos = small_config();
  chaos.premium_share = 0.3;
  chaos.fault_plan.flash_crowds.push_back({at(0.20), at(0.35) - at(0.20), 2.0});
  chaos.fault_plan.feed_bursts.push_back({at(0.15), at(0.30) - at(0.15), 4});
  chaos.fault_plan.stale_intervals.push_back({at(0.40), at(0.55) - at(0.40)});
  chaos.fault_plan.outages.push_back({1, at(0.60), at(0.72) - at(0.60)});
  ServeConfig soak;
  soak.horizon_hours = kPinnedHours;
  soak.premium_queue_ticks = 8.0;
  soak.ordinary_queue_ticks = 6.0;
  soak.feed_updates_per_tick = 2;
  soak.admission.stale_ticks_tolerated = 8;
  soak.replan_node_budget = 3;
  const core::Simulator chaos_sim(chaos);
  return ServeLoop(chaos_sim, soak).run("", false).report;
}

TEST(ServeLoopTest, TickDigestsArePinned) {
  // Two 96-hour months pinned tick by tick, so moving the hour opening,
  // the breaker or the coupled-curve derivation between files cannot move
  // a decision. The chaos month trips the re-plan breaker; the closed-loop
  // month derives coupled curves at every hour boundary.
  const ServeReport chaos_run = chaos_month();
  EXPECT_EQ(tick_digest(chaos_run.ticks_this_attempt),
            11739465823535048278ULL);
  EXPECT_EQ(chaos_run.breaker_trips, 18u);
  EXPECT_EQ(chaos_run.shed_ticks, 437u);
  EXPECT_EQ(chaos_run.coupled_refreshes, 0u);

  core::SimulationConfig closed = small_config();
  closed.market_coupler.enabled = true;
  closed.fault_plan.stale_intervals.push_back({30, 6});
  closed.fault_plan.grid_demand_shocks.push_back({1, 50, 12, 1.6});
  closed.fault_plan.congestion_spikes.push_back({5, 60, 12, 0.6});
  ServeConfig month;
  month.horizon_hours = kPinnedHours;
  const core::Simulator closed_sim(closed);
  const ServeReport closed_run =
      ServeLoop(closed_sim, month).run("", false).report;
  EXPECT_EQ(tick_digest(closed_run.ticks_this_attempt),
            5746819615520695139ULL);
  EXPECT_EQ(closed_run.breaker_trips, 0u);
  EXPECT_EQ(closed_run.shed_ticks, 345u);
  EXPECT_EQ(closed_run.coupled_refreshes, 96u);
}

TEST(ServeLoopTest, FreshDaemonsFirstTripHoldsReplansForTheCooldown) {
  // A fresh daemon starts with the configured breaker cooldown, not a
  // one-tick one: its first trip keeps the breaker open, so no re-plan
  // runs, for exactly that many ticks before it may probe.
  const ServeReport run = chaos_month();
  const std::vector<TickRecord>& ticks = run.ticks_this_attempt;
  std::size_t trip = 0;
  while (trip < ticks.size() && ticks[trip].breaker != core::BreakerState::kOpen)
    ++trip;
  const std::size_t cooldown = ServeConfig{}.breaker.cooldown;
  ASSERT_GT(cooldown, 1u);
  ASSERT_LT(trip + cooldown, ticks.size()) << "the breaker never tripped";
  for (std::size_t k = trip + 1; k < trip + cooldown; ++k) {
    EXPECT_EQ(ticks[k].breaker, core::BreakerState::kOpen)
        << "tick " << ticks[k].tick;
    EXPECT_FALSE(ticks[k].replanned) << "tick " << ticks[k].tick;
  }
  // Then it is half-open, or re-opened by a probe that ran and failed.
  const TickRecord& probe = ticks[trip + cooldown];
  EXPECT_TRUE(probe.breaker != core::BreakerState::kOpen || probe.replanned)
      << "tick " << probe.tick;
}

TEST(ServeLoopTest, SupervisorProbeReadsServeCheckpointProgress) {
  const core::Simulator sim(small_config());
  const ServeLoop loop(sim, short_serve_config());
  const std::string path = temp_path("billcap_serve_probe.j");
  remove_generations(path, 2);

  // Stop after 5 committed ticks: generation 0 holds next_tick 5 and the
  // previous commit (next_tick 4) survives as generation 1.
  ServeLoop::Controls controls;
  controls.keep_generations = 2;
  controls.max_ticks = 5;
  const ServeOutcome outcome = loop.run(path, false, {}, controls);
  ASSERT_TRUE(outcome.stopped);

  // The probe reads next_tick from the serve journal — the supervisor's
  // restart policy only compares deltas, so any monotone counter works.
  EXPECT_EQ(core::probe_checkpoint_hour(path, 2), 5u);

  // A stomped newest generation: the probe falls back to the older one.
  {
    std::ofstream stomp(path, std::ios::binary | std::ios::trunc);
    stomp << "garbage";
  }
  EXPECT_EQ(core::probe_checkpoint_hour(path, 2), 4u);
  remove_generations(path, 2);
}

}  // namespace
}  // namespace billcap::serve
