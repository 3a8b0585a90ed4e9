#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/bill_capper.hpp"

namespace billcap::serve {

/// Circuit-breaker state over the mid-hour re-optimization path.
enum class BreakerState {
  kClosed,    ///< re-plans flow normally
  kOpen,      ///< re-plans held; last good plan serves; cooling down
  kHalfOpen,  ///< cooldown elapsed; exactly one probe re-plan is allowed
};
const char* to_string(BreakerState state) noexcept;

/// Breaker knobs. Cooldowns are measured in serve ticks, not wall time, so
/// breaker trajectories are bitwise-reproducible across kill/resume.
struct BreakerConfig {
  /// Trip after this many *consecutive* degraded re-plans (MILP fell off
  /// the optimal rung: node budget exhausted, infeasible, arena cap).
  std::size_t trip_after = 3;
  /// First open period, in ticks.
  std::size_t cooldown_ticks = 4;
  /// A failed half-open probe re-opens for cooldown * multiplier (capped).
  double cooldown_multiplier = 2.0;
  std::size_t cooldown_max_ticks = 64;
};

/// The re-plan circuit breaker: consecutive degraded re-optimizations open
/// it, an exponential cooldown gates half-open probes, and one clean probe
/// closes it again. Protects the serve loop from re-plan storms (feed
/// bursts, pathological MILP hours) the same way the supervisor's backoff
/// protects the host from crash loops.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config);

  BreakerState state() const noexcept { return state_; }
  /// True when a requested re-plan may actually run this tick.
  bool allows_replan() const noexcept { return state_ != BreakerState::kOpen; }
  /// Times the breaker has transitioned Closed/HalfOpen -> Open.
  std::size_t trips() const noexcept { return trips_; }

  /// Advances the cooldown clock one tick; an expired cooldown moves
  /// Open -> HalfOpen. Returns true when the state changed.
  bool on_tick() noexcept;

  /// Feeds one executed re-plan's outcome into the machine. Returns true
  /// when the state changed (trip, re-trip, or a probe closing it).
  bool on_replan(bool degraded) noexcept;

  /// Checkpoint support.
  struct State {
    BreakerState state = BreakerState::kClosed;
    std::size_t consecutive_degraded = 0;
    std::size_t cooldown_remaining = 0;
    std::size_t current_cooldown_ticks = 0;
    std::size_t trips = 0;
  };
  State snapshot() const noexcept;
  void restore(const State& state) noexcept;

 private:
  void open() noexcept;

  BreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  std::size_t consecutive_degraded_ = 0;
  std::size_t cooldown_remaining_ = 0;
  std::size_t current_cooldown_ticks_ = 0;
  std::size_t trips_ = 0;
};

/// The plan the serve loop is currently executing: the per-site dispatch
/// and the hourly service rates the last accepted re-plan produced.
/// `plan_tick` anchors staleness (ticks since adoption).
struct ActivePlan {
  bool valid = false;
  bool degraded = false;  ///< produced by the degradation ladder, not optimal
  std::vector<double> lambda;   ///< requests/hour per site
  double premium_rate = 0.0;    ///< requests/hour served with QoS
  double ordinary_rate = 0.0;   ///< best-effort requests/hour
  double predicted_cost = 0.0;  ///< optimizer's own belief, $/h
  std::size_t plan_tick = 0;    ///< tick the plan was adopted
};

/// The serve-mode re-plan engine: wraps BillCapper::decide behind a
/// deterministic per-tick deadline budget (a branch-and-bound node cap, so
/// breaker trajectories replay bitwise) and the circuit breaker.
class ReplanEngine {
 public:
  /// `sites`/`policies` must outlive the engine (the Simulator owns them).
  /// `node_budget` <= 0 keeps the configured MILP node limit.
  ReplanEngine(const std::vector<datacenter::DataCenter>& sites,
               const std::vector<market::PricingPolicy>& policies,
               core::OptimizerOptions options, long node_budget,
               BreakerConfig breaker);

  CircuitBreaker& breaker() noexcept { return breaker_; }
  const CircuitBreaker& breaker() const noexcept { return breaker_; }

  std::size_t replans() const noexcept { return replans_; }
  std::size_t degraded_replans() const noexcept { return degraded_replans_; }
  void restore_counters(std::size_t replans,
                        std::size_t degraded_replans) noexcept {
    replans_ = replans;
    degraded_replans_ = degraded_replans;
  }

  struct Request {
    double premium_rate = 0.0;   ///< requests/hour wanted with QoS
    double ordinary_rate = 0.0;  ///< best-effort requests/hour wanted
    std::span<const double> demand_mw;  ///< believed background demand
    double hourly_budget = 0.0;
    std::span<const std::uint8_t> site_available;  ///< empty = all up
    std::size_t tick = 0;
  };

  /// Runs one re-plan if the breaker allows it, feeding the outcome back
  /// into the breaker and (on success or degraded-but-usable results)
  /// replacing `plan`. Returns true when a re-plan actually executed.
  bool replan(const Request& request, ActivePlan& plan);

 private:
  core::BillCapper capper_;
  CircuitBreaker breaker_;
  std::size_t replans_ = 0;
  std::size_t degraded_replans_ = 0;
};

}  // namespace billcap::serve
