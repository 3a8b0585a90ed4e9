#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/bill_capper.hpp"
#include "core/circuit_breaker.hpp"

namespace billcap::serve {

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
/// breaker trajectories replay bitwise) and the circuit breaker on a tick
/// clock: consecutive degraded re-plans trip it, which protects the serve
/// loop from re-plan storms (feed bursts, pathological MILP hours).
class ReplanEngine {
 public:
  /// `sites`/`policies` must outlive the engine (the Simulator owns them).
  /// `node_budget` <= 0 keeps the configured MILP node limit.
  ReplanEngine(const std::vector<datacenter::DataCenter>& sites,
               const std::vector<market::PricingPolicy>& policies,
               core::OptimizerOptions options, long node_budget,
               core::BreakerConfig breaker);

  core::CircuitBreaker& breaker() noexcept { return breaker_; }
  const core::CircuitBreaker& breaker() const noexcept { return breaker_; }

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
  core::CircuitBreaker breaker_;
  std::size_t replans_ = 0;
  std::size_t degraded_replans_ = 0;
};

}  // namespace billcap::serve
