#include "serve/replan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace billcap::serve {

namespace {

/// Clamps node_budget onto the options the engine's capper will use: the
/// per-tick deadline is a *node* budget so that a re-plan interrupted by a
/// kill replays to the same outcome bit-for-bit on resume.
core::OptimizerOptions budgeted(core::OptimizerOptions options,
                                long node_budget) {
  if (node_budget > 0)
    options.milp.max_nodes =
        std::min(options.milp.max_nodes, node_budget);
  return options;
}

}  // namespace

const char* to_string(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(BreakerConfig config) : config_(config) {
  if (config_.trip_after == 0)
    throw std::invalid_argument("CircuitBreaker: trip_after must be >= 1");
  if (config_.cooldown_ticks == 0)
    throw std::invalid_argument("CircuitBreaker: cooldown_ticks must be >= 1");
  if (config_.cooldown_multiplier < 1.0)
    throw std::invalid_argument(
        "CircuitBreaker: cooldown_multiplier must be >= 1");
  current_cooldown_ticks_ = config_.cooldown_ticks;
}

void CircuitBreaker::open() noexcept {
  state_ = BreakerState::kOpen;
  cooldown_remaining_ = current_cooldown_ticks_;
  consecutive_degraded_ = 0;
  ++trips_;
}

bool CircuitBreaker::on_tick() noexcept {
  if (state_ != BreakerState::kOpen) return false;
  if (cooldown_remaining_ > 0) --cooldown_remaining_;
  if (cooldown_remaining_ == 0) {
    state_ = BreakerState::kHalfOpen;
    return true;
  }
  return false;
}

bool CircuitBreaker::on_replan(bool degraded) noexcept {
  if (state_ == BreakerState::kHalfOpen) {
    if (degraded) {
      // Failed probe: re-open for an exponentially longer cooldown.
      const double next = static_cast<double>(current_cooldown_ticks_) *
                          config_.cooldown_multiplier;
      current_cooldown_ticks_ = std::min(
          config_.cooldown_max_ticks,
          static_cast<std::size_t>(std::llround(next)));
      open();
    } else {
      // Clean probe: close and forget the escalated cooldown.
      state_ = BreakerState::kClosed;
      current_cooldown_ticks_ = config_.cooldown_ticks;
      consecutive_degraded_ = 0;
    }
    return true;
  }
  if (state_ != BreakerState::kClosed) return false;
  if (!degraded) {
    consecutive_degraded_ = 0;
    return false;
  }
  if (++consecutive_degraded_ >= config_.trip_after) {
    open();
    return true;
  }
  return false;
}

CircuitBreaker::State CircuitBreaker::snapshot() const noexcept {
  State s;
  s.state = state_;
  s.consecutive_degraded = consecutive_degraded_;
  s.cooldown_remaining = cooldown_remaining_;
  s.current_cooldown_ticks = current_cooldown_ticks_;
  s.trips = trips_;
  return s;
}

void CircuitBreaker::restore(const State& state) noexcept {
  state_ = state.state;
  consecutive_degraded_ = state.consecutive_degraded;
  cooldown_remaining_ = state.cooldown_remaining;
  current_cooldown_ticks_ =
      std::max<std::size_t>(1, state.current_cooldown_ticks);
  trips_ = state.trips;
}

ReplanEngine::ReplanEngine(const std::vector<datacenter::DataCenter>& sites,
                           const std::vector<market::PricingPolicy>& policies,
                           core::OptimizerOptions options, long node_budget,
                           BreakerConfig breaker)
    : capper_(sites, policies, budgeted(options, node_budget)),
      breaker_(breaker) {}

bool ReplanEngine::replan(const Request& request, ActivePlan& plan) {
  if (!breaker_.allows_replan()) return false;

  core::DecideOptions overrides;
  overrides.site_available = request.site_available;

  const core::CappingOutcome outcome =
      capper_.decide(request.premium_rate, request.ordinary_rate,
                     request.demand_mw, request.hourly_budget, overrides);
  ++replans_;
  const bool degraded = outcome.degraded;
  if (degraded) ++degraded_replans_;
  breaker_.on_replan(degraded);

  // decide() always returns a servable allocation (its own degradation
  // ladder bottoms out at greedy water-filling), so every executed re-plan
  // replaces the active plan; the breaker decides whether the *next* one
  // gets to run at all.
  plan.valid = true;
  plan.degraded = degraded;
  plan.lambda = outcome.allocation.lambda_vector();
  plan.premium_rate = outcome.served_premium;
  plan.ordinary_rate = outcome.served_ordinary;
  plan.predicted_cost = outcome.allocation.predicted_cost;
  plan.plan_tick = request.tick;
  return true;
}

}  // namespace billcap::serve
