#include "core/circuit_breaker.hpp"

#include <algorithm>
#include <stdexcept>

namespace billcap::core {

const char* to_string(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

BreakerState breaker_state_from(std::uint64_t value) {
  if (value > static_cast<std::uint64_t>(BreakerState::kHalfOpen))
    throw std::runtime_error("checkpoint: breaker state out of range");
  return static_cast<BreakerState>(value);
}

CircuitBreaker::CircuitBreaker(BreakerConfig config) : config_(config) {
  if (config_.trip_after == 0)
    throw std::invalid_argument("CircuitBreaker: trip_after must be >= 1");
  if (config_.cooldown == 0)
    throw std::invalid_argument("CircuitBreaker: cooldown must be >= 1");
  current_cooldown_ = config_.cooldown;
}

void CircuitBreaker::open() noexcept {
  state_ = BreakerState::kOpen;
  cooldown_remaining_ = current_cooldown_;
  consecutive_failed_ = 0;
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

bool CircuitBreaker::on_replan(bool failed) noexcept {
  if (state_ == BreakerState::kHalfOpen) {
    if (failed) {
      // Failed probe: re-open for an exponentially longer cooldown.
      current_cooldown_ = std::min(config_.max_cooldown,
                                   current_cooldown_ * kBreakerCooldownGrowth);
      open();
    } else {
      // Clean probe: close and forget the escalated cooldown.
      state_ = BreakerState::kClosed;
      current_cooldown_ = config_.cooldown;
      consecutive_failed_ = 0;
    }
    return true;
  }
  if (state_ != BreakerState::kClosed) return false;
  if (!failed) {
    consecutive_failed_ = 0;
    return false;
  }
  if (++consecutive_failed_ >= config_.trip_after) {
    open();
    return true;
  }
  return false;
}

CircuitBreaker::State CircuitBreaker::snapshot() const noexcept {
  State s;
  s.state = state_;
  s.consecutive_failed = consecutive_failed_;
  s.cooldown_remaining = cooldown_remaining_;
  s.current_cooldown = current_cooldown_;
  s.trips = trips_;
  return s;
}

void CircuitBreaker::restore(const State& state) noexcept {
  state_ = state.state;
  consecutive_failed_ = state.consecutive_failed;
  cooldown_remaining_ = state.cooldown_remaining;
  if (state.current_cooldown > 0)
    current_cooldown_ = state.current_cooldown;
  else
    current_cooldown_ = state_ == BreakerState::kClosed ? config_.cooldown : 1;
  trips_ = state.trips;
}

}  // namespace billcap::core
