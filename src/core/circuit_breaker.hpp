#pragma once

#include <cstddef>
#include <cstdint>

namespace billcap::core {

/// Circuit-breaker state over a retried decision path.
enum class BreakerState {
  kClosed,    ///< attempts flow normally
  kOpen,      ///< attempts held; the fallback serves; cooling down
  kHalfOpen,  ///< cooldown elapsed; exactly one probe attempt is allowed
};
const char* to_string(BreakerState state) noexcept;
/// Decodes a persisted state word; throws std::runtime_error out of range.
BreakerState breaker_state_from(std::uint64_t value);

/// A failed half-open probe re-opens for the previous cooldown times this
/// (capped). Config digests mix it as a double where a knob once stood.
inline constexpr std::size_t kBreakerCooldownGrowth = 2;

/// Breaker knobs. Cooldowns count steps of the owner's clock (serve ticks,
/// coupler hours), never wall time, so breaker trajectories replay bitwise
/// across kill/resume.
struct BreakerConfig {
  /// Trip after this many *consecutive* failed attempts.
  std::size_t trip_after = 3;
  /// First open period, in steps.
  std::size_t cooldown = 4;
  std::size_t max_cooldown = 64;
};

/// The one circuit breaker: consecutive failed attempts open it, an
/// exponential cooldown gates half-open probes, and one clean probe closes
/// it again. Serve guards its mid-hour re-plans with it on a tick clock;
/// the market coupler guards its coupled fixed point with it on an hour
/// clock.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config);

  BreakerState state() const noexcept { return state_; }
  /// True when an attempt may actually run this step.
  bool allows_replan() const noexcept { return state_ != BreakerState::kOpen; }
  /// Times the breaker has transitioned Closed/HalfOpen -> Open.
  std::size_t trips() const noexcept { return trips_; }

  /// Advances the cooldown clock one step; an expired cooldown moves
  /// Open -> HalfOpen. Returns true when the state changed.
  bool on_tick() noexcept;

  /// Feeds one executed attempt's outcome into the machine. Returns true
  /// when the state changed (trip, re-trip, or a probe closing it).
  bool on_replan(bool failed) noexcept;

  /// Checkpoint support.
  struct State {
    BreakerState state = BreakerState::kClosed;
    std::size_t consecutive_failed = 0;
    std::size_t cooldown_remaining = 0;
    std::size_t current_cooldown = 0;
    std::size_t trips = 0;
  };
  State snapshot() const noexcept;
  /// A closed breaker stored with no cooldown resumes at its base: older
  /// coupler checkpoints stored 0 there after a close.
  void restore(const State& state) noexcept;

 private:
  void open() noexcept;

  BreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  std::size_t consecutive_failed_ = 0;
  std::size_t cooldown_remaining_ = 0;
  std::size_t current_cooldown_ = 0;
  std::size_t trips_ = 0;
};

}  // namespace billcap::core
