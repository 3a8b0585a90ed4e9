#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/circuit_breaker.hpp"
#include "serve/admission.hpp"

namespace billcap::serve {

/// The one-word liveness summary the supervisor and tests assert on.
/// Ordered worst-last so classification can take the max of the active
/// conditions.
enum class ServeHealth {
  kOk = 0,           ///< both classes served, plan fresh, breaker closed
  kDegraded = 1,     ///< serving, but the plan is stale or ladder-produced
  kShedding = 2,     ///< ordinary load is being shed (water-filling)
  kBreakerOpen = 3,  ///< re-plan circuit breaker is open / probing
  kStandby = 4,      ///< premium-only standby rung
};
const char* to_string(ServeHealth health) noexcept;

/// Derives the health word from the subsystems' states. `plan_unreliable`
/// is "the active plan is degraded or past its staleness tolerance".
ServeHealth classify_health(AdmissionLevel admission,
                            core::BreakerState breaker,
                            bool plan_unreliable) noexcept;

/// One recorded state change.
struct HealthTransition {
  std::size_t tick = 0;
  ServeHealth from = ServeHealth::kOk;
  ServeHealth to = ServeHealth::kOk;
};

/// Tracks the current health word and a *bounded* transition history (the
/// journal must not grow with uptime): the newest kMaxHistory transitions
/// are kept, older ones are evicted but still counted. The history encodes
/// to a single journal value and decodes bit-identically, so a resumed
/// daemon continues the same transition log.
class HealthTracker {
 public:
  static constexpr std::size_t kMaxHistory = 64;

  explicit HealthTracker(ServeHealth initial = ServeHealth::kOk);

  ServeHealth current() const noexcept { return current_; }
  const std::vector<HealthTransition>& history() const noexcept {
    return history_;
  }
  /// Transitions ever observed, including evicted ones.
  std::size_t transitions_total() const noexcept { return total_; }

  /// Observes this tick's health; records a transition when it changed.
  /// Returns true exactly when a transition was recorded.
  bool observe(ServeHealth next, std::size_t tick);

  /// "tick:from:to tick:from:to ..." — one journal value.
  std::string encode_history() const;

  /// Rebuilds a tracker from checkpointed state. Throws std::runtime_error
  /// on a malformed encoding (a corrupted journal must not half-load).
  static HealthTracker decode(ServeHealth current, std::size_t total,
                              const std::string& encoded);

 private:
  ServeHealth current_;
  std::vector<HealthTransition> history_;
  std::size_t total_ = 0;
};

}  // namespace billcap::serve
