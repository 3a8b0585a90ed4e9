#include "serve/health.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace billcap::serve {

const char* to_string(ServeHealth health) noexcept {
  switch (health) {
    case ServeHealth::kOk: return "OK";
    case ServeHealth::kDegraded: return "DEGRADED";
    case ServeHealth::kShedding: return "SHEDDING";
    case ServeHealth::kBreakerOpen: return "BREAKER_OPEN";
    case ServeHealth::kStandby: return "STANDBY";
  }
  return "unknown";
}

ServeHealth classify_health(AdmissionLevel admission,
                            core::BreakerState breaker,
                            bool plan_unreliable) noexcept {
  ServeHealth health = ServeHealth::kOk;
  if (plan_unreliable) health = std::max(health, ServeHealth::kDegraded);
  if (admission == AdmissionLevel::kShedOrdinary)
    health = std::max(health, ServeHealth::kShedding);
  if (breaker != core::BreakerState::kClosed)
    health = std::max(health, ServeHealth::kBreakerOpen);
  if (admission == AdmissionLevel::kPremiumOnly)
    health = std::max(health, ServeHealth::kStandby);
  return health;
}

HealthTracker::HealthTracker(ServeHealth initial) : current_(initial) {}

bool HealthTracker::observe(ServeHealth next, std::size_t tick) {
  if (next == current_) return false;
  if (history_.size() >= kMaxHistory)
    history_.erase(history_.begin());  // evict oldest; the count remains
  history_.push_back({tick, current_, next});
  ++total_;
  current_ = next;
  return true;
}

std::string HealthTracker::encode_history() const {
  std::string out;
  for (const auto& t : history_) {
    if (!out.empty()) out += ' ';
    out += std::to_string(t.tick);
    out += ':';
    out += std::to_string(static_cast<int>(t.from));
    out += ':';
    out += std::to_string(static_cast<int>(t.to));
  }
  return out;
}

namespace {

ServeHealth health_from_int(long value) {
  if (value < 0 || value > static_cast<long>(ServeHealth::kStandby))
    throw std::runtime_error("HealthTracker: health value out of range");
  return static_cast<ServeHealth>(value);
}

}  // namespace

HealthTracker HealthTracker::decode(ServeHealth current, std::size_t total,
                                    const std::string& encoded) {
  HealthTracker tracker(current);
  tracker.total_ = total;
  std::istringstream stream(encoded);
  std::string token;
  // Tokens are the fixed-size history tail, never more than kMaxHistory —
  // the encoder only ever emits a bounded window.
  while (stream >> token) {
    HealthTransition t;
    long from = 0;
    long to = 0;
    if (std::sscanf(token.c_str(), "%zu:%ld:%ld", &t.tick, &from, &to) != 3)
      throw std::runtime_error("HealthTracker: malformed history token '" +
                               token + "'");
    t.from = health_from_int(from);
    t.to = health_from_int(to);
    if (tracker.history_.size() >= kMaxHistory)
      throw std::runtime_error("HealthTracker: history exceeds bound");
    tracker.history_.push_back(t);
  }
  return tracker;
}

}  // namespace billcap::serve
