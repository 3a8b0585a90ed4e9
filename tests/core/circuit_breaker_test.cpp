// The one circuit breaker (serve's re-plans on a tick clock, the market
// coupler's fixed point on an hour clock): consecutive failures trip it,
// cooldowns grow exponentially across failed half-open probes, a clean
// probe closes it, and its state round-trips through a checkpoint.
#include "core/circuit_breaker.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace billcap::core {
namespace {

BreakerConfig breaker_config() {
  BreakerConfig c;
  c.trip_after = 3;
  c.cooldown = 2;
  c.max_cooldown = 5;
  return c;
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveDegradedReplansOnly) {
  CircuitBreaker breaker(breaker_config());
  breaker.on_replan(true);
  breaker.on_replan(true);
  // A clean re-plan resets the consecutive counter.
  breaker.on_replan(false);
  breaker.on_replan(true);
  breaker.on_replan(true);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allows_replan());

  EXPECT_TRUE(breaker.on_replan(true));  // third consecutive: trip
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allows_replan());
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, ExponentialHalfOpenProbingThenCleanClose) {
  CircuitBreaker breaker(breaker_config());
  for (int i = 0; i < 3; ++i) breaker.on_replan(true);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  // First cooldown is 2 ticks, then exactly one probe is allowed.
  EXPECT_FALSE(breaker.on_tick());
  EXPECT_TRUE(breaker.on_tick());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allows_replan());

  // Failed probe: re-open for 2 * 2 = 4 ticks.
  EXPECT_TRUE(breaker.on_replan(true));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(breaker.on_tick());
  EXPECT_TRUE(breaker.on_tick());
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);

  // Another failed probe: 4 * 2 = 8 caps at max_cooldown = 5.
  breaker.on_replan(true);
  EXPECT_EQ(breaker.snapshot().current_cooldown, 5u);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(breaker.on_tick());
  EXPECT_TRUE(breaker.on_tick());

  // A clean probe closes the breaker and forgets the escalated cooldown.
  EXPECT_TRUE(breaker.on_replan(false));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.snapshot().current_cooldown,
            breaker_config().cooldown);
  EXPECT_EQ(breaker.trips(), 3u);
}

TEST(CircuitBreakerTest, SnapshotRestoreRoundTripsMidCooldown) {
  CircuitBreaker breaker(breaker_config());
  for (int i = 0; i < 3; ++i) breaker.on_replan(true);
  breaker.on_tick();  // one tick into the first cooldown
  const CircuitBreaker::State snap = breaker.snapshot();

  CircuitBreaker resumed(breaker_config());
  resumed.restore(snap);
  EXPECT_EQ(resumed.state(), BreakerState::kOpen);
  EXPECT_EQ(resumed.trips(), 1u);
  // The restored breaker finishes the same cooldown on the same tick.
  EXPECT_TRUE(resumed.on_tick());
  EXPECT_EQ(resumed.state(), BreakerState::kHalfOpen);
}

TEST(CircuitBreakerTest, DegenerateConfigsAreRejected) {
  BreakerConfig bad = breaker_config();
  bad.trip_after = 0;
  EXPECT_THROW(CircuitBreaker{bad}, std::invalid_argument);
  bad = breaker_config();
  bad.cooldown = 0;
  EXPECT_THROW(CircuitBreaker{bad}, std::invalid_argument);
}

TEST(CircuitBreakerTest, ClosedRestoreResumesAtTheBaseCooldown) {
  // Older coupler checkpoints stored a closed breaker's current cooldown as
  // 0. The next trip must still open for the base cooldown.
  CircuitBreaker breaker(breaker_config());
  CircuitBreaker::State closed;
  closed.trips = 2;
  closed.current_cooldown = 0;
  breaker.restore(closed);
  EXPECT_EQ(breaker.snapshot().current_cooldown, breaker_config().cooldown);
  for (int i = 0; i < 3; ++i) breaker.on_replan(true);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.snapshot().cooldown_remaining, breaker_config().cooldown);
  EXPECT_EQ(breaker.trips(), 3u);

  // A stored nonzero cooldown is kept, closed or not (serve's fresh state
  // stores 1).
  closed.current_cooldown = 1;
  breaker.restore(closed);
  EXPECT_EQ(breaker.snapshot().current_cooldown, 1u);
}

TEST(CircuitBreakerTest, PersistedStateWordIsRangeChecked) {
  EXPECT_EQ(breaker_state_from(2), BreakerState::kHalfOpen);
  EXPECT_THROW(breaker_state_from(3), std::runtime_error);
}

}  // namespace
}  // namespace billcap::core
