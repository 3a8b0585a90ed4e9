// Unit tests for the serving daemon's deterministic parts: the bounded
// ingest plane (BoundedQueue, FeedUpdateQueue), the admission ladder's
// hysteresis, and the HealthTracker's bounded, journal-round-trippable
// history.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "serve/admission.hpp"
#include "serve/health.hpp"
#include "serve/ingest.hpp"

namespace billcap::serve {
namespace {

TEST(BoundedQueueTest, OfferAcceptsWhatFitsAndCountsTheRest) {
  BoundedQueue q(10.0);
  EXPECT_DOUBLE_EQ(q.offer(4.0), 4.0);
  EXPECT_DOUBLE_EQ(q.depth(), 4.0);
  EXPECT_DOUBLE_EQ(q.fill(), 0.4);
  EXPECT_DOUBLE_EQ(q.dropped(), 0.0);

  // 8 offered, 6 fit: the overflow goes to the drop counter, never the heap.
  EXPECT_DOUBLE_EQ(q.offer(8.0), 6.0);
  EXPECT_DOUBLE_EQ(q.depth(), 10.0);
  EXPECT_DOUBLE_EQ(q.dropped(), 2.0);

  // A full queue drops everything at the door.
  EXPECT_DOUBLE_EQ(q.offer(3.0), 0.0);
  EXPECT_DOUBLE_EQ(q.dropped(), 5.0);
}

TEST(BoundedQueueTest, TakeDrainsUpToDepth) {
  BoundedQueue q(10.0);
  q.offer(6.0);
  EXPECT_DOUBLE_EQ(q.take(4.0), 4.0);
  EXPECT_DOUBLE_EQ(q.depth(), 2.0);
  EXPECT_DOUBLE_EQ(q.take(100.0), 2.0);
  EXPECT_DOUBLE_EQ(q.depth(), 0.0);
  EXPECT_DOUBLE_EQ(q.take(1.0), 0.0);
}

TEST(BoundedQueueTest, RestoreOverwritesMutableState) {
  BoundedQueue q(10.0);
  q.offer(3.0);
  q.restore(7.5, 12.25);
  EXPECT_DOUBLE_EQ(q.depth(), 7.5);
  EXPECT_DOUBLE_EQ(q.dropped(), 12.25);
  EXPECT_DOUBLE_EQ(q.capacity(), 10.0);
}

TEST(BoundedQueueTest, ZeroCapacityIsAConfigurationBug) {
  EXPECT_THROW(BoundedQueue(0.0), std::invalid_argument);
  EXPECT_THROW(BoundedQueue(-1.0), std::invalid_argument);
}

TEST(FeedUpdateQueueTest, OverflowIsDroppedAndCounted) {
  FeedUpdateQueue q(4);
  q.push(3);
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_EQ(q.seen(), 3u);
  EXPECT_EQ(q.dropped(), 0u);

  // 5 more revisions, 1 slot left: 4 drop, all 5 count as seen.
  q.push(5);
  EXPECT_EQ(q.pending(), 4u);
  EXPECT_EQ(q.seen(), 8u);
  EXPECT_EQ(q.dropped(), 4u);

  EXPECT_EQ(q.drain(3), 3u);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.drain(10), 1u);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.drain(1), 0u);
}

TEST(FeedUpdateQueueTest, RestoreRoundTrips) {
  FeedUpdateQueue q(8);
  q.restore(/*pending=*/5, /*seen=*/20, /*dropped=*/7);
  EXPECT_EQ(q.pending(), 5u);
  EXPECT_EQ(q.seen(), 20u);
  EXPECT_EQ(q.dropped(), 7u);
}

AdmissionConfig ladder_config() {
  AdmissionConfig c;
  c.shed_enter_fill = 0.70;
  c.shed_exit_fill = 0.30;
  c.standby_enter_fill = 0.95;
  c.standby_exit_fill = 0.50;
  c.stale_ticks_tolerated = 4;
  return c;
}

TEST(AdmissionControllerTest, EscalatesImmediatelyOnPressure) {
  AdmissionController ladder(ladder_config());
  EXPECT_EQ(ladder.level(), AdmissionLevel::kAdmitAll);

  // Ordinary pressure past the enter threshold sheds in the same tick.
  EXPECT_EQ(ladder.update({0.1, 0.75, 0, false}),
            AdmissionLevel::kShedOrdinary);
  // Premium pressure forces the standby rung, skipping nothing.
  EXPECT_EQ(ladder.update({0.96, 0.75, 0, false}),
            AdmissionLevel::kPremiumOnly);
}

TEST(AdmissionControllerTest, DeEscalationIsHystereticAndOneRungPerTick) {
  AdmissionController ladder(ladder_config());
  ladder.update({0.96, 0.80, 0, false});
  ASSERT_EQ(ladder.level(), AdmissionLevel::kPremiumOnly);

  // Pressure between exit and enter thresholds holds the rung (hysteresis).
  EXPECT_EQ(ladder.update({0.60, 0.10, 0, false}),
            AdmissionLevel::kPremiumOnly);

  // Clearing the exit threshold steps down exactly one rung per tick,
  // even though the pressure alone would allow admit-all.
  EXPECT_EQ(ladder.update({0.10, 0.10, 0, false}),
            AdmissionLevel::kShedOrdinary);
  EXPECT_EQ(ladder.update({0.10, 0.10, 0, false}), AdmissionLevel::kAdmitAll);
}

TEST(AdmissionControllerTest, StalePlanAndOpenBreakerDemandShedding) {
  AdmissionController ladder(ladder_config());
  // Staleness within tolerance: no reaction.
  EXPECT_EQ(ladder.update({0.1, 0.1, 4, false}), AdmissionLevel::kAdmitAll);
  // One past tolerance: the plan is unreliable, shed the best-effort class.
  EXPECT_EQ(ladder.update({0.1, 0.1, 5, false}),
            AdmissionLevel::kShedOrdinary);

  AdmissionController ladder2(ladder_config());
  EXPECT_EQ(ladder2.update({0.1, 0.1, 0, true}),
            AdmissionLevel::kShedOrdinary);
  // Broken re-plan path AND heavy ordinary pressure: standby rung.
  EXPECT_EQ(ladder2.update({0.1, 0.96, 0, true}),
            AdmissionLevel::kPremiumOnly);
}

TEST(AdmissionControllerTest, PinnedControllerIgnoresPressure) {
  AdmissionController ladder(ladder_config(), /*pin_premium_only=*/true);
  EXPECT_EQ(ladder.level(), AdmissionLevel::kPremiumOnly);
  EXPECT_EQ(ladder.update({0.0, 0.0, 0, false}),
            AdmissionLevel::kPremiumOnly);
  ladder.restore(AdmissionLevel::kAdmitAll);  // restore cannot unpin either
  EXPECT_EQ(ladder.level(), AdmissionLevel::kPremiumOnly);
}

TEST(AdmissionControllerTest, InvertedHysteresisIsRejected) {
  AdmissionConfig bad = ladder_config();
  bad.shed_exit_fill = bad.shed_enter_fill;
  EXPECT_THROW(AdmissionController{bad}, std::invalid_argument);
}

TEST(HealthClassifyTest, WorstActiveConditionWins) {
  using A = AdmissionLevel;
  using B = core::BreakerState;
  EXPECT_EQ(classify_health(A::kAdmitAll, B::kClosed, false),
            ServeHealth::kOk);
  EXPECT_EQ(classify_health(A::kAdmitAll, B::kClosed, true),
            ServeHealth::kDegraded);
  EXPECT_EQ(classify_health(A::kShedOrdinary, B::kClosed, true),
            ServeHealth::kShedding);
  EXPECT_EQ(classify_health(A::kShedOrdinary, B::kOpen, false),
            ServeHealth::kBreakerOpen);
  EXPECT_EQ(classify_health(A::kShedOrdinary, B::kHalfOpen, false),
            ServeHealth::kBreakerOpen);
  EXPECT_EQ(classify_health(A::kPremiumOnly, B::kOpen, true),
            ServeHealth::kStandby);
}

TEST(HealthTrackerTest, RecordsTransitionsAndBoundsHistory) {
  HealthTracker tracker;
  EXPECT_FALSE(tracker.observe(ServeHealth::kOk, 0));  // no change, no entry
  EXPECT_TRUE(tracker.observe(ServeHealth::kShedding, 1));
  EXPECT_TRUE(tracker.observe(ServeHealth::kOk, 2));
  EXPECT_EQ(tracker.transitions_total(), 2u);
  ASSERT_EQ(tracker.history().size(), 2u);
  EXPECT_EQ(tracker.history()[0].from, ServeHealth::kOk);
  EXPECT_EQ(tracker.history()[0].to, ServeHealth::kShedding);

  // Flapping far past the bound: the newest kMaxHistory survive, evicted
  // ones stay counted (the journal must not grow with uptime).
  for (std::size_t t = 3; t < 3 + 2 * HealthTracker::kMaxHistory; ++t)
    tracker.observe(t % 2 ? ServeHealth::kDegraded : ServeHealth::kOk, t);
  EXPECT_EQ(tracker.history().size(), HealthTracker::kMaxHistory);
  EXPECT_EQ(tracker.transitions_total(), 2u + 2 * HealthTracker::kMaxHistory);
  EXPECT_EQ(tracker.history().back().tick,
            3 + 2 * HealthTracker::kMaxHistory - 1);
}

TEST(HealthTrackerTest, EncodeDecodeRoundTripsBitIdentically) {
  HealthTracker tracker;
  tracker.observe(ServeHealth::kShedding, 7);
  tracker.observe(ServeHealth::kBreakerOpen, 9);
  tracker.observe(ServeHealth::kOk, 40);

  const HealthTracker back = HealthTracker::decode(
      tracker.current(), tracker.transitions_total(),
      tracker.encode_history());
  EXPECT_EQ(back.current(), tracker.current());
  EXPECT_EQ(back.transitions_total(), tracker.transitions_total());
  ASSERT_EQ(back.history().size(), tracker.history().size());
  for (std::size_t i = 0; i < back.history().size(); ++i) {
    EXPECT_EQ(back.history()[i].tick, tracker.history()[i].tick);
    EXPECT_EQ(back.history()[i].from, tracker.history()[i].from);
    EXPECT_EQ(back.history()[i].to, tracker.history()[i].to);
  }
  // And the re-encoding is byte-identical (journal value stability).
  EXPECT_EQ(back.encode_history(), tracker.encode_history());
}

TEST(HealthTrackerTest, DecodeRefusesMalformedEncodings) {
  EXPECT_THROW(HealthTracker::decode(ServeHealth::kOk, 1, "not-a-token"),
               std::runtime_error);
  EXPECT_THROW(HealthTracker::decode(ServeHealth::kOk, 1, "5:0"),
               std::runtime_error);
  EXPECT_THROW(HealthTracker::decode(ServeHealth::kOk, 1, "5:0:9"),
               std::runtime_error);  // 9 is no ServeHealth value
  // An empty history is a valid (freshly started) tracker.
  EXPECT_EQ(HealthTracker::decode(ServeHealth::kOk, 0, "").history().size(),
            0u);
}

}  // namespace
}  // namespace billcap::serve
