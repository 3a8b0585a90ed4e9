#pragma once

#include <cstddef>
#include <string>

namespace billcap::core::keys {

/// The one registry of every key the checkpoint journal reads or writes.
/// save_checkpoint_rotated and load_checkpoint (and the fallback load built
/// on it) must both go through these constants so a typo cannot make
/// a field silently vanish on resume — billcap-lint rule BL011
/// (journal-key) rejects raw string keys at Journal call sites.

/// On-disk format identity of the checkpoint head. Version 3 is a head
/// written once per month (kConfigDigest, kStrategy, kMonthlyBudget, the
/// state log's file name kStateLog and record width kStateLogWidth) beside
/// an append-only state log holding one record per commit. It is the only
/// batch format read: a head of an older version is refused by name.
inline constexpr const char* kCheckpointMagic = "billcap-checkpoint";
inline constexpr int kCheckpointVersion = 3;

// ---- the batch head --------------------------------------------------------
inline constexpr const char* kConfigDigest = "config_digest";
inline constexpr const char* kStrategy = "strategy";
inline constexpr const char* kMonthlyBudget = "monthly_budget";
// The state log's file name (beside the head) and the width of its records.
inline constexpr const char* kStateLog = "state_log";
inline constexpr const char* kStateLogWidth = "state_log_record_bytes";

// ---- serve-mode checkpoint -------------------------------------------------
// The serving daemon journals tick-granular state under its own magic so a
// batch checkpoint can never be mistaken for a serve checkpoint (or vice
// versa); key constants still live in this one registry so BL011 covers
// both writers. kConfigDigest is shared with the batch head above; the
// keys without the kServe prefix keep the on-disk names serve checkpoints
// already carry.
inline constexpr const char* kServeCheckpointMagic = "billcap-serve-checkpoint";
inline constexpr int kServeCheckpointVersion = 1;
inline constexpr const char* kSpent = "spent";
inline constexpr const char* kFeedRecoveredUntil = "feed_recovered_until";
inline constexpr const char* kTotalPremiumArrivals = "total_premium_arrivals";
inline constexpr const char* kTotalOrdinaryArrivals = "total_ordinary_arrivals";
inline constexpr const char* kTotalServedPremium = "total_served_premium";
inline constexpr const char* kTotalServedOrdinary = "total_served_ordinary";
inline constexpr const char* kServeNextTick = "next_tick";
inline constexpr const char* kServeHour = "serve_hour";
inline constexpr const char* kServeHourBudget = "serve_hour_budget";
inline constexpr const char* kServeHourStale = "serve_hour_stale";
inline constexpr const char* kServeObservedHour = "serve_observed_hour";
inline constexpr const char* kServePremiumDepth = "serve_premium_depth";
inline constexpr const char* kServeOrdinaryDepth = "serve_ordinary_depth";
inline constexpr const char* kServeDroppedPremium = "serve_dropped_premium";
inline constexpr const char* kServeDroppedOrdinary = "serve_dropped_ordinary";
inline constexpr const char* kServeFeedPending = "serve_feed_pending";
inline constexpr const char* kServeFeedSeen = "serve_feed_seen";
inline constexpr const char* kServeFeedDropped = "serve_feed_dropped";
inline constexpr const char* kServeBreakerState = "serve_breaker_state";
inline constexpr const char* kServeBreakerDegraded = "serve_breaker_degraded";
inline constexpr const char* kServeBreakerCooldown = "serve_breaker_cooldown";
inline constexpr const char* kServeBreakerWindow = "serve_breaker_window";
inline constexpr const char* kServeBreakerTrips = "serve_breaker_trips";
inline constexpr const char* kServeAdmissionLevel = "serve_admission_level";
inline constexpr const char* kServePlanValid = "serve_plan_valid";
inline constexpr const char* kServePlanDegraded = "serve_plan_degraded";
inline constexpr const char* kServePlanLambda = "serve_plan_lambda";
inline constexpr const char* kServePlanPremiumRate = "serve_plan_premium_rate";
inline constexpr const char* kServePlanOrdinaryRate =
    "serve_plan_ordinary_rate";
inline constexpr const char* kServePlanPredictedCost =
    "serve_plan_predicted_cost";
inline constexpr const char* kServePlanTick = "serve_plan_tick";
// Closed-loop coupling anchor (absent on pre-coupler serve checkpoints).
inline constexpr const char* kServeCoupledAnchorValid =
    "serve_coupled_anchor_valid";
inline constexpr const char* kServeCoupledAnchorLambda =
    "serve_coupled_anchor_lambda";
inline constexpr const char* kServeCoupledRefreshes =
    "serve_coupled_refreshes";
inline constexpr const char* kServeHealth = "serve_health";
inline constexpr const char* kServeHealthHistory = "serve_health_history";
inline constexpr const char* kServeHealthTransitions =
    "serve_health_transitions";
inline constexpr const char* kServeKillsFired = "serve_kills_fired";
inline constexpr const char* kServeMaxPremiumDepth = "serve_max_premium_depth";
inline constexpr const char* kServeMaxOrdinaryDepth =
    "serve_max_ordinary_depth";
inline constexpr const char* kServeReplans = "serve_replans";
inline constexpr const char* kServeDegradedReplans = "serve_degraded_replans";
inline constexpr const char* kServeShedTicks = "serve_shed_ticks";
inline constexpr const char* kServeStandbyTicks = "serve_standby_ticks";
inline constexpr const char* kServeDegradedTicks = "serve_degraded_ticks";

// ---- indexed key families --------------------------------------------------

/// Key of word `i` of the market-feed RNG state.
inline std::string feed_rng(std::size_t i) {
  return "feed_rng" + std::to_string(i);
}

}  // namespace billcap::core::keys
