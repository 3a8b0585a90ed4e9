#include "core/checkpoint_legacy.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <vector>

#include "core/checkpoint_keys.hpp"
#include "util/journal.hpp"
#include "util/record_log.hpp"

namespace billcap::core {

namespace {

void put_u(std::ostringstream& os, std::uint64_t v) { os << v << ' '; }
void put_d(std::ostringstream& os, double v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  os << buf << ' ';
}

/// One HourRecord as the v1 text token record the loader's decode_hour
/// reads back.
std::string encode_hour(const HourRecord& rec) {
  std::ostringstream os;
  put_u(os, rec.hour);
  put_u(os, static_cast<std::uint64_t>(rec.mode));
  put_u(os, static_cast<std::uint64_t>(rec.failure));
  put_u(os, rec.degraded ? 1 : 0);
  put_u(os, rec.used_incumbent ? 1 : 0);
  put_u(os, rec.used_heuristic ? 1 : 0);
  put_u(os, rec.stale_prices ? 1 : 0);
  put_u(os, static_cast<std::uint64_t>(rec.feed_attempts));
  put_u(os, rec.feed_recovered ? 1 : 0);
  put_u(os, rec.sites_down);
  put_u(os, static_cast<std::uint64_t>(rec.nodes));
  put_d(os, rec.arrivals);
  put_d(os, rec.premium_arrivals);
  put_d(os, rec.ordinary_arrivals);
  put_d(os, rec.served_premium);
  put_d(os, rec.served_ordinary);
  put_d(os, rec.hourly_budget);
  put_d(os, rec.cost);
  put_d(os, rec.predicted_cost);
  // The retired wall-time word: writers of this format stored the hour's
  // measured solve time here, and the loader ignores it.
  put_d(os, 2.5);
  put_u(os, rec.site_lambda.size());
  for (double v : rec.site_lambda) put_d(os, v);
  put_u(os, rec.site_power_mw.size());
  for (double v : rec.site_power_mw) put_d(os, v);
  // Coupler fields: appended after every original v1 field, so records
  // written before the coupler existed decode with the (zero) defaults.
  put_u(os, rec.coupler_iterations);
  put_u(os, rec.coupler_converged ? 1 : 0);
  put_u(os, rec.coupler_fallback ? 1 : 0);
  put_u(os, rec.coupler_rung);
  return os.str();
}

/// Every CheckpointState field but the HourRecords, as the v1 and v2
/// heads carried them; the caller adds the hours (inline or as a log
/// prefix).
util::Journal legacy_head(const CheckpointState& state, int version) {
  util::Journal journal(keys::kCheckpointMagic, version);
  journal.set_u64(keys::kConfigDigest, state.config_digest);
  journal.set_u64(keys::kStrategy, static_cast<std::uint64_t>(state.strategy));
  journal.set_size(keys::kNextHour, state.next_hour);
  journal.set_double_bits(keys::kSpent, state.spent);
  journal.set_size(keys::kCrashesFired, state.crashes_fired);
  journal.set_size(keys::kStormsFired, state.storms_fired);
  journal.set_size(keys::kCorruptionsFired, state.corruptions_fired);
  for (std::size_t i = 0; i < state.feed.rng.size(); ++i)
    journal.set_u64(keys::feed_rng(i), state.feed.rng[i]);
  journal.set_size(keys::kFeedRecoveredUntil, state.feed.recovered_until);

  const MarketCoupler::State& cp = state.coupler;
  journal.set_u64(keys::kCouplerBreakerState,
                  static_cast<std::uint64_t>(cp.breaker.state));
  journal.set_size(keys::kCouplerConsecTroubled, cp.breaker.consecutive_failed);
  journal.set_size(keys::kCouplerCooldown, cp.breaker.cooldown_remaining);
  journal.set_size(keys::kCouplerCurrentCooldown, cp.breaker.current_cooldown);
  journal.set_size(keys::kCouplerTrips, cp.breaker.trips);
  journal.set_size(keys::kCouplerRung, cp.rung);
  journal.set_size(keys::kCouplerCleanStreak, cp.clean_streak);
  journal.set_u64(keys::kCouplerLastValid, cp.last_valid ? 1 : 0);
  {
    std::ostringstream active;
    for (std::size_t i = 0; i < cp.last_active.size(); ++i) {
      if (i) active << ' ';
      active << static_cast<unsigned>(cp.last_active[i]);
    }
    journal.set(keys::kCouplerLastActive, active.str());
  }
  {
    std::ostringstream power;
    for (double v : cp.last_power_mw) put_d(power, v);
    journal.set(keys::kCouplerLastPower, power.str());
  }

  const MonthlyResult& r = state.partial;
  journal.set_double_bits(keys::kMonthlyBudget, r.monthly_budget);
  journal.set_double_bits(keys::kTotalCost, r.total_cost);
  journal.set_double_bits(keys::kTotalPremiumArrivals, r.total_premium_arrivals);
  journal.set_double_bits(keys::kTotalOrdinaryArrivals,
                          r.total_ordinary_arrivals);
  journal.set_double_bits(keys::kTotalServedPremium, r.total_served_premium);
  journal.set_double_bits(keys::kTotalServedOrdinary, r.total_served_ordinary);
  journal.set_size(keys::kDegradedHours, r.degraded_hours);
  journal.set_size(keys::kIncumbentHours, r.incumbent_hours);
  journal.set_size(keys::kHeuristicHours, r.heuristic_hours);
  journal.set_size(keys::kOutageHours, r.outage_hours);
  journal.set_size(keys::kStaleHours, r.stale_hours);
  journal.set_size(keys::kFeedRetryAttempts, r.feed_retry_attempts);
  journal.set_size(keys::kFeedRecoveredHours, r.feed_recovered_hours);
  journal.set_size(keys::kCrashRecoveries, r.crash_recoveries);
  journal.set_size(keys::kClosedLoopHours, r.closed_loop_hours);
  journal.set_size(keys::kCouplerFallbackHours, r.coupler_fallback_hours);
  journal.set_size(keys::kCouplerIterations, r.coupler_iterations);
  {
    std::ostringstream tally;
    for (std::size_t i = 0; i < r.failure_tally.size(); ++i) {
      if (i) tally << ' ';
      tally << r.failure_tally[i];
    }
    journal.set(keys::kFailureTally, tally.str());
  }
  journal.set_size(keys::kDegradedChunks, r.degraded_chunks);
  journal.set_size(keys::kQuarantinedChunks, r.quarantined_chunks);
  journal.set_size(keys::kRegionDownChunks, r.region_down_chunks);
  {
    std::ostringstream tally;
    for (std::size_t i = 0; i < r.chunk_failure_tally.size(); ++i) {
      if (i) tally << ' ';
      tally << r.chunk_failure_tally[i];
    }
    journal.set(keys::kChunkFailureTally, tally.str());
  }

  return journal;
}

}  // namespace

void save_checkpoint_v1(const std::string& path, const CheckpointState& state) {
  util::Journal journal = legacy_head(state, keys::kCheckpointInlineVersion);
  const std::vector<HourRecord>& hours = state.partial.hours;
  journal.set_size(keys::kHours, hours.size());
  for (std::size_t i = 0; i < hours.size(); ++i)
    journal.set(keys::hour(i), encode_hour(hours[i]));
  journal.save_atomic(path);
}

void save_checkpoint_v2(const std::string& path, const CheckpointState& state) {
  const std::string log_path = path + ".hours";
  const std::vector<HourRecord>& hours = state.partial.hours;
  util::RecordLog::Cursor prefix;
  if (!hours.empty()) {
    std::vector<std::string> records;
    for (const HourRecord& rec : hours)
      records.push_back(encode_hour_record(rec));
    prefix = util::RecordLog::create(log_path, state.config_digest, records);
  }
  util::Journal head = legacy_head(state, keys::kCheckpointHourLogVersion);
  head.set_size(keys::kHours, prefix.count);
  head.set(keys::kHourLog, log_path.substr(log_path.find_last_of('/') + 1));
  head.set_u64(keys::kHourLogChain, prefix.chain);
  head.save_atomic(path);
}

}  // namespace billcap::core
