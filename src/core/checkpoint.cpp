#include "core/checkpoint.hpp"

#include <bit>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/checkpoint_keys.hpp"
#include "util/fnv1a.hpp"
#include "util/journal.hpp"
#include "util/record_log.hpp"

namespace billcap::core {

namespace {

// ---- token stream for HourRecord ------------------------------------------

void put_d(std::ostringstream& os, double v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  os << buf << ' ';
}

std::uint64_t take_u(std::istringstream& is) {
  std::uint64_t v = 0;
  if (!(is >> v)) throw std::runtime_error("checkpoint: truncated hour record");
  return v;
}
/// EOF-tolerant read for fields appended after the v1 layout: a record from
/// an older writer simply runs out of tokens, which must read as the field's
/// default — only a *malformed* token still throws.
bool take_u_opt(std::istringstream& is, std::uint64_t& out) {
  std::string token;
  if (!(is >> token)) return false;  // clean EOF: pre-extension record
  std::uint64_t v = 0;
  const auto res =
      std::from_chars(token.data(), token.data() + token.size(), v, 10);
  if (res.ec != std::errc{} || res.ptr != token.data() + token.size())
    throw std::runtime_error("checkpoint: malformed hour record");
  out = v;
  return true;
}
double take_d(std::istringstream& is) {
  std::string token;
  if (!(is >> token) || token.size() != 16)
    throw std::runtime_error("checkpoint: malformed hour record");
  std::uint64_t bits = 0;
  const auto res =
      std::from_chars(token.data(), token.data() + token.size(), bits, 16);
  if (res.ec != std::errc{} || res.ptr != token.data() + token.size())
    throw std::runtime_error("checkpoint: malformed hour record");
  return std::bit_cast<double>(bits);
}

HourRecord decode_hour(const std::string& text) {
  std::istringstream is(text);
  HourRecord rec;
  rec.hour = static_cast<std::size_t>(take_u(is));
  rec.mode = static_cast<CappingOutcome::Mode>(take_u(is));
  rec.failure = static_cast<FailureReason>(take_u(is));
  rec.degraded = take_u(is) != 0;
  rec.used_incumbent = take_u(is) != 0;
  rec.used_heuristic = take_u(is) != 0;
  rec.stale_prices = take_u(is) != 0;
  rec.feed_attempts = static_cast<int>(take_u(is));
  rec.feed_recovered = take_u(is) != 0;
  rec.sites_down = static_cast<std::size_t>(take_u(is));
  rec.nodes = static_cast<long>(take_u(is));
  rec.arrivals = take_d(is);
  rec.premium_arrivals = take_d(is);
  rec.ordinary_arrivals = take_d(is);
  rec.served_premium = take_d(is);
  rec.served_ordinary = take_d(is);
  rec.hourly_budget = take_d(is);
  rec.cost = take_d(is);
  rec.predicted_cost = take_d(is);
  take_d(is);  // the retired wall-time word: ignored
  const std::size_t n_lambda = static_cast<std::size_t>(take_u(is));
  rec.site_lambda.reserve(n_lambda);
  for (std::size_t i = 0; i < n_lambda; ++i)
    rec.site_lambda.push_back(take_d(is));
  const std::size_t n_power = static_cast<std::size_t>(take_u(is));
  rec.site_power_mw.reserve(n_power);
  for (std::size_t i = 0; i < n_power; ++i)
    rec.site_power_mw.push_back(take_d(is));
  std::uint64_t v = 0;
  if (take_u_opt(is, v)) {
    rec.coupler_iterations = static_cast<std::size_t>(v);
    rec.coupler_converged = take_u(is) != 0;
    rec.coupler_fallback = take_u(is) != 0;
    rec.coupler_rung = static_cast<std::size_t>(take_u(is));
  }
  return rec;
}

// ---- fixed-width binary HourRecord (hour log, format v2) ------------------

/// Fixed words of a log record before its two per-site arrays.
constexpr std::size_t kRecordWords = 20;

std::string encode_record(const HourRecord& rec) {
  std::string out(
      8 * (kRecordWords + rec.site_lambda.size() + rec.site_power_mw.size()),
      '\0');
  char* at = out.data();
  const auto put = [&at](std::uint64_t v) {
    util::store_le64(at, v);
    at += 8;
  };
  const auto put_bits = [&put](double v) {
    put(std::bit_cast<std::uint64_t>(v));
  };
  put(rec.hour);
  put(static_cast<std::uint64_t>(rec.mode));
  put(static_cast<std::uint64_t>(rec.failure));
  put((rec.degraded ? 1u : 0u) | (rec.used_incumbent ? 2u : 0u) |
      (rec.used_heuristic ? 4u : 0u) | (rec.stale_prices ? 8u : 0u) |
      (rec.feed_recovered ? 16u : 0u) | (rec.coupler_converged ? 32u : 0u) |
      (rec.coupler_fallback ? 64u : 0u));
  put(static_cast<std::uint64_t>(static_cast<std::int64_t>(rec.feed_attempts)));
  put(rec.sites_down);
  put(static_cast<std::uint64_t>(static_cast<std::int64_t>(rec.nodes)));
  put(rec.coupler_iterations);
  put(rec.coupler_rung);
  put_bits(rec.arrivals);
  put_bits(rec.premium_arrivals);
  put_bits(rec.ordinary_arrivals);
  put_bits(rec.served_premium);
  put_bits(rec.served_ordinary);
  put_bits(rec.hourly_budget);
  put_bits(rec.cost);
  put_bits(rec.predicted_cost);
  put_bits(0.0);  // the retired wall-time word keeps the width
  put(rec.site_lambda.size());
  put(rec.site_power_mw.size());
  for (double v : rec.site_lambda) put_bits(v);
  for (double v : rec.site_power_mw) put_bits(v);
  return out;
}

/// Decodes one log record; `slot` is record_bytes wide, zero-padded past
/// the record's own arrays.
HourRecord decode_record(std::string_view slot) {
  const std::size_t words = slot.size() / 8;
  if (words < kRecordWords)
    throw std::runtime_error("checkpoint: hour log record too narrow");
  const char* at = slot.data();
  const auto take = [&at] {
    const std::uint64_t v = util::load_le64(at);
    at += 8;
    return v;
  };
  const auto take_bits = [&take] { return std::bit_cast<double>(take()); };
  HourRecord rec;
  rec.hour = static_cast<std::size_t>(take());
  rec.mode = static_cast<CappingOutcome::Mode>(take());
  rec.failure = static_cast<FailureReason>(take());
  const std::uint64_t flags = take();
  rec.degraded = (flags & 1u) != 0;
  rec.used_incumbent = (flags & 2u) != 0;
  rec.used_heuristic = (flags & 4u) != 0;
  rec.stale_prices = (flags & 8u) != 0;
  rec.feed_recovered = (flags & 16u) != 0;
  rec.coupler_converged = (flags & 32u) != 0;
  rec.coupler_fallback = (flags & 64u) != 0;
  rec.feed_attempts = static_cast<int>(static_cast<std::int64_t>(take()));
  rec.sites_down = static_cast<std::size_t>(take());
  rec.nodes = static_cast<long>(static_cast<std::int64_t>(take()));
  rec.coupler_iterations = static_cast<std::size_t>(take());
  rec.coupler_rung = static_cast<std::size_t>(take());
  rec.arrivals = take_bits();
  rec.premium_arrivals = take_bits();
  rec.ordinary_arrivals = take_bits();
  rec.served_premium = take_bits();
  rec.served_ordinary = take_bits();
  rec.hourly_budget = take_bits();
  rec.cost = take_bits();
  rec.predicted_cost = take_bits();
  take_bits();  // the retired wall-time word: ignored
  const std::uint64_t n_lambda = take();
  const std::uint64_t n_power = take();
  if (n_lambda > words - kRecordWords ||
      n_power > words - kRecordWords - n_lambda)
    throw std::runtime_error("checkpoint: malformed hour log record");
  rec.site_lambda.resize(static_cast<std::size_t>(n_lambda));
  for (double& v : rec.site_lambda) v = take_bits();
  rec.site_power_mw.resize(static_cast<std::size_t>(n_power));
  for (double& v : rec.site_power_mw) v = take_bits();
  return rec;
}

// ---- the head journal -----------------------------------------------------

/// Every CheckpointState field except the HourRecords, as a journal of
/// format `version`; the caller adds the hours (inline or as a log prefix).
util::Journal encode_head(const CheckpointState& state, int version) {
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

/// Every field a head carries; partial.hours stays empty. logged_hours is
/// the head's log prefix for v2, 0 for a v1 file (its hours are inline).
CheckpointState decode_head(const util::Journal& journal) {
  CheckpointState state;
  state.config_digest = journal.get_u64(keys::kConfigDigest);
  state.strategy = static_cast<Strategy>(journal.get_u64(keys::kStrategy));
  state.next_hour = journal.get_size(keys::kNextHour);
  state.spent = journal.get_double_bits(keys::kSpent);
  state.crashes_fired = journal.get_size(keys::kCrashesFired);
  // Written since the rotated-generations format; absent in checkpoints
  // from before that, which simply had no storms/corruptions to count.
  state.storms_fired =
      journal.has(keys::kStormsFired) ? journal.get_size(keys::kStormsFired) : 0;
  state.corruptions_fired = journal.has(keys::kCorruptionsFired)
                                ? journal.get_size(keys::kCorruptionsFired)
                                : 0;
  for (std::size_t i = 0; i < state.feed.rng.size(); ++i)
    state.feed.rng[i] = journal.get_u64(keys::feed_rng(i));
  state.feed.recovered_until = journal.get_size(keys::kFeedRecoveredUntil);

  // Coupler trajectory: absent in pre-coupler checkpoints, which simply
  // had no coupler state to carry — a fresh (default) coupler is correct.
  if (journal.has(keys::kCouplerBreakerState)) {
    MarketCoupler::State& cp = state.coupler;
    cp.breaker.state =
        breaker_state_from(journal.get_u64(keys::kCouplerBreakerState));
    cp.breaker.consecutive_failed =
        journal.get_size(keys::kCouplerConsecTroubled);
    cp.breaker.cooldown_remaining = journal.get_size(keys::kCouplerCooldown);
    cp.breaker.current_cooldown =
        journal.get_size(keys::kCouplerCurrentCooldown);
    cp.breaker.trips = journal.get_size(keys::kCouplerTrips);
    cp.rung = journal.get_size(keys::kCouplerRung);
    cp.clean_streak = journal.get_size(keys::kCouplerCleanStreak);
    cp.last_valid = journal.get_u64(keys::kCouplerLastValid) != 0;
    {
      std::istringstream active(journal.get(keys::kCouplerLastActive));
      unsigned v = 0;
      while (active >> v) cp.last_active.push_back(v != 0 ? 1 : 0);
    }
    {
      std::istringstream power(journal.get(keys::kCouplerLastPower));
      while (power >> std::ws, power.peek() != std::istringstream::traits_type::eof()) {
        cp.last_power_mw.push_back(take_d(power));
      }
    }
  }

  MonthlyResult& r = state.partial;
  r.strategy = state.strategy;
  r.monthly_budget = journal.get_double_bits(keys::kMonthlyBudget);
  r.total_cost = journal.get_double_bits(keys::kTotalCost);
  r.total_premium_arrivals = journal.get_double_bits(keys::kTotalPremiumArrivals);
  r.total_ordinary_arrivals =
      journal.get_double_bits(keys::kTotalOrdinaryArrivals);
  r.total_served_premium = journal.get_double_bits(keys::kTotalServedPremium);
  r.total_served_ordinary = journal.get_double_bits(keys::kTotalServedOrdinary);
  r.degraded_hours = journal.get_size(keys::kDegradedHours);
  r.incumbent_hours = journal.get_size(keys::kIncumbentHours);
  r.heuristic_hours = journal.get_size(keys::kHeuristicHours);
  r.outage_hours = journal.get_size(keys::kOutageHours);
  r.stale_hours = journal.get_size(keys::kStaleHours);
  r.feed_retry_attempts = journal.get_size(keys::kFeedRetryAttempts);
  r.feed_recovered_hours = journal.get_size(keys::kFeedRecoveredHours);
  r.crash_recoveries = journal.get_size(keys::kCrashRecoveries);
  // Coupler aggregates: absent before the closed-loop format, zero then.
  r.closed_loop_hours = journal.has(keys::kClosedLoopHours)
                            ? journal.get_size(keys::kClosedLoopHours)
                            : 0;
  r.coupler_fallback_hours =
      journal.has(keys::kCouplerFallbackHours)
          ? journal.get_size(keys::kCouplerFallbackHours)
          : 0;
  r.coupler_iterations = journal.has(keys::kCouplerIterations)
                             ? journal.get_size(keys::kCouplerIterations)
                             : 0;
  {
    // Tolerant of shorter tallies: a checkpoint written before a
    // FailureReason was added carries fewer entries, and the reasons it
    // predates necessarily tallied zero (the array is zero-initialized).
    std::istringstream tally(journal.get(keys::kFailureTally));
    for (std::size_t i = 0; i < r.failure_tally.size(); ++i)
      if (!(tally >> r.failure_tally[i])) break;
  }
  // Written since the fleet-controller format; absent means a pre-fleet
  // checkpoint whose month had no chunk solves to count.
  r.degraded_chunks = journal.has(keys::kDegradedChunks)
                          ? journal.get_size(keys::kDegradedChunks)
                          : 0;
  r.quarantined_chunks = journal.has(keys::kQuarantinedChunks)
                             ? journal.get_size(keys::kQuarantinedChunks)
                             : 0;
  r.region_down_chunks = journal.has(keys::kRegionDownChunks)
                             ? journal.get_size(keys::kRegionDownChunks)
                             : 0;
  if (journal.has(keys::kChunkFailureTally)) {
    // Same shorter-tally tolerance as failure_tally above.
    std::istringstream tally(journal.get(keys::kChunkFailureTally));
    for (std::size_t i = 0; i < r.chunk_failure_tally.size(); ++i)
      if (!(tally >> r.chunk_failure_tally[i])) break;
  }

  if (journal.get_size(keys::kHours) != state.next_hour)
    throw std::runtime_error(
        "checkpoint: hour count does not match next_hour (inconsistent "
        "file)");
  state.logged_hours = journal.has(keys::kHourLog) ? state.next_hour : 0;
  return state;
}

util::Journal load_head_journal(const std::string& path) {
  return util::Journal::load(path, keys::kCheckpointMagic,
                             keys::kCheckpointVersion);
}

/// Fills state.partial.hours from the head's own keys (v1) or from the
/// log prefix it names (v2), resolving the log's file name against the
/// directory of `head_path`.
void load_hours(const util::Journal& journal, const std::string& head_path,
                CheckpointState& state) {
  std::vector<HourRecord>& hours = state.partial.hours;
  const std::size_t count = state.next_hour;
  if (!journal.has(keys::kHourLog)) {
    for (std::size_t i = 0; i < count; ++i)
      hours.push_back(decode_hour(journal.get(keys::hour(i))));
    return;
  }
  const std::string& name = journal.get(keys::kHourLog);
  if (name.empty() || name.find('/') != std::string::npos)
    throw std::runtime_error("checkpoint: bad hour log name '" + name + "'");
  const std::size_t slash = head_path.find_last_of('/');
  const std::string log_path =
      slash == std::string::npos ? name : head_path.substr(0, slash + 1) + name;
  const util::RecordLog::Contents log = util::RecordLog::read(
      log_path, {count, journal.get_u64(keys::kHourLogChain)});
  const std::string_view payloads = log.payloads;
  hours.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    hours.push_back(decode_record(
        payloads.substr(i * log.record_bytes, log.record_bytes)));
}

}  // namespace

std::uint64_t checkpoint_digest(const SimulationConfig& config,
                                Strategy strategy) {
  util::Fnv1a d;
  d.mix_u64(static_cast<std::uint64_t>(strategy));
  d.mix_u64(config.seed);
  d.mix_double(config.monthly_budget);
  d.mix_double(config.premium_share);
  d.mix_u64(static_cast<std::uint64_t>(config.policy_level));
  d.mix_bool(config.enforce_budget);
  d.mix_size(config.history_weeks);
  d.mix_u64(static_cast<std::uint64_t>(config.budget_weighting));
  d.mix_u64(config.history_seed_offset);

  d.mix_double(config.workload.mean_rate);
  d.mix_double(config.workload.diurnal_amplitude);
  d.mix_double(config.workload.weekend_drop);
  d.mix_double(config.workload.noise_sigma);
  d.mix_double(config.workload.flash_crowd_per_hour);
  d.mix_double(config.workload.flash_crowd_magnitude);
  d.mix_double(config.workload.flash_crowd_decay);

  d.mix_bool(config.optimizer.model_cooling_network);
  d.mix_bool(false);  // a retired solver flag, always off: old digests hold
  d.mix_u64(static_cast<std::uint64_t>(config.optimizer.milp.max_nodes));
  d.mix_double(config.optimizer.milp.integrality_tol);
  d.mix_double(config.optimizer.milp.relative_gap);
  d.mix_double(config.optimizer.milp.absolute_gap);

  const FaultPlan& plan = config.fault_plan;
  d.mix_size(plan.outages.size());
  for (const auto& o : plan.outages) {
    d.mix_size(o.site);
    d.mix_size(o.start_hour);
    d.mix_size(o.duration_hours);
  }
  d.mix_size(plan.stale_intervals.size());
  for (const auto& s : plan.stale_intervals) {
    d.mix_size(s.start_hour);
    d.mix_size(s.duration_hours);
  }
  d.mix_size(plan.demand_shocks.size());
  for (const auto& s : plan.demand_shocks) {
    d.mix_size(s.site);
    d.mix_size(s.start_hour);
    d.mix_size(s.duration_hours);
    d.mix_double(s.multiplier);
  }
  d.mix_size(plan.deadline_squeezes.size());
  for (const auto& s : plan.deadline_squeezes) {
    d.mix_size(s.start_hour);
    d.mix_size(s.duration_hours);
    d.mix_u64(static_cast<std::uint64_t>(s.node_budget));
  }
  d.mix_size(plan.crashes.size());
  for (const auto& c : plan.crashes) {
    d.mix_size(c.hour);
    d.mix_bool(c.before_checkpoint);
  }
  d.mix_size(plan.exit_storms.size());
  for (const auto& s : plan.exit_storms) {
    d.mix_size(s.hour);
    d.mix_size(s.count);
  }
  d.mix_size(plan.checkpoint_corruptions.size());
  for (const auto& c : plan.checkpoint_corruptions) d.mix_size(c.hour);
  d.mix_size(plan.flash_crowds.size());
  for (const auto& f : plan.flash_crowds) {
    d.mix_size(f.start_hour);
    d.mix_size(f.duration_hours);
    d.mix_double(f.multiplier);
  }
  d.mix_size(plan.feed_bursts.size());
  for (const auto& b : plan.feed_bursts) {
    d.mix_size(b.start_hour);
    d.mix_size(b.duration_hours);
    d.mix_size(b.updates_per_tick);
  }
  // Grid-side fault kinds: mixed only when present so a plan without them
  // keeps its pre-coupler digest (resumability across the format change).
  if (!plan.line_outages.empty()) {
    d.mix_size(plan.line_outages.size());
    for (const auto& o : plan.line_outages) {
      d.mix_size(o.line);
      d.mix_size(o.start_hour);
      d.mix_size(o.duration_hours);
    }
  }
  if (!plan.grid_demand_shocks.empty()) {
    d.mix_size(plan.grid_demand_shocks.size());
    for (const auto& s : plan.grid_demand_shocks) {
      d.mix_size(s.bus);
      d.mix_size(s.start_hour);
      d.mix_size(s.duration_hours);
      d.mix_double(s.multiplier);
    }
  }
  if (!plan.congestion_spikes.empty()) {
    d.mix_size(plan.congestion_spikes.size());
    for (const auto& s : plan.congestion_spikes) {
      d.mix_size(s.line);
      d.mix_size(s.start_hour);
      d.mix_size(s.duration_hours);
      d.mix_double(s.limit_factor);
    }
  }

  d.mix_double(config.fault_rates.outage_rate);
  d.mix_size(config.fault_rates.outage_mean_hours);
  d.mix_double(config.fault_rates.stale_rate);
  d.mix_size(config.fault_rates.stale_mean_hours);
  d.mix_double(config.fault_rates.shock_rate);
  d.mix_size(config.fault_rates.shock_mean_hours);
  d.mix_double(config.fault_rates.shock_multiplier);
  d.mix_double(config.fault_rates.squeeze_rate);
  d.mix_size(config.fault_rates.squeeze_mean_hours);
  d.mix_double(config.fault_rates.crash_rate);

  d.mix_double(config.market_feed.retry_success_prob);
  d.mix_u64(static_cast<std::uint64_t>(config.market_feed.max_attempts_per_hour));
  d.mix_double(config.market_feed.base_backoff_ms);
  d.mix_double(config.market_feed.backoff_multiplier);
  d.mix_double(config.market_feed.max_backoff_ms);
  d.mix_double(config.market_feed.jitter_frac);

  // Coupler configuration: mixed only when enabled, so every open-loop
  // config keeps the digest it had before the closed-loop format existed.
  if (config.market_coupler.enabled) {
    const MarketCouplerOptions& mc = config.market_coupler;
    d.mix_bool(mc.enabled);
    d.mix_bool(mc.plan_closed_loop);
    d.mix_double(mc.loop.feedback_gain);
    d.mix_size(mc.loop.max_iters);
    d.mix_double(mc.loop.epsilon_mw);
    d.mix_double(mc.loop.price_tol);
    d.mix_double(mc.loop.smoothing_alpha);
    d.mix_double(mc.loop.trust_region_mw);
    d.mix_double(mc.loop.hysteresis_frac);
    d.mix_u64(static_cast<std::uint64_t>(mc.damping));
    d.mix_size(mc.deescalate_after);
    d.mix_size(mc.breaker.trip_after);
    d.mix_size(mc.breaker.cooldown);
    d.mix_double(static_cast<double>(kBreakerCooldownGrowth));
    d.mix_size(mc.breaker.max_cooldown);
  }

  return d.hash;
}

bool checkpoint_exists(const std::string& path) noexcept {
  const std::ifstream probe(path);
  return probe.good();
}

CheckpointState load_checkpoint(const std::string& path) {
  const util::Journal journal = load_head_journal(path);
  CheckpointState state = decode_head(journal);
  load_hours(journal, path, state);
  return state;
}

CheckpointState load_checkpoint_head(const std::string& path) {
  return decode_head(load_head_journal(path));
}

std::string hour_log_path(const std::string& path) { return path + ".hours"; }

void save_checkpoint_rotated(const std::string& path,
                             const CheckpointState& state,
                             std::size_t keep_generations) {
  const std::vector<HourRecord>& hours = state.partial.hours;
  if (state.logged_hours > hours.size())
    throw std::invalid_argument(
        "save_checkpoint_rotated: logged_hours exceeds the hours held");
  std::vector<std::string> fresh;
  fresh.reserve(hours.size() - state.logged_hours);
  for (std::size_t i = state.logged_hours; i < hours.size(); ++i)
    fresh.push_back(encode_record(hours[i]));
  // The log is durable before any head names its new records: a kill in
  // between leaves a tail no head covers, which the next commit truncates.
  const std::string log_path = hour_log_path(path);
  const util::RecordLog::Prefix prefix = util::RecordLog::append(
      log_path, state.config_digest, state.logged_hours, fresh);

  util::Journal::rotate_generations(path, keep_generations);
  util::Journal head = encode_head(state, keys::kCheckpointVersion);
  head.set_size(keys::kHours, prefix.count);
  head.set(keys::kHourLog, log_path.substr(log_path.find_last_of('/') + 1));
  head.set_u64(keys::kHourLogChain, prefix.chain);
  head.save_atomic(path);
}

bool any_checkpoint_generation_exists(const std::string& path,
                                      std::size_t keep_generations) noexcept {
  const std::size_t gens = keep_generations == 0 ? 1 : keep_generations;
  for (std::size_t g = 0; g < gens; ++g)
    if (checkpoint_exists(util::Journal::generation_path(path, g))) return true;
  return false;
}

std::size_t scan_generations(
    const std::string& path, std::size_t keep_generations,
    const std::string& what, std::vector<std::string>& skipped,
    const std::function<void(const std::string& generation_path)>& load) {
  const std::size_t gens = keep_generations == 0 ? 1 : keep_generations;
  for (std::size_t g = 0; g < gens; ++g) {
    const std::string gen_path = util::Journal::generation_path(path, g);
    if (!checkpoint_exists(gen_path)) {
      skipped.push_back(gen_path + ": missing");
      continue;
    }
    try {
      load(gen_path);
      return g;
    } catch (const std::exception& e) {
      skipped.push_back(gen_path + ": " + e.what());
    }
  }
  std::string detail;
  for (const std::string& s : skipped) detail += "\n  " + s;
  throw std::runtime_error(what + ": no viable generation among the newest " +
                           std::to_string(gens) + detail);
}

CheckpointLoadReport load_checkpoint_fallback(const std::string& path,
                                              std::size_t keep_generations,
                                              std::uint64_t expected_digest) {
  CheckpointLoadReport report;
  report.generation = scan_generations(
      path, keep_generations, "checkpoint", report.skipped,
      [&](const std::string& gen_path) {
        const util::Journal journal = load_head_journal(gen_path);
        CheckpointState state = decode_head(journal);
        if (state.config_digest != expected_digest)
          throw std::runtime_error(
              "config digest mismatch (checkpoint from a different "
              "configuration)");
        load_hours(journal, gen_path, state);
        report.state = std::move(state);
      });
  return report;
}

}  // namespace billcap::core
