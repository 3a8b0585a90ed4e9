#include "core/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "core/checkpoint_keys.hpp"
#include "util/fnv1a.hpp"
#include "util/journal.hpp"
#include "util/record_log.hpp"

namespace billcap::core {

namespace {

// ---- fixed-width binary HourRecord (the state log's hour words) ---------

/// Fixed words of an encoded HourRecord before its two per-site arrays.
constexpr std::size_t kRecordWords = 20;

/// Decodes one encoded HourRecord from the front of `slot`, which may run
/// on past the record's own arrays (zero padding).
HourRecord decode_record(std::string_view slot) {
  const std::size_t words = slot.size() / 8;
  if (words < kRecordWords)
    throw std::runtime_error("checkpoint: state log record too narrow");
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
    throw std::runtime_error("checkpoint: malformed state log record");
  rec.site_lambda.resize(static_cast<std::size_t>(n_lambda));
  for (double& v : rec.site_lambda) v = take_bits();
  rec.site_power_mw.resize(static_cast<std::size_t>(n_power));
  for (double& v : rec.site_power_mw) v = take_bits();
  return rec;
}

// ---- the state log (format v3) --------------------------------------------

/// The first word of every state-log record.
enum class RecordKind : std::uint64_t {
  kHourOnly = 0,    ///< an hour and no state: replayed, never resumed from
  kCommitHour = 1,  ///< a commit and the last hour it carries
  kCommit = 2,      ///< a commit that carries no hour (cursor-only)
};

/// Fixed words of a state-log record before its coupler arrays: the kind,
/// six counters, the feed's four RNG words and cursor, the breaker's five
/// words, rung, clean streak, last_valid and the two array lengths. An
/// HourRecord follows the arrays; an hour-only record leaves the state
/// words zero.
constexpr std::size_t kStateWords = 22;

/// Record width for per-site arrays of length `sites`: the state words,
/// the coupler's two arrays and an HourRecord with its two.
std::size_t state_record_bytes(std::size_t sites) {
  return 8 * (kStateWords + kRecordWords + 4 * sites);
}

/// One state-log record, `width` bytes wide: the commit's state (unless
/// kHourOnly), then `hour` if given.
std::string encode_state_record(RecordKind kind, const CheckpointState& st,
                                const HourRecord* hour, std::size_t width) {
  const auto too_wide = [width] {
    return std::runtime_error("checkpoint: a record does not fit the state "
                              "log's " + std::to_string(width) +
                              "-byte width");
  };
  std::string out(width, '\0');
  std::size_t at = 0;
  const auto put = [&](std::uint64_t v) {
    if (at + 8 > width) throw too_wide();
    util::store_le64(out.data() + at, v);
    at += 8;
  };
  const auto put_bits = [&put](double v) {
    put(std::bit_cast<std::uint64_t>(v));
  };
  put(static_cast<std::uint64_t>(kind));
  if (kind == RecordKind::kHourOnly) {
    at = 8 * kStateWords;
  } else {
    put(st.next_hour);
    put_bits(st.spent);
    put(st.crashes_fired);
    put(st.storms_fired);
    put(st.corruptions_fired);
    put(st.partial.crash_recoveries);
    for (std::uint64_t w : st.feed.rng) put(w);
    put(st.feed.recovered_until);
    const MarketCoupler::State& cp = st.coupler;
    put(static_cast<std::uint64_t>(cp.breaker.state));
    put(cp.breaker.consecutive_failed);
    put(cp.breaker.cooldown_remaining);
    put(cp.breaker.current_cooldown);
    put(cp.breaker.trips);
    put(cp.rung);
    put(cp.clean_streak);
    put(cp.last_valid ? 1 : 0);
    put(cp.last_active.size());
    put(cp.last_power_mw.size());
    for (std::uint8_t a : cp.last_active) put(a);
    for (double v : cp.last_power_mw) put_bits(v);
  }
  if (hour) {
    const std::string words = encode_hour_record(*hour);
    if (at + words.size() > width) throw too_wide();
    std::copy(words.begin(), words.end(), out.begin() + at);
  }
  return out;
}

/// Takes little-endian words off the front of a record payload; running
/// past its end means the record is malformed.
class WordReader {
 public:
  explicit WordReader(std::string_view slot) : slot_(slot) {}
  std::uint64_t take() {
    if (slot_.size() < 8)
      throw std::runtime_error("checkpoint: malformed state log record");
    const std::uint64_t v = util::load_le64(slot_.data());
    slot_.remove_prefix(8);
    return v;
  }
  double take_bits() { return std::bit_cast<double>(take()); }
  /// A count of words still to come, checked against what is left.
  std::size_t take_count() {
    const std::uint64_t n = take();
    if (n > slot_.size() / 8)
      throw std::runtime_error("checkpoint: malformed state log record");
    return static_cast<std::size_t>(n);
  }
  std::string_view rest() const { return slot_; }

 private:
  std::string_view slot_;
};

/// Decodes one state-log record: its commit fields into `st` (cursors,
/// feed, coupler and partial.crash_recoveries; left alone for an
/// hour-only record) and its hour into `hour`. Returns the record's kind.
RecordKind decode_state_record(std::string_view slot, CheckpointState& st,
                               HourRecord& hour) {
  WordReader in(slot);
  const std::uint64_t kind_word = in.take();
  if (kind_word > static_cast<std::uint64_t>(RecordKind::kCommit))
    throw std::runtime_error("checkpoint: malformed state log record");
  const auto kind = static_cast<RecordKind>(kind_word);
  if (kind == RecordKind::kHourOnly) {
    for (std::size_t w = 1; w < kStateWords; ++w) in.take();
  } else {
    st.next_hour = static_cast<std::size_t>(in.take());
    st.spent = in.take_bits();
    st.crashes_fired = static_cast<std::size_t>(in.take());
    st.storms_fired = static_cast<std::size_t>(in.take());
    st.corruptions_fired = static_cast<std::size_t>(in.take());
    st.partial.crash_recoveries = static_cast<std::size_t>(in.take());
    for (std::uint64_t& w : st.feed.rng) w = in.take();
    st.feed.recovered_until = static_cast<std::size_t>(in.take());
    MarketCoupler::State& cp = st.coupler;
    cp.breaker.state = breaker_state_from(in.take());
    cp.breaker.consecutive_failed = static_cast<std::size_t>(in.take());
    cp.breaker.cooldown_remaining = static_cast<std::size_t>(in.take());
    cp.breaker.current_cooldown = static_cast<std::size_t>(in.take());
    cp.breaker.trips = static_cast<std::size_t>(in.take());
    cp.rung = static_cast<std::size_t>(in.take());
    cp.clean_streak = static_cast<std::size_t>(in.take());
    cp.last_valid = in.take() != 0;
    const std::size_t n_active = in.take_count();
    const std::size_t n_power = in.take_count();
    cp.last_active.resize(n_active);
    for (std::uint8_t& a : cp.last_active) a = in.take() != 0 ? 1 : 0;
    cp.last_power_mw.resize(n_power);
    for (double& v : cp.last_power_mw) v = in.take_bits();
  }
  if (kind != RecordKind::kCommit) hour = decode_record(in.rest());
  return kind;
}

/// The state log a v3 head names, which must be the one beside it
/// (state_log_path): a head never reads another checkpoint's log.
std::string named_state_log(const util::Journal& head,
                            const std::string& head_path) {
  const std::string log_path = state_log_path(head_path);
  const std::string& name = head.get(keys::kStateLog);
  if (name != log_path.substr(log_path.find_last_of('/') + 1))
    throw std::runtime_error("checkpoint: head names state log '" + name +
                             "', not the one beside it (" + log_path + ")");
  return log_path;
}

/// Opens the state log a v3 head names and checks that the two belong
/// together: same writer digest, same record width.
util::RecordLog::Reader open_state_log(const util::Journal& head,
                                       const std::string& head_path) {
  util::RecordLog::Reader log(named_state_log(head, head_path));
  if (log.tag() != head.get_u64(keys::kConfigDigest))
    throw std::runtime_error("checkpoint: state log of " + head_path +
                             " was written under another configuration");
  if (log.record_bytes() != head.get_size(keys::kStateLogWidth))
    throw std::runtime_error("checkpoint: state log of " + head_path +
                             " has another record width than its head");
  if (log.records() == 0)
    throw std::runtime_error("checkpoint: state log of " + head_path +
                             " holds no record");
  return log;
}

/// Loads the newest commit among the last `keep` records of the state log
/// whose every record up to it verifies. Replays the hours those records
/// carry through MonthlyResult::accumulate.
CheckpointLoadReport load_state_log(const util::Journal& head,
                                    const std::string& head_path,
                                    std::size_t keep) {
  util::RecordLog::Reader log = open_state_log(head, head_path);
  const std::size_t n = log.records();
  const std::size_t window = n > keep ? n - keep : 0;

  CheckpointState scratch;
  MonthlyResult month;
  month.strategy = static_cast<Strategy>(head.get_u64(keys::kStrategy));
  month.monthly_budget = head.get_double_bits(keys::kMonthlyBudget);
  month.hours.reserve(n);
  // The newest commit within the window whose every record verifies: the
  // scan stops at the first damaged record, so it is the last one seen.
  struct Commit {
    std::size_t record = 0;
    std::size_t hours = 0;  ///< hours carried by records up to this one
    util::RecordLog::Cursor cursor;
    CheckpointState state;
  };
  std::optional<Commit> commit;
  std::size_t damaged = n;  // first record that fails its checksum
  std::string payload;
  HourRecord hour;
  for (std::size_t i = 0; i < n; ++i) {
    if (!log.next(payload)) {
      damaged = i;
      break;
    }
    const RecordKind kind = decode_state_record(payload, scratch, hour);
    if (kind != RecordKind::kCommit) month.accumulate(std::move(hour));
    if (kind == RecordKind::kHourOnly || i < window) continue;
    if (scratch.next_hour != month.hours.size())
      throw std::runtime_error(
          "checkpoint: a state log record's next_hour does not match the "
          "hours before it (inconsistent file)");
    commit = Commit{i, month.hours.size(), log.cursor(), scratch};
  }

  CheckpointLoadReport report;
  const std::string log_path = state_log_path(head_path);
  for (std::size_t i = n; i-- > (commit ? commit->record + 1 : window);) {
    const char* why = i == damaged  ? "fails its checksum (corrupted file)"
                      : i > damaged ? "follows a damaged record"
                                    : "holds no committed state";
    report.skipped.push_back(log_path + " record " + std::to_string(i) +
                             ": " + why);
  }
  if (!commit) {
    std::string detail;
    for (const std::string& line : report.skipped) detail += "\n  " + line;
    throw std::runtime_error("checkpoint: no viable record among the newest " +
                             std::to_string(n - window) + " of " + log_path +
                             detail);
  }
  report.generation = n - 1 - commit->record;
  if (commit->hours < month.hours.size()) {
    // Fell back past hours: fold again only those before the commit.
    MonthlyResult kept;
    kept.strategy = month.strategy;
    kept.monthly_budget = month.monthly_budget;
    kept.hours.reserve(n);
    for (std::size_t h = 0; h < commit->hours; ++h)
      kept.accumulate(std::move(month.hours[h]));
    month = std::move(kept);
  }
  CheckpointState& st = report.state;
  st = std::move(commit->state);
  st.config_digest = head.get_u64(keys::kConfigDigest);
  st.strategy = month.strategy;
  month.crash_recoveries = st.partial.crash_recoveries;
  st.partial = std::move(month);
  st.log = {commit->cursor, commit->hours};
  return report;
}

/// The head at `path`. A head of an older format (v1 or v2) is refused
/// by name: only the state log carries a month, and those heads have none.
util::Journal load_head_journal(const std::string& path) {
  util::Journal head = util::Journal::load(path, keys::kCheckpointMagic,
                                           keys::kCheckpointVersion);
  if (head.version() < keys::kCheckpointVersion)
    throw std::runtime_error(
        "checkpoint " + path + ": format v" + std::to_string(head.version()) +
        " predates the state log and is no longer read; remove it to start "
        "the month afresh");
  return head;
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

std::string state_log_path(const std::string& path) { return path + ".log"; }

void remove_checkpoint(const std::string& path) noexcept {
  for (const std::string& file : {path, path + ".tmp", state_log_path(path)})
    std::remove(file.c_str());
}

std::string encode_hour_record(const HourRecord& rec) {
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

CheckpointState load_checkpoint(const std::string& path) {
  return load_state_log(load_head_journal(path), path, 1).state;
}

void save_checkpoint_rotated(const std::string& path,
                             const CheckpointState& state,
                             std::size_t /*keep_generations*/) {
  const std::vector<HourRecord>& hours = state.partial.hours;
  CheckpointState::LogPosition& log = state.log;
  if (log.hours > hours.size())
    throw std::invalid_argument(
        "save_checkpoint_rotated: the state holds fewer hours than its log");
  std::size_t width = log.cursor.record_bytes;
  if (log.cursor.count == 0) {
    std::size_t sites = std::max({state.sites, state.coupler.last_active.size(),
                                  state.coupler.last_power_mw.size()});
    for (std::size_t i = log.hours; i < hours.size(); ++i)
      sites = std::max({sites, hours[i].site_lambda.size(),
                        hours[i].site_power_mw.size()});
    width = state_record_bytes(sites);
  }
  std::vector<std::string> records;
  for (std::size_t i = log.hours; i + 1 < hours.size(); ++i)
    records.push_back(
        encode_state_record(RecordKind::kHourOnly, state, &hours[i], width));
  if (hours.size() > log.hours)
    records.push_back(encode_state_record(RecordKind::kCommitHour, state,
                                          &hours.back(), width));
  else
    records.push_back(
        encode_state_record(RecordKind::kCommit, state, nullptr, width));

  const std::string log_path = state_log_path(path);
  if (log.cursor.count > 0) {
    log.cursor = util::RecordLog::append(log_path, log.cursor, records);
  } else {
    // A new log is durable before the head that names it: a kill in
    // between leaves no head (a fresh month removed it).
    log.cursor =
        util::RecordLog::create(log_path, state.config_digest, records);
    util::Journal head(keys::kCheckpointMagic, keys::kCheckpointVersion);
    head.set_u64(keys::kConfigDigest, state.config_digest);
    head.set_u64(keys::kStrategy, static_cast<std::uint64_t>(state.strategy));
    head.set_double_bits(keys::kMonthlyBudget, state.partial.monthly_budget);
    head.set(keys::kStateLog, log_path.substr(log_path.find_last_of('/') + 1));
    head.set_size(keys::kStateLogWidth, width);
    head.save_atomic(path);
  }
  log.hours = hours.size();
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
  const util::Journal head = load_head_journal(path);
  if (head.get_u64(keys::kConfigDigest) != expected_digest)
    throw std::runtime_error(
        "checkpoint " + path +
        ": config digest mismatch (checkpoint from a different "
        "configuration)");
  return load_state_log(head, path, std::max<std::size_t>(1, keep_generations));
}

std::size_t checkpoint_next_hour(const std::string& path,
                                 std::size_t keep_generations) {
  util::RecordLog::Reader log = open_state_log(load_head_journal(path), path);
  const std::size_t n = log.records();
  const std::size_t reach =
      std::min(n, std::max<std::size_t>(1, keep_generations));
  log.seek(n - reach);
  std::string payload;
  bool found = false;
  std::size_t next_hour = 0;
  while (log.position() < n) {
    if (!log.next(payload)) continue;
    WordReader words(payload);
    if (words.take() == static_cast<std::uint64_t>(RecordKind::kHourOnly))
      continue;
    next_hour = static_cast<std::size_t>(words.take());
    found = true;
  }
  if (!found)
    throw std::runtime_error("checkpoint: none of the newest " +
                             std::to_string(reach) + " records of " +
                             state_log_path(path) + " verifies");
  return next_hour;
}

}  // namespace billcap::core
