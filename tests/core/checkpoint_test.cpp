#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/checkpoint_keys.hpp"
#include "core/exit_codes.hpp"
#include "core/simulator.hpp"
#include "core/supervisor.hpp"
#include "util/journal.hpp"
#include "util/mutation.hpp"
#include "util/record_log.hpp"
#include "util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#endif

namespace billcap::core {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A synthetic mid-month state with every field off its default, including
/// awkward doubles, so a save/load round trip exercises the whole format.
/// Its aggregates are the fold of its hours, as every commit's are.
CheckpointState sample_state() {
  CheckpointState st;
  st.config_digest = 0xdeadbeefcafef00dULL;
  st.strategy = Strategy::kCostCapping;
  st.next_hour = 2;
  st.spent = 123456.78912345;
  st.crashes_fired = 3;
  st.feed.rng = {1, 0xffffffffffffffffULL, 42, 7};
  st.feed.recovered_until = 29;

  MonthlyResult& r = st.partial;
  r.strategy = st.strategy;
  r.monthly_budget = 1.5e6;
  r.crash_recoveries = 3;
  for (std::size_t h = 0; h < st.next_hour; ++h) {
    HourRecord rec;
    rec.hour = h;
    rec.arrivals = 5000.5 + static_cast<double>(h);
    rec.premium_arrivals = 500.125;
    rec.ordinary_arrivals = rec.arrivals - rec.premium_arrivals;
    rec.served_premium = 500.125;
    rec.served_ordinary = 4000.0 / 3.0;  // non-terminating binary fraction
    rec.hourly_budget = 2083.333333333333;
    rec.cost = 1999.99;
    rec.predicted_cost = 1998.5;
    rec.mode = CappingOutcome::Mode::kCapped;
    rec.site_lambda = {1000.1, 2000.2, 3000.3};
    rec.site_power_mw = {10.5, 20.25, 30.125};
    rec.nodes = 17;
    rec.degraded = (h == 1);
    rec.failure = (h == 1) ? FailureReason::kInfeasible : FailureReason::kNone;
    rec.used_incumbent = (h == 1);
    rec.sites_down = h;
    rec.stale_prices = true;
    rec.feed_attempts = 4;
    rec.feed_recovered = (h == 0);
    r.accumulate(std::move(rec));
  }
  return st;
}

/// Folds `r`'s hours again from scratch, after a test edited them.
void refold(MonthlyResult& r) {
  MonthlyResult fresh;
  fresh.strategy = r.strategy;
  fresh.monthly_budget = r.monthly_budget;
  fresh.crash_recoveries = r.crash_recoveries;
  for (HourRecord& rec : r.hours) fresh.accumulate(std::move(rec));
  r = std::move(fresh);
}

void expect_states_bitwise_equal(const CheckpointState& a,
                                 const CheckpointState& b) {
  EXPECT_EQ(a.config_digest, b.config_digest);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.next_hour, b.next_hour);
  EXPECT_EQ(a.spent, b.spent);
  EXPECT_EQ(a.crashes_fired, b.crashes_fired);
  EXPECT_EQ(a.storms_fired, b.storms_fired);
  EXPECT_EQ(a.corruptions_fired, b.corruptions_fired);
  EXPECT_EQ(a.feed.rng, b.feed.rng);
  EXPECT_EQ(a.feed.recovered_until, b.feed.recovered_until);

  const MonthlyResult& x = a.partial;
  const MonthlyResult& y = b.partial;
  EXPECT_EQ(x.monthly_budget, y.monthly_budget);
  EXPECT_EQ(x.total_cost, y.total_cost);
  EXPECT_EQ(x.total_premium_arrivals, y.total_premium_arrivals);
  EXPECT_EQ(x.total_ordinary_arrivals, y.total_ordinary_arrivals);
  EXPECT_EQ(x.total_served_premium, y.total_served_premium);
  EXPECT_EQ(x.total_served_ordinary, y.total_served_ordinary);
  EXPECT_EQ(x.degraded_hours, y.degraded_hours);
  EXPECT_EQ(x.incumbent_hours, y.incumbent_hours);
  EXPECT_EQ(x.heuristic_hours, y.heuristic_hours);
  EXPECT_EQ(x.outage_hours, y.outage_hours);
  EXPECT_EQ(x.stale_hours, y.stale_hours);
  EXPECT_EQ(x.failure_tally, y.failure_tally);
  EXPECT_EQ(x.feed_retry_attempts, y.feed_retry_attempts);
  EXPECT_EQ(x.feed_recovered_hours, y.feed_recovered_hours);
  EXPECT_EQ(x.crash_recoveries, y.crash_recoveries);
  ASSERT_EQ(x.hours.size(), y.hours.size());
  for (std::size_t h = 0; h < x.hours.size(); ++h) {
    const HourRecord& p = x.hours[h];
    const HourRecord& q = y.hours[h];
    EXPECT_EQ(p.hour, q.hour);
    EXPECT_EQ(p.arrivals, q.arrivals);
    EXPECT_EQ(p.premium_arrivals, q.premium_arrivals);
    EXPECT_EQ(p.ordinary_arrivals, q.ordinary_arrivals);
    EXPECT_EQ(p.served_premium, q.served_premium);
    EXPECT_EQ(p.served_ordinary, q.served_ordinary);
    EXPECT_EQ(p.hourly_budget, q.hourly_budget);
    EXPECT_EQ(p.cost, q.cost);
    EXPECT_EQ(p.predicted_cost, q.predicted_cost);
    EXPECT_EQ(p.mode, q.mode);
    EXPECT_EQ(p.site_lambda, q.site_lambda);
    EXPECT_EQ(p.site_power_mw, q.site_power_mw);
    EXPECT_EQ(p.nodes, q.nodes);
    EXPECT_EQ(p.degraded, q.degraded);
    EXPECT_EQ(p.failure, q.failure);
    EXPECT_EQ(p.used_incumbent, q.used_incumbent);
    EXPECT_EQ(p.used_heuristic, q.used_heuristic);
    EXPECT_EQ(p.sites_down, q.sites_down);
    EXPECT_EQ(p.stale_prices, q.stale_prices);
    EXPECT_EQ(p.feed_attempts, q.feed_attempts);
    EXPECT_EQ(p.feed_recovered, q.feed_recovered);
    EXPECT_EQ(p.coupler_iterations, q.coupler_iterations);
    EXPECT_EQ(p.coupler_converged, q.coupler_converged);
    EXPECT_EQ(p.coupler_fallback, q.coupler_fallback);
    EXPECT_EQ(p.coupler_rung, q.coupler_rung);
  }

  EXPECT_EQ(x.closed_loop_hours, y.closed_loop_hours);
  EXPECT_EQ(x.coupler_fallback_hours, y.coupler_fallback_hours);
  EXPECT_EQ(x.coupler_iterations, y.coupler_iterations);
  EXPECT_EQ(a.coupler.breaker.state, b.coupler.breaker.state);
  EXPECT_EQ(a.coupler.breaker.consecutive_failed,
            b.coupler.breaker.consecutive_failed);
  EXPECT_EQ(a.coupler.breaker.cooldown_remaining,
            b.coupler.breaker.cooldown_remaining);
  EXPECT_EQ(a.coupler.breaker.current_cooldown,
            b.coupler.breaker.current_cooldown);
  EXPECT_EQ(a.coupler.breaker.trips, b.coupler.breaker.trips);
  EXPECT_EQ(a.coupler.rung, b.coupler.rung);
  EXPECT_EQ(a.coupler.clean_streak, b.coupler.clean_streak);
  EXPECT_EQ(a.coupler.last_valid, b.coupler.last_valid);
  EXPECT_EQ(a.coupler.last_power_mw, b.coupler.last_power_mw);
  EXPECT_EQ(a.coupler.last_active, b.coupler.last_active);
}

/// The simulator's hourly commit.
void commit(const std::string& path, const CheckpointState& st) {
  save_checkpoint_rotated(path, st, 1);
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>{});
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(CheckpointTest, SaveLoadRoundTripIsBitwise) {
  const std::string path = temp_path("billcap_checkpoint_test.j");
  remove_checkpoint(path);
  const CheckpointState st = sample_state();
  commit(path, st);
  EXPECT_TRUE(checkpoint_exists(path));
  const CheckpointState back = load_checkpoint(path);
  expect_states_bitwise_equal(st, back);
  remove_checkpoint(path);
  EXPECT_FALSE(checkpoint_exists(path));
}

TEST(CheckpointTest, RepeatedSavesOverwriteAtomically) {
  const std::string path = temp_path("billcap_checkpoint_overwrite.j");
  remove_checkpoint(path);
  CheckpointState st = sample_state();
  for (std::size_t extra = 0; extra < 3; ++extra) {
    commit(path, st);
    HourRecord rec;
    rec.hour = st.next_hour++;
    rec.cost = 1000.0 + static_cast<double>(extra);
    st.spent += rec.cost;
    st.partial.accumulate(std::move(rec));
  }
  commit(path, st);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const CheckpointState back = load_checkpoint(path);
  expect_states_bitwise_equal(st, back);
  remove_checkpoint(path);
}

TEST(CheckpointTest, RejectsTruncatedAndCorruptedFiles) {
  const std::string path = temp_path("billcap_checkpoint_damage.j");
  remove_checkpoint(path);
  commit(path, sample_state());
  const std::string text = read_bytes(path);

  // Truncation of the head at any prefix length must be detected, never
  // half-loaded.
  for (const double frac : {0.1, 0.5, 0.9, 0.99}) {
    write_bytes(path, text.substr(0, static_cast<std::size_t>(
                                         static_cast<double>(text.size()) *
                                         frac)));
    EXPECT_THROW(load_checkpoint(path), std::runtime_error)
        << "truncated at " << frac;
  }

  // Single-byte corruption in the head's payload must be detected.
  {
    std::string corrupted = text;
    const std::size_t pos = corrupted.find("config_digest=");
    ASSERT_NE(pos, std::string::npos);
    corrupted[pos + 14] = corrupted[pos + 14] == '9' ? '8' : '9';
    write_bytes(path, corrupted);
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  }

  remove_checkpoint(path);
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);  // missing file
}

TEST(CheckpointTest, DigestSeparatesConfigsAndStrategies) {
  SimulationConfig config;
  const std::uint64_t base =
      checkpoint_digest(config, Strategy::kCostCapping);

  EXPECT_EQ(base, checkpoint_digest(config, Strategy::kCostCapping))
      << "digest must be deterministic";
  EXPECT_NE(base, checkpoint_digest(config, Strategy::kMinOnlyAvg));

  SimulationConfig other = config;
  other.seed ^= 1;
  EXPECT_NE(base, checkpoint_digest(other, Strategy::kCostCapping));

  other = config;
  other.monthly_budget += 1.0;
  EXPECT_NE(base, checkpoint_digest(other, Strategy::kCostCapping));

  other = config;
  other.fault_rates.stale_rate = 0.01;
  EXPECT_NE(base, checkpoint_digest(other, Strategy::kCostCapping));

  other = config;
  other.fault_plan.crashes.push_back({10, false});
  EXPECT_NE(base, checkpoint_digest(other, Strategy::kCostCapping));

  other = config;
  other.market_feed.retry_success_prob = 0.5;
  EXPECT_NE(base, checkpoint_digest(other, Strategy::kCostCapping));
}

TEST(CheckpointTest, DefaultConfigDigestsArePinned) {
  // Checkpoints already on disk carry these digests: a config edit that
  // moves them (a field added, dropped or reordered in checkpoint_digest)
  // silently orphans every existing checkpoint, so it must fail here.
  const SimulationConfig config;
  EXPECT_EQ(checkpoint_digest(config, Strategy::kCostCapping),
            0x4db6034f69897e0fULL);
  EXPECT_EQ(checkpoint_digest(config, Strategy::kMinOnlyAvg),
            0xf7a72b526b3e55caULL);
  // The coupler block is mixed only when enabled, so the open-loop pins
  // above never see a coupler knob; this one does.
  SimulationConfig closed;
  closed.market_coupler.enabled = true;
  EXPECT_EQ(checkpoint_digest(closed, Strategy::kCostCapping),
            0x278fcbb6d4517c80ULL);
}

/// Adds one fully populated hour to `st` (three sites, every double off its
/// default), so log records carry real payloads.
void add_full_hour(CheckpointState& st) {
  HourRecord rec = st.partial.hours.back();
  rec.hour = st.next_hour++;
  rec.cost = 1000.0 + static_cast<double>(rec.hour) / 7.0;
  const double h = static_cast<double>(rec.hour);
  rec.site_lambda = {1.5 * h, 2.0 + h, 3.0 / (1.0 + h)};
  st.spent += rec.cost;
  st.partial.accumulate(std::move(rec));
}

/// The state log's header and record stride, from its size after the
/// first commit (`first` records) and after one more.
struct LogShape {
  std::uintmax_t header = 0;
  std::uintmax_t stride = 0;
};

/// Flips a byte in the middle of record `record`'s payload.
void flip_record(const std::string& log, const LogShape& shape,
                 std::size_t record) {
  std::string bytes = read_bytes(log);
  bytes[shape.header + record * shape.stride + shape.stride / 2] ^= 0x5a;
  write_bytes(log, bytes);
}

/// Five commits of one hour each after sample_state's two: records 0 and 1
/// carry sample_state's hours, records 2..6 are the commits (next_hour
/// 3..7). Returns the log's shape.
LogShape five_commits(const std::string& path, CheckpointState& st) {
  const std::string log = state_log_path(path);
  add_full_hour(st);
  commit(path, st);
  const std::uintmax_t first = std::filesystem::file_size(log);
  add_full_hour(st);
  commit(path, st);
  LogShape shape;
  shape.stride = std::filesystem::file_size(log) - first;
  shape.header = first - 3 * shape.stride;
  for (int i = 0; i < 3; ++i) {
    add_full_hour(st);
    commit(path, st);
  }
  return shape;
}

TEST(CheckpointTest, FallbackWalksBackAtMostKMinusOneRecords) {
  const std::string path = temp_path("billcap_checkpoint_walk.j");
  remove_checkpoint(path);
  CheckpointState st = sample_state();
  const LogShape shape = five_commits(path, st);
  EXPECT_EQ(shape.header, 32u);
  ASSERT_EQ(st.next_hour, 7u);

  // Each newest record that rots costs the load one record; K = 3 reaches
  // two records back and no further, K = 4 one more.
  for (std::size_t rotten = 0; rotten < 3; ++rotten) {
    const CheckpointLoadReport report =
        load_checkpoint_fallback(path, 3, st.config_digest);
    EXPECT_EQ(report.generation, rotten);
    EXPECT_EQ(report.skipped.size(), rotten);
    EXPECT_EQ(report.state.next_hour, st.next_hour - rotten);
    flip_record(state_log_path(path), shape, 6 - rotten);
  }
  EXPECT_THROW(load_checkpoint_fallback(path, 3, st.config_digest),
               std::runtime_error);
  EXPECT_EQ(load_checkpoint_fallback(path, 4, st.config_digest)
                .state.next_hour,
            st.next_hour - 3);
  remove_checkpoint(path);
}

TEST(CheckpointTest, FallbackSkipsCorruptedNewestGeneration) {
  const std::string path = temp_path("billcap_checkpoint_fallback.j");
  remove_checkpoint(path);
  CheckpointState st = sample_state();
  commit(path, st);
  const CheckpointState before = st;
  add_full_hour(st);
  commit(path, st);

  // Pristine log: the newest commit wins, nothing is skipped.
  CheckpointLoadReport report =
      load_checkpoint_fallback(path, 3, st.config_digest);
  EXPECT_EQ(report.generation, 0u);
  EXPECT_TRUE(report.skipped.empty());
  expect_states_bitwise_equal(st, report.state);

  // Bit rot in the newest record: the load falls back one commit and
  // reports what it stepped over.
  {
    std::fstream f(state_log_path(path),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-24, std::ios::end);
    f << "<<bit-rot>>";
  }
  report = load_checkpoint_fallback(path, 3, st.config_digest);
  EXPECT_EQ(report.generation, 1u);
  ASSERT_EQ(report.skipped.size(), 1u);
  EXPECT_NE(report.skipped[0].find(path), std::string::npos);
  expect_states_bitwise_equal(before, report.state);
  remove_checkpoint(path);
}

TEST(CheckpointTest, FallbackRefusesAHeadOfAnotherConfiguration) {
  // One head per month: a checkpoint of another configuration at the path
  // is refused outright, however far back the load may walk.
  const std::string path = temp_path("billcap_checkpoint_digestfb.j");
  remove_checkpoint(path);
  CheckpointState st = sample_state();
  commit(path, st);
  try {
    load_checkpoint_fallback(path, 3, st.config_digest ^ 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos);
  }
  expect_states_bitwise_equal(
      st, load_checkpoint_fallback(path, 3, st.config_digest).state);
  remove_checkpoint(path);
}

TEST(CheckpointTest, FallbackThrowsWhenNoGenerationIsViable) {
  const std::string path = temp_path("billcap_checkpoint_allbad.j");
  remove_checkpoint(path);
  EXPECT_FALSE(checkpoint_exists(path));
  EXPECT_THROW(load_checkpoint_fallback(path, 3, 0), std::runtime_error);

  // Present but every record within reach corrupted is just as dead — and
  // the error must name every record it tried.
  CheckpointState st = sample_state();
  const LogShape shape = five_commits(path, st);
  for (std::size_t record = 5; record <= 6; ++record)
    flip_record(state_log_path(path), shape, record);
  try {
    load_checkpoint_fallback(path, 2, st.config_digest);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos);
    EXPECT_NE(what.find("record 5"), std::string::npos) << what;
    EXPECT_NE(what.find("record 6"), std::string::npos) << what;
  }
  remove_checkpoint(path);
}

TEST(CheckpointTest, FaultCursorsSurviveTheRoundTrip) {
  const std::string path = temp_path("billcap_checkpoint_cursors.j");
  remove_checkpoint(path);
  CheckpointState st = sample_state();
  st.storms_fired = 4;
  st.corruptions_fired = 2;

  // A commit, then a cursor-only one on top.
  commit(path, st);
  ++st.storms_fired;
  commit(path, st);
  const CheckpointState back = load_checkpoint(path);
  EXPECT_EQ(back.storms_fired, 5u);
  EXPECT_EQ(back.corruptions_fired, 2u);
  expect_states_bitwise_equal(st, back);
  remove_checkpoint(path);
}

TEST(CheckpointTest, DigestSeparatesStormAndCorruptionPlans) {
  SimulationConfig config;
  const std::uint64_t base = checkpoint_digest(config, Strategy::kCostCapping);

  SimulationConfig other = config;
  other.fault_plan.exit_storms.push_back({5, 3});
  EXPECT_NE(base, checkpoint_digest(other, Strategy::kCostCapping));

  other = config;
  other.fault_plan.checkpoint_corruptions.push_back({9});
  EXPECT_NE(base, checkpoint_digest(other, Strategy::kCostCapping));

  // Standby mode is deliberately digest-neutral: the degraded standby
  // must be able to adopt the primary's checkpoint and hand it back.
  other = config;
  other.standby = true;
  EXPECT_EQ(base, checkpoint_digest(other, Strategy::kCostCapping));
}

/// sample_state() with every coupler-era field off its default: a month
/// that iterated, oscillated once, tripped the breaker and is mid-cooldown.
CheckpointState coupler_sample_state() {
  CheckpointState st = sample_state();
  st.coupler.breaker.state = BreakerState::kOpen;
  st.coupler.breaker.consecutive_failed = 2;
  st.coupler.breaker.cooldown_remaining = 5;
  st.coupler.breaker.current_cooldown = 8;
  st.coupler.breaker.trips = 3;
  st.coupler.rung = 2;
  st.coupler.clean_streak = 1;
  st.coupler.last_valid = true;
  st.coupler.last_power_mw = {12.5, 0.0, 30.0625};
  st.coupler.last_active = {1, 0, 1};
  for (std::size_t h = 0; h < st.partial.hours.size(); ++h) {
    HourRecord& rec = st.partial.hours[h];
    rec.coupler_iterations = 3 + h;
    rec.coupler_converged = (h == 0);
    rec.coupler_fallback = (h == 1);
    rec.coupler_rung = h;
    if (h == 1) rec.failure = FailureReason::kPriceOscillation;
  }
  refold(st.partial);
  return st;
}

TEST(CheckpointTest, CouplerEraJournalRoundTripsBitwise) {
  // A checkpoint carrying a live coupler trajectory (breaker mid-cooldown,
  // per-hour iteration records, an oscillation failure) round-trips with
  // every field intact, and committing the loaded state afresh reproduces
  // the head and the state log byte for byte.
  const std::string path = temp_path("billcap_checkpoint_coupler.j");
  remove_checkpoint(path);
  const CheckpointState st = coupler_sample_state();
  commit(path, st);
  CheckpointState back = load_checkpoint(path);
  expect_states_bitwise_equal(st, back);
  EXPECT_EQ(back.partial.hours[1].failure, FailureReason::kPriceOscillation);

  const std::string head = read_bytes(path);
  const std::string log = read_bytes(state_log_path(path));
  remove_checkpoint(path);
  back.log = {};
  commit(path, back);
  EXPECT_EQ(read_bytes(path), head) << "re-committed head differs";
  EXPECT_EQ(read_bytes(state_log_path(path)), log)
      << "re-committed state log differs";
  remove_checkpoint(path);
}

TEST(CheckpointTest, HourCountInconsistencyIsRejected) {
  // A committed record whose next_hour disagrees with the hours logged up
  // to it is refused, not resumed at the wrong hour.
  const std::string path = temp_path("billcap_checkpoint_inconsistent.j");
  remove_checkpoint(path);
  CheckpointState st = sample_state();
  st.next_hour = st.partial.hours.size() + 5;  // claims more than it holds
  commit(path, st);
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  EXPECT_THROW(load_checkpoint_fallback(path, 3, st.config_digest),
               std::runtime_error);
  remove_checkpoint(path);
}

/// A head as the writers before the state log left it for a month with no
/// hour committed yet: format v1 carried its hours inline, v2 named an
/// hour-log prefix (here the empty one). Every key such a head held, so a
/// loader of those formats would resume it.
util::Journal pre_state_log_head(int version, std::uint64_t digest) {
  util::Journal head(keys::kCheckpointMagic, version);
  head.set_u64(keys::kConfigDigest, digest);
  head.set_u64(keys::kStrategy,
               static_cast<std::uint64_t>(Strategy::kCostCapping));
  for (const char* key :
       {"next_hour", "crashes_fired", "feed_recovered_until", "degraded_hours",
        "incumbent_hours", "heuristic_hours", "outage_hours", "stale_hours",
        "feed_retry_attempts", "feed_recovered_hours", "crash_recoveries",
        "failure_tally", "hours"})
    head.set_size(key, 0);
  for (const char* key :
       {"spent", "monthly_budget", "total_cost", "total_premium_arrivals",
        "total_ordinary_arrivals", "total_served_premium",
        "total_served_ordinary"})
    head.set_double_bits(key, 0.0);
  for (std::size_t i = 0; i < 4; ++i) head.set_u64(keys::feed_rng(i), 0);
  if (version == 2) {
    head.set("hour_log", "month.ck.hours");
    head.set_u64("hour_log_chain", util::RecordLog::kEmptyChain);
  }
  return head;
}

TEST(CheckpointTest, PreStateLogHeadIsRefusedNamingItsFormat) {
  // Only the state log is read: a v1 or v2 head is refused with an error
  // that names its format, by every load, by the supervisor's probe and by
  // `billcap simulate --resume`, instead of resuming the month it began.
  const std::string path = temp_path("billcap_checkpoint_pre_state_log.j");
  const std::uint64_t digest =
      checkpoint_digest(SimulationConfig{}, Strategy::kCostCapping);
  for (const int version : {1, 2}) {
    const std::string format = "format v" + std::to_string(version);
    SCOPED_TRACE(format);
    remove_checkpoint(path);
    pre_state_log_head(version, digest).save_atomic(path);
    const auto expect_refused = [&](const std::function<void()>& load) {
      try {
        load();
        ADD_FAILURE() << "loaded a " << format << " head";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(format), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
      }
    };
    expect_refused([&] { load_checkpoint(path); });
    expect_refused([&] { load_checkpoint_fallback(path, 3, digest); });
    expect_refused([&] { checkpoint_next_hour(path, 3); });
    EXPECT_EQ(probe_checkpoint_hour(path, 3), 0u);

#if defined(__unix__) || defined(__APPLE__)
    const std::string command = std::string(BILLCAP_CLI_PATH) +
                                " simulate --checkpoint " + path +
                                " --resume 2>&1";
    FILE* pipe = ::popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string output;
    char buf[4096];
    for (std::size_t n = 0; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;)
      output.append(buf, n);
    const int status = ::pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status)) << output;
    EXPECT_EQ(WEXITSTATUS(status), kExitRuntimeError) << output;
    EXPECT_NE(output.find(format + " predates the state log"),
              std::string::npos)
        << output;
#endif
    // The refused head is left where it was, for its owner to remove.
    EXPECT_TRUE(checkpoint_exists(path));
  }
  remove_checkpoint(path);
}

// ---- format v3: a head per month + the state log ----------------------------

TEST(CheckpointTest, RotatedCommitRoundTripsThroughTheHourLog) {
  const std::string path = temp_path("billcap_checkpoint_v3.j");
  remove_checkpoint(path);
  CheckpointState st = coupler_sample_state();
  commit(path, st);
  const std::string head_text = read_bytes(path);
  add_full_hour(st);
  st.coupler.rung = 1;
  st.coupler.last_power_mw[1] = 7.75;
  commit(path, st);

  // The head names the run and its log, and later commits leave it alone.
  const util::Journal head = util::Journal::load(
      path, keys::kCheckpointMagic, keys::kCheckpointVersion);
  EXPECT_EQ(head.version(), keys::kCheckpointVersion);
  EXPECT_EQ(head.get(keys::kStateLog), "billcap_checkpoint_v3.j.log");
  // The head carries no state: exactly the five v3 keys.
  for (const char* key : {keys::kConfigDigest, keys::kStrategy,
                          keys::kMonthlyBudget, keys::kStateLog,
                          keys::kStateLogWidth})
    EXPECT_TRUE(head.has(key)) << key;
  const std::string head_body = head.serialize();
  EXPECT_EQ(std::count(head_body.begin(), head_body.end(), '='), 5)
      << head_body;
  EXPECT_EQ(read_bytes(path), head_text);
  CheckpointState back = load_checkpoint(path);
  expect_states_bitwise_equal(st, back);
  EXPECT_EQ(back.log.hours, st.partial.hours.size());
  EXPECT_EQ(back.log.cursor.count, 3u);  // an hour-only record, 2 commits

  // A cursor-only commit adds a record and no hour.
  ++st.crashes_fired;
  st.partial.crash_recoveries = st.crashes_fired;
  commit(path, st);
  back = load_checkpoint(path);
  expect_states_bitwise_equal(st, back);
  EXPECT_EQ(back.log.cursor.count, 4u);
  EXPECT_EQ(back.log.hours, st.partial.hours.size());
  remove_checkpoint(path);
}

TEST(CheckpointTest, RetiredWallTimeWordsOfOlderFilesAreIgnored) {
  // Until solves were bounded by node budgets alone, every encoded hour
  // carried the hour's measured solve time in word 17, and a load ignores
  // the word. An encoded hour now holds +0.0 there (the record keeps its
  // width).
  constexpr std::size_t kWallTimeWord = 17;
  const CheckpointState st = coupler_sample_state();
  for (const HourRecord& rec : st.partial.hours)
    EXPECT_EQ(util::load_le64(encode_hour_record(rec).data() +
                              8 * kWallTimeWord),
              0u);
}

TEST(CheckpointTest, FlippedLogByteSkipsEveryGenerationNamingIt) {
  const std::string path = temp_path("billcap_checkpoint_logrot.j");
  const std::string log = state_log_path(path);
  remove_checkpoint(path);
  CheckpointState st = sample_state();
  const LogShape shape = five_commits(path, st);

  // Record 5 rots: the commits in records 5 and 6 are skipped, each with a
  // reason naming the log; record 4 (next_hour 5) still loads.
  flip_record(log, shape, 5);
  const CheckpointLoadReport report =
      load_checkpoint_fallback(path, 3, st.config_digest);
  EXPECT_EQ(report.generation, 2u);
  EXPECT_EQ(report.state.next_hour, 5u);
  ASSERT_EQ(report.skipped.size(), 2u);
  for (const std::string& reason : report.skipped)
    EXPECT_NE(reason.find(log), std::string::npos) << reason;

  // Record 0 rots: every commit replays it, none is viable, and the resume
  // is refused rather than silently shortened.
  flip_record(log, shape, 0);
  try {
    load_checkpoint_fallback(path, 7, st.config_digest);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(log), std::string::npos) << e.what();
  }
  remove_checkpoint(path);
}

TEST(CheckpointTest, HeadIsRejectedWithAForeignOrRewrittenLog) {
  const std::string path = temp_path("billcap_checkpoint_foreign.j");
  const std::string log = state_log_path(path);
  remove_checkpoint(path);
  CheckpointState a = sample_state();
  for (int i = 0; i < 3; ++i) {
    add_full_hour(a);
    commit(path, a);
  }
  const std::string a_head = read_bytes(path);
  const std::string a_log = read_bytes(log);

  // Another run (another digest, other records) starts fresh at the path.
  CheckpointState b = sample_state();
  b.config_digest ^= 0xff;
  b.partial.hours[0].cost += 1.0;
  refold(b.partial);
  remove_checkpoint(path);
  for (int i = 0; i < 3; ++i) {
    add_full_hour(b);
    commit(path, b);
  }
  expect_states_bitwise_equal(b, load_checkpoint(path));

  // b's head paired with a's log: the log's writer digest differs.
  write_bytes(log, a_log);
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  EXPECT_THROW(load_checkpoint_fallback(path, 3, b.config_digest),
               std::runtime_error);

  // a's own head, but its log rewritten by a writer sized for more sites:
  // the record width no longer matches the head's.
  CheckpointState wider = a;
  wider.sites = 5;
  wider.log = {};
  remove_checkpoint(path);
  commit(path, wider);
  write_bytes(path, a_head);
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  EXPECT_THROW(load_checkpoint_fallback(path, 3, a.config_digest),
               std::runtime_error);

  // Restoring a's log restores the pair.
  write_bytes(log, a_log);
  expect_states_bitwise_equal(a, load_checkpoint(path));
  remove_checkpoint(path);
}

TEST(CheckpointTest, MutatedHeadOrLogLoadsACommittedStateOrThrows) {
  // A seeded corpus of damaged checkpoints: byte flips, truncations and
  // appended garbage on the head and on a state log that mixes hour
  // commits with cursor-only ones. Every load must either return a state
  // equal to one that was committed, or throw std::runtime_error; any
  // other exception escapes and fails.
  const std::string path = temp_path("billcap_checkpoint_mutants.j");
  const std::string log = state_log_path(path);
  remove_checkpoint(path);
  CheckpointState st = coupler_sample_state();
  std::vector<CheckpointState> committed;
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 2) {
      ++st.storms_fired;  // a storm death: a cursor-only record
    } else {
      add_full_hour(st);
      st.coupler.clean_streak = static_cast<std::size_t>(i);
    }
    commit(path, st);
    committed.push_back(st);
  }
  const std::string files[] = {path, log};
  const std::string pristine[] = {read_bytes(files[0]), read_bytes(files[1])};

  util::Rng rng(2012);
  std::size_t loaded = 0;
  std::size_t refused = 0;
  for (int mutant = 0; mutant < 300; ++mutant) {
    for (int f = 0; f < 2; ++f) write_bytes(files[f], pristine[f]);
    // Three in four mutants hit the log, which carries the state.
    const std::size_t target = rng.below(4) == 0 ? 0 : 1;
    std::string bytes = pristine[target];
    const util::Mutation mutation = util::mutate_bytes(rng, bytes);
    write_bytes(files[target], bytes);
    SCOPED_TRACE("mutant " + std::to_string(mutant) + " of " +
                 files[target] + ":" + mutation.what);

    const auto check = [&](const CheckpointState& got) {
      ++loaded;
      for (const CheckpointState& c : committed)
        if (c.next_hour == got.next_hour && c.storms_fired == got.storms_fired)
          return expect_states_bitwise_equal(c, got);
      ADD_FAILURE() << "loaded a state no commit wrote: next_hour "
                    << got.next_hour << ", storms " << got.storms_fired;
    };
    try {
      check(load_checkpoint(path));
    } catch (const std::runtime_error&) {
      ++refused;
    }
    try {
      check(load_checkpoint_fallback(path, 2, st.config_digest).state);
    } catch (const std::runtime_error&) {
      ++refused;
    }
  }
  // Both outcomes occur: a torn tail or a rotted newest record loads an
  // older commit, a flipped head or a log cut into its header is refused.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(refused, 0u);
  remove_checkpoint(path);
}

}  // namespace
}  // namespace billcap::core
