// Crash/resume integration: a month that is killed and restarted from the
// durable checkpoint — even at EVERY hour — must finish with a
// MonthlyResult bitwise identical to the same seed run uninterrupted.
//
// The fault mix covers every hourly kind: outages, stale feeds, demand
// shocks and node-budget squeezes, planned and drawn. All of them are
// deterministic in the seed, so bitwise comparison is meaningful;
// crash_recoveries differs by design (that is the point of the run).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/simulator.hpp"

namespace billcap::core {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

SimulationConfig faulty_config() {
  SimulationConfig config;
  config.monthly_budget = 1.5e6;
  config.seed = 2012;
  config.fault_rates.outage_rate = 0.003;
  config.fault_rates.stale_rate = 0.02;
  config.fault_rates.shock_rate = 0.005;
  config.fault_rates.squeeze_rate = 0.01;
  config.fault_plan.deadline_squeezes.push_back({40, 30, 3});
  config.fault_plan.deadline_squeezes.push_back({300, 12, 1});
  config.market_feed.retry_success_prob = 0.5;
  return config;
}

/// Bitwise equality of two monthly results, except the crash-recovery
/// counter.
void expect_results_bitwise_equal(const MonthlyResult& a,
                                  const MonthlyResult& b) {
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.monthly_budget, b.monthly_budget);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.total_premium_arrivals, b.total_premium_arrivals);
  EXPECT_EQ(a.total_ordinary_arrivals, b.total_ordinary_arrivals);
  EXPECT_EQ(a.total_served_premium, b.total_served_premium);
  EXPECT_EQ(a.total_served_ordinary, b.total_served_ordinary);
  EXPECT_EQ(a.degraded_hours, b.degraded_hours);
  EXPECT_EQ(a.incumbent_hours, b.incumbent_hours);
  EXPECT_EQ(a.heuristic_hours, b.heuristic_hours);
  EXPECT_EQ(a.outage_hours, b.outage_hours);
  EXPECT_EQ(a.stale_hours, b.stale_hours);
  EXPECT_EQ(a.failure_tally, b.failure_tally);
  EXPECT_EQ(a.feed_retry_attempts, b.feed_retry_attempts);
  EXPECT_EQ(a.feed_recovered_hours, b.feed_recovered_hours);
  ASSERT_EQ(a.hours.size(), b.hours.size());
  for (std::size_t h = 0; h < a.hours.size(); ++h) {
    const HourRecord& p = a.hours[h];
    const HourRecord& q = b.hours[h];
    EXPECT_EQ(p.hour, q.hour) << "hour " << h;
    EXPECT_EQ(p.arrivals, q.arrivals) << "hour " << h;
    EXPECT_EQ(p.premium_arrivals, q.premium_arrivals) << "hour " << h;
    EXPECT_EQ(p.ordinary_arrivals, q.ordinary_arrivals) << "hour " << h;
    EXPECT_EQ(p.served_premium, q.served_premium) << "hour " << h;
    EXPECT_EQ(p.served_ordinary, q.served_ordinary) << "hour " << h;
    EXPECT_EQ(p.hourly_budget, q.hourly_budget) << "hour " << h;
    EXPECT_EQ(p.cost, q.cost) << "hour " << h;
    EXPECT_EQ(p.predicted_cost, q.predicted_cost) << "hour " << h;
    EXPECT_EQ(p.mode, q.mode) << "hour " << h;
    EXPECT_EQ(p.site_lambda, q.site_lambda) << "hour " << h;
    EXPECT_EQ(p.site_power_mw, q.site_power_mw) << "hour " << h;
    EXPECT_EQ(p.nodes, q.nodes) << "hour " << h;
    EXPECT_EQ(p.degraded, q.degraded) << "hour " << h;
    EXPECT_EQ(p.failure, q.failure) << "hour " << h;
    EXPECT_EQ(p.used_incumbent, q.used_incumbent) << "hour " << h;
    EXPECT_EQ(p.used_heuristic, q.used_heuristic) << "hour " << h;
    EXPECT_EQ(p.sites_down, q.sites_down) << "hour " << h;
    EXPECT_EQ(p.stale_prices, q.stale_prices) << "hour " << h;
    EXPECT_EQ(p.feed_attempts, q.feed_attempts) << "hour " << h;
    EXPECT_EQ(p.feed_recovered, q.feed_recovered) << "hour " << h;
  }
}

/// Runs the month through run_resumable, restarting after every crash,
/// and returns the completed result plus the number of restarts taken.
MonthlyResult run_to_completion(const Simulator& sim, Strategy strategy,
                                const std::string& path,
                                std::size_t* restarts = nullptr) {
  remove_checkpoint(path);
  Simulator::ResumableOutcome outcome =
      sim.run_resumable(strategy, path, /*resume=*/false);
  std::size_t n = 0;
  while (outcome.crashed) {
    ++n;
    outcome = sim.run_resumable(strategy, path, /*resume=*/true);
  }
  if (restarts) *restarts = n;
  remove_checkpoint(path);
  return outcome.result;
}

TEST(CrashResumeTest, NoCrashesMatchesPlainRun) {
  const SimulationConfig config = faulty_config();
  const Simulator sim(config);
  const MonthlyResult want = sim.run(Strategy::kCostCapping);
  std::size_t restarts = 999;
  const MonthlyResult got =
      run_to_completion(sim, Strategy::kCostCapping,
                        temp_path("billcap_resume_none.j"), &restarts);
  EXPECT_EQ(restarts, 0u);
  EXPECT_EQ(got.crash_recoveries, 0u);
  expect_results_bitwise_equal(want, got);
}

TEST(CrashResumeTest, KillAtEveryHourReproducesUninterruptedMonth) {
  // One crash planned at EVERY hour of the month, alternating between
  // dying just before the hour's checkpoint commits (the hour must be
  // recomputed on resume) and just after (resume continues at the next
  // hour). Every hour of the month therefore exercises a resume.
  SimulationConfig config = faulty_config();
  const Simulator reference(config);
  const MonthlyResult want = reference.run(Strategy::kCostCapping);
  const std::size_t month_hours = want.hours.size();

  for (std::size_t h = 0; h < month_hours; ++h)
    config.fault_plan.crashes.push_back({h, /*before_checkpoint=*/h % 2 == 0});
  const Simulator sim(config);

  std::size_t restarts = 0;
  const MonthlyResult got =
      run_to_completion(sim, Strategy::kCostCapping,
                        temp_path("billcap_resume_every_hour.j"), &restarts);
  EXPECT_EQ(restarts, month_hours);
  EXPECT_EQ(got.crash_recoveries, month_hours);
  expect_results_bitwise_equal(want, got);
}

TEST(CrashResumeTest, CrashReportsHourAndResumePoint) {
  SimulationConfig config = faulty_config();
  config.fault_plan.crashes.push_back({10, /*before_checkpoint=*/false});
  config.fault_plan.crashes.push_back({11, /*before_checkpoint=*/true});
  const Simulator sim(config);
  const std::string path = temp_path("billcap_resume_report.j");
  remove_checkpoint(path);

  // Crash after hour 10's checkpoint: hours [0, 10] are committed.
  Simulator::ResumableOutcome outcome =
      sim.run_resumable(Strategy::kCostCapping, path, false);
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.crash_hour, 10u);
  EXPECT_EQ(load_checkpoint(path).next_hour, 11u);

  // Crash before hour 11's checkpoint: hour 11 is NOT committed and will
  // be recomputed by the next resume.
  outcome = sim.run_resumable(Strategy::kCostCapping, path, true);
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.crash_hour, 11u);
  EXPECT_EQ(outcome.resumed_from, 11u);
  EXPECT_EQ(load_checkpoint(path).next_hour, 11u);

  outcome = sim.run_resumable(Strategy::kCostCapping, path, true);
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.result.crash_recoveries, 2u);
  expect_results_bitwise_equal(sim.run(Strategy::kCostCapping),
                               outcome.result);
  remove_checkpoint(path);
}

/// Like run_to_completion, but with explicit ResumeControls on every
/// attempt (rotated generations, standby chunking...).
MonthlyResult run_to_completion_controlled(
    const Simulator& sim, Strategy strategy, const std::string& path,
    const Simulator::ResumeControls& controls, std::size_t* restarts,
    bool fresh_start = true) {
  if (fresh_start) remove_checkpoint(path);
  Simulator::ResumableOutcome outcome =
      sim.run_resumable(strategy, path, !fresh_start, {}, controls);
  std::size_t n = 0;
  while (outcome.crashed) {
    ++n;
    outcome = sim.run_resumable(strategy, path, /*resume=*/true, {}, controls);
  }
  if (restarts) *restarts = n;
  EXPECT_FALSE(outcome.stopped);
  return outcome.result;
}

TEST(CrashResumeTest, ExitStormDiesRepeatedlyWithoutProgressThenDrains) {
  SimulationConfig config = faulty_config();
  const MonthlyResult want = Simulator(config).run(Strategy::kCostCapping);
  config.fault_plan.exit_storms.push_back({5, 3});
  const Simulator sim(config);
  const std::string path = temp_path("billcap_resume_storm.j");
  remove_checkpoint(path);

  // Every storm death strikes before hour 5's checkpoint commits: three
  // attempts in a row die at hour 5 with the checkpoint pinned there.
  Simulator::ResumableOutcome outcome =
      sim.run_resumable(Strategy::kCostCapping, path, false);
  for (std::size_t death = 1; death <= 3; ++death) {
    ASSERT_TRUE(outcome.crashed) << "death " << death;
    EXPECT_EQ(outcome.crash_hour, 5u);
    EXPECT_EQ(load_checkpoint(path).next_hour, 5u);
    EXPECT_EQ(load_checkpoint(path).storms_fired, death);
    outcome = sim.run_resumable(Strategy::kCostCapping, path, true);
  }
  // The storm is drained; the fourth attempt finishes the month and the
  // result is still bit-identical to the uninterrupted run.
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.result.crash_recoveries, 3u);
  expect_results_bitwise_equal(want, outcome.result);
  remove_checkpoint(path);
}

TEST(CrashResumeTest, CheckpointCorruptionFallsBackOneGeneration) {
  SimulationConfig config = faulty_config();
  const MonthlyResult want = Simulator(config).run(Strategy::kCostCapping);
  config.fault_plan.checkpoint_corruptions.push_back({10});
  const Simulator sim(config);
  const std::string path = temp_path("billcap_resume_bitrot.j");
  Simulator::ResumeControls controls;
  controls.keep_generations = 3;
  remove_checkpoint(path);

  // The first attempt commits hour 10, stomps the newest generation and
  // dies: generation 0 is unreadable, generation 1 holds the pre-hour-10
  // state with the corruption cursor already advanced.
  Simulator::ResumableOutcome outcome =
      sim.run_resumable(Strategy::kCostCapping, path, false, {}, controls);
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.crash_hour, 10u);
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);

  // The resume falls back exactly one generation (one replayed hour) and
  // completes the month bit-identically; the fallback's cursor stops the
  // same corruption from re-firing forever.
  outcome = sim.run_resumable(Strategy::kCostCapping, path, true, {}, controls);
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.resumed_generation, 1u);
  ASSERT_EQ(outcome.resume_skipped.size(), 1u);
  EXPECT_EQ(outcome.resumed_from, 10u);
  expect_results_bitwise_equal(want, outcome.result);
  remove_checkpoint(path);
}

TEST(CrashResumeTest, DeathMidRotatedCheckpointWriteResumesNewestViable) {
  // A SIGTERM (or power cut) landing while a checkpoint commit is in
  // flight leaves one of three artifact shapes on disk, depending on where
  // in the commit it struck:
  //
  //   torn tmp       the .tmp of a head write exists, never renamed;
  //   torn record    the state log ends inside the record being appended;
  //   rotted record  the newest record is whole but fails its checksum.
  //
  // The resume must load the newest viable commit in every shape, and the
  // month must still complete bit-identically to the uninterrupted run.
  SimulationConfig config = faulty_config();
  const MonthlyResult want = Simulator(config).run(Strategy::kCostCapping);
  config.fault_plan.crashes.push_back({12, /*before_checkpoint=*/true});
  config.fault_plan.crashes.push_back({18, /*before_checkpoint=*/true});
  config.fault_plan.crashes.push_back({24, /*before_checkpoint=*/true});
  const Simulator sim(config);
  const std::string path = temp_path("billcap_resume_torn.j");
  const std::string log = state_log_path(path);
  Simulator::ResumeControls controls;
  controls.keep_generations = 3;
  remove_checkpoint(path);

  // Crash 1 pins the log at hour 12. Shape: torn tmp left beside the head.
  Simulator::ResumableOutcome outcome =
      sim.run_resumable(Strategy::kCostCapping, path, false, {}, controls);
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.crash_hour, 12u);
  {
    std::ofstream torn(path + ".tmp", std::ios::binary);
    torn << "half-written journal with no checksum";
  }
  const std::uintmax_t before_18 = std::filesystem::file_size(log);
  outcome = sim.run_resumable(Strategy::kCostCapping, path, true, {}, controls);
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.resumed_generation, 0u);  // tmp is invisible to a load
  EXPECT_EQ(outcome.resumed_from, 12u);
  EXPECT_EQ(outcome.crash_hour, 18u);
  std::remove((path + ".tmp").c_str());

  // Shape 2: the crash-time record that advanced the hour-18 crash cursor
  // is torn in half. The newest whole record is hour 17's commit
  // (next_hour 18, so no committed hour is lost), but the cursor advance
  // is gone and the hour-18 death FIRES AGAIN: a planned death is
  // consumed only once its cursor survives.
  const std::uintmax_t after_18 = std::filesystem::file_size(log);
  const std::uintmax_t stride = (after_18 - before_18) / 7;  // 6 hours + 1
  std::filesystem::resize_file(log, after_18 - stride / 2);
  outcome = sim.run_resumable(Strategy::kCostCapping, path, true, {}, controls);
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.resumed_generation, 0u);  // a torn record is no record
  EXPECT_EQ(outcome.resumed_from, 18u);
  EXPECT_EQ(outcome.crash_hour, 18u);
  outcome = sim.run_resumable(Strategy::kCostCapping, path, true, {}, controls);
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.crash_hour, 24u);

  // Shape 3: the hour-24 crash record rots. The load falls back one
  // record to hour 23's commit — next_hour is already 24, so again no
  // committed hour is lost — and the hour-24 death re-fires.
  {
    std::fstream f(log, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-24, std::ios::end);
    f << "<<bit-rot>>";
  }
  outcome = sim.run_resumable(Strategy::kCostCapping, path, true, {}, controls);
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.resumed_generation, 1u);
  ASSERT_EQ(outcome.resume_skipped.size(), 1u);
  EXPECT_EQ(outcome.resumed_from, 24u);  // no committed hour was lost
  EXPECT_EQ(outcome.crash_hour, 24u);    // the unconsumed death re-fires

  // The re-fired death re-persists its cursor; the final attempt finishes
  // the month bit-identically. crash_recoveries is cursor-derived, so the
  // replayed deaths do not double-count.
  outcome = sim.run_resumable(Strategy::kCostCapping, path, true, {}, controls);
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.result.crash_recoveries, 3u);
  expect_results_bitwise_equal(want, outcome.result);
  remove_checkpoint(path);
}

TEST(CrashResumeTest, KillStormWithRotationAndBitRotStillBitIdentical) {
  // The belt-and-braces month: a crash at EVERY hour, plus storage bit
  // rot at three of them, under a three-generation checkpoint chain. The
  // month must still complete bit-identically to the uninterrupted run.
  SimulationConfig config = faulty_config();
  const MonthlyResult want = Simulator(config).run(Strategy::kCostCapping);
  const std::size_t month_hours = want.hours.size();
  for (std::size_t h = 0; h < month_hours; ++h)
    config.fault_plan.crashes.push_back({h, /*before_checkpoint=*/h % 2 == 0});
  config.fault_plan.checkpoint_corruptions.push_back({50});
  config.fault_plan.checkpoint_corruptions.push_back({52});
  config.fault_plan.checkpoint_corruptions.push_back({300});
  const Simulator sim(config);

  Simulator::ResumeControls controls;
  controls.keep_generations = 3;
  std::size_t restarts = 0;
  const std::string path = temp_path("billcap_resume_storm_rot.j");
  const MonthlyResult got = run_to_completion_controlled(
      sim, Strategy::kCostCapping, path, controls, &restarts);
  remove_checkpoint(path);
  EXPECT_EQ(restarts, month_hours + 3);  // every crash + every corruption
  expect_results_bitwise_equal(want, got);
}

TEST(CrashResumeTest, StopFlagFinishesInFlightHourAndResumesCleanly) {
  SimulationConfig config = faulty_config();
  const MonthlyResult want = Simulator(config).run(Strategy::kCostCapping);
  const Simulator sim(config);
  const std::string path = temp_path("billcap_resume_stop.j");
  remove_checkpoint(path);

  // The flag flips while hour 5 is in flight (from the per-hour hook,
  // like the CLI's SIGTERM handler): the attempt must commit hour 5,
  // then stop at the loop top with a consistent checkpoint.
  static volatile std::sig_atomic_t stop = 0;
  stop = 0;
  Simulator::ResumeControls controls;
  controls.stop_flag = &stop;
  Simulator::ResumableOutcome outcome = sim.run_resumable(
      Strategy::kCostCapping, path, false,
      [&](const HourRecord& rec) {
        if (rec.hour == 5) stop = 1;
      },
      controls);
  EXPECT_TRUE(outcome.stopped);
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.result.hours.size(), 6u);
  EXPECT_EQ(load_checkpoint(path).next_hour, 6u);

  // Resuming without the flag finishes the month bit-identically.
  stop = 0;
  outcome = sim.run_resumable(Strategy::kCostCapping, path, true, {},
                              Simulator::ResumeControls{});
  EXPECT_FALSE(outcome.stopped);
  EXPECT_FALSE(outcome.crashed);
  expect_results_bitwise_equal(want, outcome.result);
  remove_checkpoint(path);
}

TEST(CrashResumeTest, StandbyChunkIsPremiumOnlyAndHandsBackToPrimary) {
  // The supervisor's escalation path, in-process: the primary jams on an
  // exit storm at hour 3, a standby attempt (same config + standby flag)
  // commits a 2-hour premium-only chunk past the poisoned hour, and the
  // primary then finishes the month from the standby's checkpoint.
  SimulationConfig config = faulty_config();
  config.fault_plan.exit_storms.push_back({3, 99});  // would never drain
  const Simulator primary(config);
  SimulationConfig standby_config = config;
  standby_config.standby = true;
  const Simulator standby(standby_config);
  const std::string path = temp_path("billcap_resume_standby.j");
  remove_checkpoint(path);

  Simulator::ResumableOutcome outcome =
      primary.run_resumable(Strategy::kCostCapping, path, false);
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.crash_hour, 3u);

  // The standby adopts the primary's checkpoint (standby mode is digest
  // neutral), walks hours 3-4 with the greedy fallback, and stops.
  Simulator::ResumeControls chunk;
  chunk.max_hours = 2;
  outcome =
      standby.run_resumable(Strategy::kCostCapping, path, true, {}, chunk);
  EXPECT_TRUE(outcome.stopped);
  ASSERT_EQ(outcome.result.hours.size(), 5u);
  for (std::size_t h = 3; h <= 4; ++h) {
    const HourRecord& rec = outcome.result.hours[h];
    EXPECT_TRUE(rec.used_heuristic) << "hour " << h;
    EXPECT_TRUE(rec.degraded) << "hour " << h;
    EXPECT_EQ(rec.served_ordinary, 0.0) << "hour " << h;
    EXPECT_GT(rec.served_premium, 0.0) << "hour " << h;
  }

  // The primary resumes past the snapped storm and completes; the whole
  // 99-death storm was charged to the recovery counter by the snap.
  outcome = primary.run_resumable(Strategy::kCostCapping, path, true);
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.result.hours.size(), primary.evaluation_trace().hours());
  EXPECT_EQ(outcome.result.crash_recoveries, 99u);
  remove_checkpoint(path);
}

TEST(CrashResumeTest, ResumeUnderDifferentConfigIsRefused) {
  SimulationConfig config = faulty_config();
  config.fault_plan.crashes.push_back({5, false});
  const Simulator sim(config);
  const std::string path = temp_path("billcap_resume_mismatch.j");
  remove_checkpoint(path);
  const Simulator::ResumableOutcome outcome =
      sim.run_resumable(Strategy::kCostCapping, path, false);
  ASSERT_TRUE(outcome.crashed);

  SimulationConfig other = faulty_config();
  other.seed = 999;  // different month entirely
  other.fault_plan.crashes.push_back({5, false});
  const Simulator wrong(other);
  EXPECT_THROW(wrong.run_resumable(Strategy::kCostCapping, path, true),
               std::runtime_error);
  // A different strategy under the same config is a mismatch too.
  EXPECT_THROW(sim.run_resumable(Strategy::kMinOnlyAvg, path, true),
               std::runtime_error);
  remove_checkpoint(path);
}

TEST(CrashResumeTest, CorruptedCheckpointIsRefusedOnResume) {
  SimulationConfig config = faulty_config();
  config.fault_plan.crashes.push_back({5, false});
  const Simulator sim(config);
  const std::string path = temp_path("billcap_resume_corrupt.j");
  remove_checkpoint(path);
  ASSERT_TRUE(sim.run_resumable(Strategy::kCostCapping, path, false).crashed);

  // Truncate the file to half: the resume must refuse, not half-load.
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }
  EXPECT_THROW(sim.run_resumable(Strategy::kCostCapping, path, true),
               std::runtime_error);
  remove_checkpoint(path);
}

// ---- the state log: one record per commit ----------------------------------

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>{});
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(CrashResumeTest, EachCommitAppendsOneRecordAndKeepsTheHeadSmall) {
  // The O(1) commit: the log grows by exactly one record width per
  // committed hour, the head is written once and never again, and no
  // commit rewrites a record it keeps (a byte rotted into record 5 at hour
  // 30 is still there when the month ends).
  const Simulator sim(faulty_config());
  const std::string path = temp_path("billcap_resume_o1.j");
  const std::string log = state_log_path(path);
  remove_checkpoint(path);
  std::vector<std::uintmax_t> log_size;  // [h]: after h commits
  std::uintmax_t head_after_24 = 0;
  std::uintmax_t head_after_700 = 0;
  // The observer runs before hour h commits, so the files hold h commits.
  const auto on_hour = [&](const HourRecord& rec) {
    log_size.push_back(rec.hour == 0 ? 0 : std::filesystem::file_size(log));
    if (rec.hour == 25) head_after_24 = std::filesystem::file_size(path);
    if (rec.hour == 701) head_after_700 = std::filesystem::file_size(path);
    if (rec.hour == 30) {
      const std::uintmax_t width = log_size[2] - log_size[1];
      std::string bytes = read_bytes(log);
      bytes[log_size[1] - width + 5 * width + width / 2] ^= 0x5a;
      write_bytes(log, bytes);
    }
  };
  const Simulator::ResumableOutcome outcome =
      sim.run_resumable(Strategy::kCostCapping, path, false, on_hour);
  ASSERT_FALSE(outcome.crashed);
  ASSERT_GT(log_size.size(), 701u);
  const std::uintmax_t width = log_size[2] - log_size[1];
  EXPECT_GT(width, 0u);
  for (std::size_t h = 2; h < log_size.size(); ++h)
    EXPECT_EQ(log_size[h] - log_size[h - 1], width) << "commit " << h;
  EXPECT_EQ(head_after_700, head_after_24);
  EXPECT_LE(head_after_700, 4096u);
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  remove_checkpoint(path);
}

TEST(CrashResumeTest, KillMidLogAppendResumesBitIdentically) {
  // A kill while hour h's record is being appended leaves the log cut
  // anywhere inside that record: the resume starts at hour h again. Once
  // the record is whole, hour h is committed and the resume starts at
  // h + 1. Every cut resumes to the uninterrupted month.
  const SimulationConfig config = faulty_config();
  const MonthlyResult want = Simulator(config).run(Strategy::kCostCapping);
  const Simulator sim(config);
  const std::string path = temp_path("billcap_resume_torn_log.j");
  const std::string log = state_log_path(path);
  remove_checkpoint(path);
  const std::size_t h = want.hours.size() - 3;

  Simulator::ResumeControls controls;
  controls.max_hours = h;
  ASSERT_TRUE(
      sim.run_resumable(Strategy::kCostCapping, path, false, {}, controls)
          .stopped);
  const std::string head = read_bytes(path);
  const std::size_t record_start = read_bytes(log).size();
  controls.max_hours = 1;
  ASSERT_TRUE(
      sim.run_resumable(Strategy::kCostCapping, path, true, {}, controls)
          .stopped);
  const std::string full_log = read_bytes(log);
  ASSERT_GT(full_log.size(), record_start);

  for (std::size_t cut = record_start; cut <= full_log.size(); ++cut) {
    write_bytes(path, head);
    write_bytes(log, full_log.substr(0, cut));
    const Simulator::ResumableOutcome outcome =
        sim.run_resumable(Strategy::kCostCapping, path, true);
    ASSERT_FALSE(outcome.crashed) << "cut at " << cut;
    EXPECT_EQ(outcome.resumed_from, cut == full_log.size() ? h + 1 : h)
        << "cut at " << cut;
    expect_results_bitwise_equal(want, outcome.result);
    // What the resumed run committed must read back, too.
    expect_results_bitwise_equal(want, load_checkpoint(path).partial);
    if (::testing::Test::HasFailure()) FAIL() << "cut at " << cut;
  }
  remove_checkpoint(path);
}

}  // namespace
}  // namespace billcap::core
