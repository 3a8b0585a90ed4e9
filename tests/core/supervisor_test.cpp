#include "core/supervisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#endif

namespace billcap::core {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Synthesizes a waitpid-style status word for a normal exit with `code`.
int exited_status(int code) {
#if defined(__unix__) || defined(__APPLE__)
  return code << 8;  // WIFEXITED layout on every POSIX libc we build on
#else
  return code;
#endif
}

// ---- classify_wait_status -------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)
TEST(SupervisorTest, ClassifiesRealChildExits) {
  const auto run_sh = [](const char* script) {
    return classify_wait_status(
        run_child({"/bin/sh", {"-c", std::string(script)}}));
  };
  EXPECT_EQ(run_sh("exit 0"), ChildExit::kSuccess);
  EXPECT_EQ(run_sh("exit 1"), ChildExit::kFailure);
  EXPECT_EQ(run_sh("exit 2"), ChildExit::kUsage);
  EXPECT_EQ(run_sh("exit 4"), ChildExit::kStopped);
  EXPECT_EQ(run_sh("exit 3"), ChildExit::kFailure);  // QoS breach = failure
  // A SIGKILL'd child is a crash, not an exit code.
  EXPECT_EQ(run_sh("kill -9 $$"), ChildExit::kSignalled);
}

TEST(SupervisorTest, ExecFailureIsAPlainFailure) {
  // A nonexistent program exits 127 from the forked child, which the
  // policy treats as a restartable failure (not a usage error).
  const int status = run_child({"/nonexistent/billcap-no-such-binary", {}});
  EXPECT_EQ(classify_wait_status(status), ChildExit::kFailure);
}
#endif

TEST(SupervisorTest, ClassifiesSyntheticStatusWords) {
  EXPECT_EQ(classify_wait_status(exited_status(kExitSuccess)),
            ChildExit::kSuccess);
  EXPECT_EQ(classify_wait_status(exited_status(kExitUsage)),
            ChildExit::kUsage);
  EXPECT_EQ(classify_wait_status(exited_status(kExitStopped)),
            ChildExit::kStopped);
  EXPECT_EQ(classify_wait_status(exited_status(1)), ChildExit::kFailure);
  EXPECT_EQ(classify_wait_status(exited_status(127)), ChildExit::kFailure);
}

// ---- SupervisorPolicy -----------------------------------------------------

using Action = SupervisorDecision::Action;

SupervisorOptions fast_options() {
  SupervisorOptions o;
  o.restart_budget = 100;
  o.restart_window_s = 3600.0;
  o.backoff_base_ms = 50.0;
  o.backoff_multiplier = 2.0;
  o.backoff_max_ms = 5000.0;
  o.backoff_jitter_frac = 0.0;  // exact delays unless a test wants jitter
  o.escalate_after = 3;
  return o;
}

TEST(SupervisorPolicyTest, ValidatesOptions) {
  SupervisorOptions bad = fast_options();
  bad.backoff_multiplier = 0.5;
  EXPECT_THROW(SupervisorPolicy{bad}, std::invalid_argument);
  bad = fast_options();
  bad.backoff_jitter_frac = 1.5;
  EXPECT_THROW(SupervisorPolicy{bad}, std::invalid_argument);
}

TEST(SupervisorPolicyTest, TerminalExitsMapDirectly) {
  SupervisorPolicy policy(fast_options());
  EXPECT_EQ(policy.on_child_exit(ChildExit::kSuccess, false, 720, 0.0).action,
            Action::kStop);
  EXPECT_EQ(policy.on_child_exit(ChildExit::kUsage, false, 0, 0.0).action,
            Action::kGiveUp);
  EXPECT_EQ(policy.on_child_exit(ChildExit::kStopped, false, 10, 0.0).action,
            Action::kStop);
}

TEST(SupervisorPolicyTest, StandbyChunkHandsBackToPrimary) {
  SupervisorPolicy policy(fast_options());
  const SupervisorDecision d =
      policy.on_child_exit(ChildExit::kStopped, /*was_standby=*/true,
                           /*hours_advanced=*/4, 0.0);
  EXPECT_EQ(d.action, Action::kRestartPrimary);
  EXPECT_NE(d.reason.find("standby chunk committed (4h)"), std::string::npos);
}

TEST(SupervisorPolicyTest, BackoffDoublesWhileStuckAndResetsOnProgress) {
  SupervisorPolicy policy(fast_options());  // jitter 0: delays are exact
  // Three zero-progress crashes: 50ms, 100ms, then escalation (still
  // backing off at 200ms for the standby spawn).
  EXPECT_EQ(policy.on_child_exit(ChildExit::kSignalled, false, 0, 0.0).delay_ms,
            50.0);
  EXPECT_EQ(policy.on_child_exit(ChildExit::kSignalled, false, 0, 1.0).delay_ms,
            100.0);
  const SupervisorDecision escalated =
      policy.on_child_exit(ChildExit::kSignalled, false, 0, 2.0);
  EXPECT_EQ(escalated.action, Action::kRunStandby);
  EXPECT_EQ(escalated.delay_ms, 200.0);

  // A later primary attempt that advanced the checkpoint de-escalates and
  // returns to the base delay.
  const SupervisorDecision recovered =
      policy.on_child_exit(ChildExit::kSignalled, false, 12, 3.0);
  EXPECT_EQ(recovered.action, Action::kRestartPrimary);
  EXPECT_EQ(recovered.delay_ms, 50.0);
  EXPECT_FALSE(policy.escalated());
}

TEST(SupervisorPolicyTest, BackoffIsCappedAtMax) {
  SupervisorOptions o = fast_options();
  o.escalate_after = 100;  // keep restarting the primary throughout
  SupervisorPolicy policy(o);
  double last = 0.0;
  for (int i = 0; i < 12; ++i)
    last = policy.on_child_exit(ChildExit::kFailure, false, 0,
                                static_cast<double>(i))
               .delay_ms;
  EXPECT_EQ(last, o.backoff_max_ms);
}

TEST(SupervisorPolicyTest, JitterIsDeterministicInSeedAndBounded) {
  SupervisorOptions o = fast_options();
  o.backoff_jitter_frac = 0.2;
  o.escalate_after = 100;
  SupervisorPolicy a(o);
  SupervisorPolicy b(o);
  o.seed ^= 1;
  SupervisorPolicy c(o);
  bool any_differs = false;
  for (int i = 0; i < 8; ++i) {
    const double t = static_cast<double>(i);
    const double da =
        a.on_child_exit(ChildExit::kSignalled, false, 0, t).delay_ms;
    const double db =
        b.on_child_exit(ChildExit::kSignalled, false, 0, t).delay_ms;
    const double dc =
        c.on_child_exit(ChildExit::kSignalled, false, 0, t).delay_ms;
    EXPECT_EQ(da, db) << "same seed must give the same schedule";
    any_differs |= (da != dc);
    const double nominal =
        std::min(50.0 * std::pow(2.0, static_cast<double>(i)), 5000.0);
    EXPECT_GE(da, nominal * 0.8);
    EXPECT_LE(da, nominal * 1.2);
  }
  EXPECT_TRUE(any_differs) << "different seeds should de-synchronize";
}

TEST(SupervisorPolicyTest, EscalatesAfterConsecutiveZeroProgress) {
  SupervisorPolicy policy(fast_options());  // escalate_after = 3
  // Progress interleaved with failures keeps resetting the streak.
  policy.on_child_exit(ChildExit::kSignalled, false, 0, 0.0);
  policy.on_child_exit(ChildExit::kSignalled, false, 0, 1.0);
  policy.on_child_exit(ChildExit::kSignalled, false, 5, 2.0);  // progress
  EXPECT_EQ(policy.consecutive_no_progress(), 0u);
  EXPECT_FALSE(policy.escalated());

  policy.on_child_exit(ChildExit::kSignalled, false, 0, 3.0);
  policy.on_child_exit(ChildExit::kSignalled, false, 0, 4.0);
  const SupervisorDecision d =
      policy.on_child_exit(ChildExit::kSignalled, false, 0, 5.0);
  EXPECT_EQ(d.action, Action::kRunStandby);
  EXPECT_TRUE(policy.escalated());
  EXPECT_NE(d.reason.find("escalating to degraded standby"),
            std::string::npos);

  // Standby progress does NOT de-escalate (only a healthy primary does):
  // a crashing standby attempt keeps the escalation latched too.
  EXPECT_EQ(policy.on_child_exit(ChildExit::kSignalled, true, 2, 6.0).action,
            Action::kRunStandby);
  EXPECT_TRUE(policy.escalated());
  // A primary attempt with progress clears it.
  policy.on_child_exit(ChildExit::kSignalled, false, 2, 7.0);
  EXPECT_FALSE(policy.escalated());
}

TEST(SupervisorPolicyTest, SlidingWindowBudgetGivesUp) {
  SupervisorOptions o = fast_options();
  o.restart_budget = 3;
  o.restart_window_s = 100.0;
  o.escalate_after = 1000;
  SupervisorPolicy policy(o);
  // Three failures inside the window are tolerated; the fourth trips it.
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(policy
                  .on_child_exit(ChildExit::kFailure, false, 1,
                                 static_cast<double>(i))
                  .action,
              Action::kRestartPrimary);
  const SupervisorDecision d =
      policy.on_child_exit(ChildExit::kFailure, false, 1, 3.0);
  EXPECT_EQ(d.action, Action::kGiveUp);
  EXPECT_NE(d.reason.find("restart budget exhausted"), std::string::npos);
}

TEST(SupervisorPolicyTest, OldFailuresAgeOutOfTheWindow) {
  SupervisorOptions o = fast_options();
  o.restart_budget = 2;
  o.restart_window_s = 10.0;
  o.escalate_after = 1000;
  SupervisorPolicy policy(o);
  // Failures spaced wider than the window never accumulate.
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(policy
                  .on_child_exit(ChildExit::kFailure, false, 1,
                                 static_cast<double>(i) * 20.0)
                  .action,
              Action::kRestartPrimary);
}

// ---- Supervisor with scripted hooks ---------------------------------------

/// Drives the Supervisor loop with a scripted sequence of (exit status,
/// checkpoint hour after the run) pairs and no real processes or sleeps.
struct ScriptedRun {
  int status;              ///< waitpid-style status the fake child returns
  std::size_t hour_after;  ///< checkpoint probe after this run
  bool expect_standby = false;  ///< which child the supervisor must pick
};

SuperviseReport run_scripted(const SupervisorOptions& options,
                             std::vector<ScriptedRun> script,
                             std::vector<double>* delays = nullptr) {
  std::size_t step = 0;
  std::size_t hour = 0;
  double clock_s = 0.0;
  SuperviseHooks hooks;
  hooks.run = [&](const ChildSpec& spec, bool standby) {
    EXPECT_LT(step, script.size()) << "supervisor ran more children than "
                                      "scripted";
    const ScriptedRun& r = script[std::min(step, script.size() - 1)];
    EXPECT_EQ(standby, r.expect_standby) << "step " << step;
    EXPECT_EQ(spec.program,
              r.expect_standby ? "standby-prog" : "primary-prog")
        << "step " << step;
    hour = r.hour_after;
    ++step;
    return r.status;
  };
  hooks.now_s = [&] { return clock_s += 1.0; };
  hooks.sleep_ms = [&](double ms) {
    if (delays) delays->push_back(ms);
  };
  hooks.checkpoint_hour = [&] { return hour; };
  hooks.log = [](const std::string&) {};

  Supervisor supervisor(options, {"primary-prog", {"simulate"}},
                        {"standby-prog", {"simulate", "--standby"}},
                        temp_path("billcap_supervisor_unused.j"), 3, hooks);
  SuperviseReport report = supervisor.run();
  EXPECT_EQ(step, script.size()) << "supervisor stopped early";
  return report;
}

TEST(SupervisorTest, CleanMonthIsOneRunNoRestarts) {
  const SuperviseReport report = run_scripted(
      fast_options(), {{exited_status(kExitSuccess), 720, false}});
  EXPECT_EQ(report.exit_code, kExitSuccess);
  EXPECT_EQ(report.primary_runs, 1u);
  EXPECT_EQ(report.standby_runs, 0u);
  EXPECT_EQ(report.restarts, 0u);
  EXPECT_FALSE(report.escalated);
  EXPECT_FALSE(report.gave_up);
}

TEST(SupervisorTest, CrashesAreRestartedUntilTheMonthCompletes) {
  std::vector<double> delays;
  const SuperviseReport report = run_scripted(
      fast_options(),
      {
          {9 /*SIGKILL*/, 100, false},  // progress, then crash
          {9, 250, false},
          {exited_status(kExitSuccess), 720, false},
      },
      &delays);
  EXPECT_EQ(report.exit_code, kExitSuccess);
  EXPECT_EQ(report.primary_runs, 3u);
  EXPECT_EQ(report.restarts, 2u);
  EXPECT_FALSE(report.escalated);
  // Both restarts made progress, so both waited the base delay.
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_EQ(delays[0], 50.0);
  EXPECT_EQ(delays[1], 50.0);
}

TEST(SupervisorTest, EscalatesToStandbyThenRecoversThePrimary) {
  SupervisorOptions o = fast_options();
  o.escalate_after = 2;
  const SuperviseReport report = run_scripted(
      o, {
             {9, 0, false},                          // no progress
             {9, 0, false},                          // no progress: escalate
             {exited_status(kExitStopped), 4, true},  // standby chunk
             {exited_status(kExitSuccess), 720, false},  // primary resumes
         });
  EXPECT_EQ(report.exit_code, kExitSuccess);
  EXPECT_EQ(report.primary_runs, 3u);
  EXPECT_EQ(report.standby_runs, 1u);
  EXPECT_TRUE(report.escalated);
  EXPECT_FALSE(report.gave_up);
  // The standby chunk handing back to the primary is not a restart.
  EXPECT_EQ(report.restarts, 2u);
}

TEST(SupervisorTest, GracefulChildStopStopsTheSupervisor) {
  const SuperviseReport report = run_scripted(
      fast_options(), {{exited_status(kExitStopped), 42, false}});
  EXPECT_EQ(report.exit_code, kExitStopped);
  EXPECT_EQ(report.restarts, 0u);
}

TEST(SupervisorTest, UsageErrorGivesUpImmediately) {
  const SuperviseReport report = run_scripted(
      fast_options(), {{exited_status(kExitUsage), 0, false}});
  EXPECT_EQ(report.exit_code, kExitGaveUp);
  EXPECT_TRUE(report.gave_up);
  EXPECT_EQ(report.primary_runs, 1u);
}

TEST(SupervisorTest, BudgetExhaustionGivesUp) {
  SupervisorOptions o = fast_options();
  o.restart_budget = 2;
  o.escalate_after = 1000;
  const SuperviseReport report =
      run_scripted(o, {
                          {exited_status(1), 0, false},
                          {exited_status(1), 0, false},
                          {exited_status(1), 0, false},
                      });
  EXPECT_EQ(report.exit_code, kExitGaveUp);
  EXPECT_TRUE(report.gave_up);
  EXPECT_EQ(report.restarts, 2u);
  EXPECT_FALSE(report.events.empty());
}

// ---- probe_checkpoint_hour ------------------------------------------------

/// Stomps the payload of the state log's newest record.
void rot_newest_record(const std::string& path) {
  std::fstream f(state_log_path(path),
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(-24, std::ios::end);
  f << "<<bit-rot>>";
}

/// Commits one more hour on top of `st`.
void commit_hour(const std::string& path, CheckpointState& st) {
  HourRecord rec;
  rec.hour = st.next_hour++;
  st.partial.accumulate(std::move(rec));
  save_checkpoint_rotated(path, st, 3);
}

TEST(SupervisorTest, ProbeFallsBackPastCorruptedGenerations) {
  const std::string path = temp_path("billcap_supervisor_probe.j");
  remove_checkpoint(path);
  EXPECT_EQ(probe_checkpoint_hour(path, 3), 0u);

  CheckpointState st;
  commit_hour(path, st);
  commit_hour(path, st);
  commit_hour(path, st);
  EXPECT_EQ(probe_checkpoint_hour(path, 3), 3u);

  // Stomp the newest record: the probe reads the one before instead, and
  // with only the newest in reach it finds nothing.
  rot_newest_record(path);
  EXPECT_EQ(probe_checkpoint_hour(path, 3), 2u);
  EXPECT_EQ(probe_checkpoint_hour(path, 1), 0u);
  remove_checkpoint(path);
}

TEST(SupervisorTest, ProbeReadsTheStateLogTail) {
  const std::string path = temp_path("billcap_supervisor_probe_tail.j");
  const std::string log = state_log_path(path);
  remove_checkpoint(path);
  CheckpointState st;
  for (int i = 0; i < 4; ++i) commit_hour(path, st);
  const std::uintmax_t four = std::filesystem::file_size(log);
  commit_hour(path, st);
  const std::uintmax_t stride = std::filesystem::file_size(log) - four;
  ASSERT_EQ(probe_checkpoint_hour(path, 2), 5u);

  // A torn final record (a kill mid-append) is not a record: the newest
  // whole one answers, even with only one in reach.
  std::filesystem::resize_file(log, four + stride / 2);
  EXPECT_EQ(probe_checkpoint_hour(path, 1), 4u);
  EXPECT_EQ(probe_checkpoint_hour(path, 2), 4u);

  // A corrupted final record: the one before it answers.
  std::filesystem::resize_file(log, four);
  rot_newest_record(path);
  EXPECT_EQ(probe_checkpoint_hour(path, 2), 3u);

  // Cursor-only records after the last hour (exit-storm deaths) answer
  // with their own next_hour, read without the hour record before them,
  // which here has rotted.
  CheckpointState cursors = load_checkpoint_fallback(path, 2, 0).state;
  ASSERT_EQ(cursors.next_hour, 3u);
  commit_hour(path, cursors);  // record 3 again, intact: next_hour 4
  rot_newest_record(path);
  ++cursors.storms_fired;
  save_checkpoint_rotated(path, cursors, 3);
  ++cursors.storms_fired;
  save_checkpoint_rotated(path, cursors, 3);
  EXPECT_EQ(probe_checkpoint_hour(path, 1), 4u);
  EXPECT_EQ(probe_checkpoint_hour(path, 3), 4u);
  remove_checkpoint(path);
}

// ---- wall-clock independence (billcap-lint BL001 audit) -------------------

// The supervisor's only wall-clock input is the injected now_s hook (see
// the allow(wall-clock) annotation in supervisor.cpp). This pins the
// audit's claim: the same failure sequence observed under two very
// different real-time schedules — a tight crash loop vs. failures spread
// over most of an hour, both inside the restart window — produces
// identical decisions: same actions, same jittered backoff delays, same
// escalation points. Real time therefore cannot change which children run,
// and the checkpointed state they produce stays byte-identical (the
// end-to-end half of that claim is pinned by the crash_resume bitwise
// tests).
TEST(SupervisorPolicyTest, DecisionsAreIndependentOfTheWallClockSchedule) {
  SupervisorOptions o = fast_options();
  o.backoff_jitter_frac = 0.2;  // jitter on: the rng draw order matters
  o.escalate_after = 2;
  o.seed = 7;

  const auto run_schedule = [&](double start_s, double step_s) {
    SupervisorPolicy policy(o);
    const ChildExit exits[] = {ChildExit::kSignalled, ChildExit::kFailure,
                               ChildExit::kSignalled, ChildExit::kFailure};
    const std::size_t advanced[] = {0, 0, 4, 0};
    const bool standby[] = {false, false, true, false};
    std::vector<SupervisorDecision> decisions;
    double now = start_s;
    for (std::size_t i = 0; i < 4; ++i) {
      decisions.push_back(
          policy.on_child_exit(exits[i], standby[i], advanced[i], now));
      now += step_s;
    }
    return decisions;
  };

  const auto fast = run_schedule(0.0, 0.001);  // tight crash loop
  const auto slow = run_schedule(1e6, 800.0);  // spread over ~40 minutes
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].action, slow[i].action) << "step " << i;
    EXPECT_EQ(fast[i].delay_ms, slow[i].delay_ms) << "step " << i;
  }
  // The schedule did exercise both escalation and jittered delays.
  EXPECT_EQ(fast[1].action, Action::kRunStandby);
  EXPECT_GT(fast[1].delay_ms, 0.0);
}

}  // namespace
}  // namespace billcap::core
