#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/exit_codes.hpp"
#include "util/rng.hpp"

namespace billcap::core {

/// How a supervised child ended, from the supervisor's point of view.
enum class ChildExit {
  kSuccess,    ///< exit 0: the month is complete
  kStopped,    ///< exit kExitStopped: graceful stop / standby chunk done
  kUsage,      ///< exit kExitUsage: restarting cannot fix a bad config
  kFailure,    ///< any other nonzero exit (runtime error, QoS breach...)
  kSignalled,  ///< killed by a signal: crash, OOM-kill, sanitizer abort
};
const char* to_string(ChildExit exit) noexcept;

/// Maps a waitpid()-style status word onto the ChildExit taxonomy.
ChildExit classify_wait_status(int wait_status) noexcept;

/// Restart policy knobs. Defaults suit an hourly controller whose child
/// normally lives for many simulated hours per process.
struct SupervisorOptions {
  /// Give up after this many failure-triggered restarts within any
  /// sliding `restart_window_s` span (a crash-looping controller must not
  /// hammer the machine forever).
  std::size_t restart_budget = 100;
  double restart_window_s = 3600.0;

  /// Exponential backoff between restarts, with deterministic jitter drawn
  /// from `seed` (so two supervisors on one host do not restart in
  /// lockstep, yet a test can predict the exact delays).
  double backoff_base_ms = 50.0;
  double backoff_multiplier = 2.0;
  double backoff_max_ms = 5000.0;
  double backoff_jitter_frac = 0.2;
  std::uint64_t seed = 2012;

  /// After this many *consecutive* restarts that made zero checkpoint
  /// progress, escalate to the degraded standby (premium-only, no MILP).
  std::size_t escalate_after = 3;
  /// Simulated hours each standby attempt commits before handing control
  /// back to the primary for another try.
  std::size_t standby_hours = 4;
};

/// What the supervisor should do after a child exit.
struct SupervisorDecision {
  enum class Action {
    kRestartPrimary,  ///< spawn the primary again after `delay_ms`
    kRunStandby,      ///< escalated: spawn the degraded standby child
    kStop,            ///< clean end (month complete or operator stop)
    kGiveUp,          ///< restart budget exhausted / unfixable failure
  };
  Action action = Action::kStop;
  double delay_ms = 0.0;
  std::string reason;
};

/// The restart state machine, separated from process plumbing so it can be
/// driven with an injected clock: sliding-window restart budget,
/// exponential backoff with deterministic jitter, and escalation to
/// standby after repeated zero-progress failures. De-escalates as soon as
/// a *primary* attempt advances the checkpoint again.
class SupervisorPolicy {
 public:
  explicit SupervisorPolicy(SupervisorOptions options);

  /// Feeds one child exit into the machine. `was_standby` says which child
  /// ran, `hours_advanced` how many simulated hours its attempt committed
  /// (from checkpoint probes), `now_s` the monotonic time of the exit.
  SupervisorDecision on_child_exit(ChildExit exit, bool was_standby,
                                   std::size_t hours_advanced, double now_s);

  bool escalated() const noexcept { return escalated_; }
  std::size_t consecutive_no_progress() const noexcept {
    return consecutive_no_progress_;
  }

 private:
  double next_backoff_ms();

  SupervisorOptions options_;
  util::Rng rng_;
  std::vector<double> restart_times_s_;  ///< failure times inside the window
  std::size_t consecutive_no_progress_ = 0;
  bool escalated_ = false;
};

/// A child process to spawn: program path plus argv[1..].
struct ChildSpec {
  std::string program;
  std::vector<std::string> args;
};

/// Spawns the child (fork/execv), waits for it, and returns the raw
/// waitpid status word. The child's pid is published so the supervisor's
/// SIGTERM/SIGINT handler can forward the signal. Throws
/// std::runtime_error when the platform cannot spawn processes.
int run_child(const ChildSpec& spec);

/// Best-effort progress probe: next_hour of the newest of the last
/// keep_generations state-log records that verifies (core's
/// checkpoint_next_hour), or 0 when none does. It reads the head and the
/// log's tail only, so it costs the same at any hour. Serve-daemon
/// checkpoints are probed too (next_tick of the newest generation that
/// loads); the restart policy only compares deltas, so any monotone
/// progress counter serves.
std::size_t probe_checkpoint_hour(const std::string& checkpoint_path,
                                  std::size_t keep_generations) noexcept;

/// Seams for tests: every interaction with the outside world goes through
/// one of these. Unset members get the real implementation (fork/exec,
/// the monotonic clock, nanosleep, checkpoint probe, stderr logging).
struct SuperviseHooks {
  std::function<int(const ChildSpec&, bool standby)> run;
  std::function<double()> now_s;
  std::function<void(double)> sleep_ms;
  std::function<std::size_t()> checkpoint_hour;
  std::function<void(const std::string&)> log;
};

/// What a supervise run did, for reporting and assertions.
struct SuperviseReport {
  int exit_code = kExitSuccess;  ///< what the supervisor should exit with
  std::size_t primary_runs = 0;
  std::size_t standby_runs = 0;
  std::size_t restarts = 0;  ///< failure-triggered respawns
  bool escalated = false;    ///< standby mode was entered at least once
  bool gave_up = false;
  std::vector<std::string> events;  ///< human-readable decision log
};

/// The watchdog: runs the primary child in a loop, classifies each exit,
/// consults the policy, and either restarts (with backoff), escalates to
/// the standby child, stops, or gives up. SIGTERM/SIGINT received by the
/// supervisor are forwarded to the live child; the ensuing graceful child
/// exit ends the loop with kExitStopped.
class Supervisor {
 public:
  Supervisor(SupervisorOptions options, ChildSpec primary, ChildSpec standby,
             std::string checkpoint_path, std::size_t keep_generations,
             SuperviseHooks hooks = {});

  SuperviseReport run();

 private:
  SupervisorPolicy policy_;
  ChildSpec primary_;
  ChildSpec standby_;
  std::string checkpoint_path_;
  std::size_t keep_generations_ = 1;
  SuperviseHooks hooks_;
};

}  // namespace billcap::core
