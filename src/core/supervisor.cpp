#include "core/supervisor.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/checkpoint_keys.hpp"
#include "util/journal.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace billcap::core {

const char* to_string(ChildExit exit) noexcept {
  switch (exit) {
    case ChildExit::kSuccess: return "success";
    case ChildExit::kStopped: return "stopped";
    case ChildExit::kUsage: return "usage-error";
    case ChildExit::kFailure: return "failure";
    case ChildExit::kSignalled: return "signalled";
  }
  return "unknown";
}

ChildExit classify_wait_status(int wait_status) noexcept {
#if defined(__unix__) || defined(__APPLE__)
  if (WIFSIGNALED(wait_status)) return ChildExit::kSignalled;
  const int code = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : 1;
#else
  const int code = wait_status;
#endif
  switch (code) {
    case kExitSuccess: return ChildExit::kSuccess;
    case kExitStopped: return ChildExit::kStopped;
    case kExitUsage: return ChildExit::kUsage;
    default: return ChildExit::kFailure;
  }
}

// ---- policy ---------------------------------------------------------------

SupervisorPolicy::SupervisorPolicy(SupervisorOptions options)
    : options_(options), rng_(options.seed ^ 0x5375708856497350ULL) {
  if (options_.backoff_multiplier < 1.0)
    throw std::invalid_argument("SupervisorPolicy: backoff_multiplier >= 1");
  if (options_.backoff_jitter_frac < 0.0 || options_.backoff_jitter_frac > 1.0)
    throw std::invalid_argument("SupervisorPolicy: jitter_frac in [0,1]");
}

double SupervisorPolicy::next_backoff_ms() {
  // Exponent = failures since the last progress, so a recovering child
  // returns to the base delay immediately.
  const std::size_t exponent =
      consecutive_no_progress_ > 0 ? consecutive_no_progress_ - 1 : 0;
  double delay = options_.backoff_base_ms;
  for (std::size_t i = 0; i < exponent && delay < options_.backoff_max_ms; ++i)
    delay *= options_.backoff_multiplier;
  delay = std::min(delay, options_.backoff_max_ms);
  // Deterministic jitter in [1 - f, 1 + f): same seed, same schedule.
  const double jitter =
      1.0 + options_.backoff_jitter_frac * (2.0 * rng_.uniform() - 1.0);
  return delay * jitter;
}

SupervisorDecision SupervisorPolicy::on_child_exit(ChildExit exit,
                                                   bool was_standby,
                                                   std::size_t hours_advanced,
                                                   double now_s) {
  SupervisorDecision d;
  switch (exit) {
    case ChildExit::kSuccess:
      d.action = SupervisorDecision::Action::kStop;
      d.reason = "child completed the month";
      return d;
    case ChildExit::kUsage:
      d.action = SupervisorDecision::Action::kGiveUp;
      d.reason = "child rejected its configuration; a restart cannot help";
      return d;
    case ChildExit::kStopped:
      if (!was_standby) {
        d.action = SupervisorDecision::Action::kStop;
        d.reason = "child stopped gracefully (operator signal)";
        return d;
      }
      // A standby attempt committed its hour chunk; hand control back to
      // the primary for another try. Escalation state is untouched — only
      // primary progress clears it.
      d.action = SupervisorDecision::Action::kRestartPrimary;
      d.reason = "standby chunk committed (" +
                 std::to_string(hours_advanced) + "h); retrying primary";
      return d;
    case ChildExit::kFailure:
    case ChildExit::kSignalled:
      break;
  }

  // A failure-triggered restart. Sliding-window budget first.
  restart_times_s_.push_back(now_s);
  const double horizon = now_s - options_.restart_window_s;
  restart_times_s_.erase(
      std::remove_if(restart_times_s_.begin(), restart_times_s_.end(),
                     [horizon](double t) { return t < horizon; }),
      restart_times_s_.end());
  if (restart_times_s_.size() > options_.restart_budget) {
    d.action = SupervisorDecision::Action::kGiveUp;
    d.reason = "restart budget exhausted (" +
               std::to_string(restart_times_s_.size()) + " restarts in " +
               std::to_string(options_.restart_window_s) + "s window)";
    return d;
  }

  if (hours_advanced > 0) {
    consecutive_no_progress_ = 0;
    if (!was_standby) escalated_ = false;  // the primary is healthy again
  } else {
    ++consecutive_no_progress_;
  }

  if (!escalated_ && consecutive_no_progress_ >= options_.escalate_after) {
    escalated_ = true;
    d.reason = std::to_string(consecutive_no_progress_) +
               " consecutive restarts with zero checkpoint progress; "
               "escalating to degraded standby";
  }
  if (escalated_) {
    d.action = SupervisorDecision::Action::kRunStandby;
    d.delay_ms = next_backoff_ms();
    if (d.reason.empty())
      d.reason = "still escalated; running another standby chunk";
    return d;
  }

  d.action = SupervisorDecision::Action::kRestartPrimary;
  d.delay_ms = next_backoff_ms();
  d.reason = std::string("child ") + to_string(exit) + ", " +
             (hours_advanced > 0
                  ? "advanced " + std::to_string(hours_advanced) + "h"
                  : "no progress") +
             "; restarting";
  return d;
}

// ---- process plumbing -----------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)
namespace {

/// The live child's pid, published for the forwarding signal handler.
volatile sig_atomic_t g_child_pid = 0;
/// Set by the handler when SIGTERM/SIGINT reached the supervisor.
volatile sig_atomic_t g_stop_signal = 0;

void forward_signal(int signo) {
  g_stop_signal = signo;
  const sig_atomic_t pid = g_child_pid;
  // The child honours SIGTERM as "finish the hour, checkpoint, exit 4";
  // forward even a SIGINT as SIGTERM so ^C gives the same clean shutdown.
  if (pid > 0) kill(static_cast<pid_t>(pid), SIGTERM);
}

/// Installs the forwarding handler for the supervisor's lifetime and
/// restores the previous disposition on destruction.
class SignalForwarding {
 public:
  SignalForwarding() {
    struct sigaction sa = {};
    sa.sa_handler = forward_signal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    sigaction(SIGTERM, &sa, &old_term_);
    sigaction(SIGINT, &sa, &old_int_);
  }
  ~SignalForwarding() {
    sigaction(SIGTERM, &old_term_, nullptr);
    sigaction(SIGINT, &old_int_, nullptr);
  }
  SignalForwarding(const SignalForwarding&) = delete;
  SignalForwarding& operator=(const SignalForwarding&) = delete;

 private:
  struct sigaction old_term_ = {};
  struct sigaction old_int_ = {};
};

}  // namespace

int run_child(const ChildSpec& spec) {
  std::vector<std::string> argv_storage;
  argv_storage.reserve(spec.args.size() + 1);
  argv_storage.push_back(spec.program);
  for (const std::string& a : spec.args) argv_storage.push_back(a);
  std::vector<char*> argv;
  argv.reserve(argv_storage.size() + 1);
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("run_child: fork failed");
  if (pid == 0) {
    ::execv(spec.program.c_str(), argv.data());
    // Exec failed: report as a plain failure exit, not a crash.
    std::fprintf(stderr, "run_child: exec %s failed\n", spec.program.c_str());
    ::_exit(kExitExecFailed);
  }

  g_child_pid = pid;
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, 0);
    if (r == pid) break;
    if (r < 0 && errno == EINTR) continue;  // a forwarded signal landed
    g_child_pid = 0;
    throw std::runtime_error("run_child: waitpid failed");
  }
  g_child_pid = 0;
  return status;
}

#else

int run_child(const ChildSpec&) {
  throw std::runtime_error("run_child: process supervision requires POSIX");
}

#endif

std::size_t probe_checkpoint_hour(const std::string& checkpoint_path,
                                  std::size_t keep_generations) noexcept {
  try {
    // The head and the state log's tail only: the probe runs between every
    // restart and must cost the same at any hour.
    return checkpoint_next_hour(checkpoint_path, keep_generations);
    // A noexcept probe by contract: the child that wrote a bad file
    // already tagged its own FailureReason, so swallowing here is safe.
    // billcap-lint: allow(catch-all): fall back to the serve probe
  } catch (...) {
    // Not a batch checkpoint — it may be a serve-daemon one.
  }
  const std::size_t gens = keep_generations == 0 ? 1 : keep_generations;
  for (std::size_t g = 0; g < gens; ++g) {
    try {
      // The serving daemon checkpoints per tick under its own magic. The
      // restart policy only compares probe deltas, so tick progress is as
      // good a monotone counter as hour progress.
      const util::Journal j = util::Journal::load(
          util::Journal::generation_path(checkpoint_path, g),
          keys::kServeCheckpointMagic, keys::kServeCheckpointVersion);
      return j.get_size(keys::kServeNextTick);
      // billcap-lint: allow(catch-all): fall back to the older generation
    } catch (...) {
      // Missing or corrupted generation: fall back to the next one.
    }
  }
  return 0;
}

// ---- supervisor -----------------------------------------------------------

Supervisor::Supervisor(SupervisorOptions options, ChildSpec primary,
                       ChildSpec standby, std::string checkpoint_path,
                       std::size_t keep_generations, SuperviseHooks hooks)
    : policy_(options),
      primary_(std::move(primary)),
      standby_(std::move(standby)),
      checkpoint_path_(std::move(checkpoint_path)),
      keep_generations_(keep_generations == 0 ? 1 : keep_generations),
      hooks_(std::move(hooks)) {
  if (!hooks_.run)
    hooks_.run = [](const ChildSpec& spec, bool) { return run_child(spec); };
  if (!hooks_.now_s)
    hooks_.now_s = [] {
      // Real-time-only supervision input: now_s feeds the restart window
      // and backoff pacing, never the child's checkpointed state;
      // supervisor_test pins that checkpointed output is byte-identical
      // under different now_s schedules.
      return std::chrono::duration<double>(
                 // billcap-lint: allow(wall-clock): real-time-only input
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
  if (!hooks_.sleep_ms)
    hooks_.sleep_ms = [](double ms) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    };
  if (!hooks_.checkpoint_hour)
    hooks_.checkpoint_hour = [this] {
      return probe_checkpoint_hour(checkpoint_path_, keep_generations_);
    };
  if (!hooks_.log)
    hooks_.log = [](const std::string& line) {
      std::fprintf(stderr, "[supervise] %s\n", line.c_str());
    };
}

SuperviseReport Supervisor::run() {
  SuperviseReport report;
  const auto note = [&](std::string line) {
    hooks_.log(line);
    report.events.push_back(std::move(line));
  };

#if defined(__unix__) || defined(__APPLE__)
  SignalForwarding forwarding;
  g_stop_signal = 0;
#endif

  bool run_standby = false;
  for (;;) {
    const std::size_t before = hooks_.checkpoint_hour();
    if (run_standby)
      ++report.standby_runs;
    else
      ++report.primary_runs;
    const int status = hooks_.run(run_standby ? standby_ : primary_,
                                  run_standby);
    const std::size_t after = hooks_.checkpoint_hour();
    const std::size_t advanced = after > before ? after - before : 0;
    const ChildExit exit = classify_wait_status(status);

#if defined(__unix__) || defined(__APPLE__)
    if (g_stop_signal != 0) {
      // The operator asked the *supervisor* to stop; the forwarded SIGTERM
      // let the child finish its hour and checkpoint. Do not restart,
      // whatever the policy would say.
      note("stop signal received; child exited " +
           std::string(to_string(exit)) + " at hour " + std::to_string(after));
      report.exit_code = kExitStopped;
      return report;
    }
#endif

    const SupervisorDecision decision =
        policy_.on_child_exit(exit, run_standby, advanced, hooks_.now_s());
    note((run_standby ? "standby" : "primary") + std::string(" exited ") +
         to_string(exit) + " at hour " + std::to_string(after) + ": " +
         decision.reason);

    switch (decision.action) {
      case SupervisorDecision::Action::kStop:
        report.exit_code =
            exit == ChildExit::kSuccess ? kExitSuccess : kExitStopped;
        return report;
      case SupervisorDecision::Action::kGiveUp:
        report.gave_up = true;
        report.exit_code = kExitGaveUp;
        return report;
      case SupervisorDecision::Action::kRunStandby:
        report.escalated = true;
        ++report.restarts;
        run_standby = true;
        break;
      case SupervisorDecision::Action::kRestartPrimary:
        if (exit != ChildExit::kStopped) ++report.restarts;
        run_standby = false;
        break;
    }
    if (decision.delay_ms > 0.0) hooks_.sleep_ms(decision.delay_ms);
  }
}

}  // namespace billcap::core
