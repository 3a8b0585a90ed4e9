// billcap — command-line front end to the library. Each command declares
// its flags once, in the tables below: `billcap <command> --help` prints
// them, and a flag the table does not name is a usage error (exit 2).
// `billcap help` lists the commands and the exit codes.

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/exit_codes.hpp"
#include "core/simulator.hpp"
#include "core/supervisor.hpp"
#include "serve/serve_loop.hpp"
#include "market/dcopf.hpp"
#include "market/pjm5.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workload/trace_stats.hpp"
#include "workload/wiki_synth.hpp"

namespace {

using namespace billcap;
using enum util::FlagKind;
using util::kAtLeastOne, util::kNonNegative, util::kPositive,
    util::kProbability;

// ---- flag tables -----------------------------------------------------------
// Every flag is declared once, in one of these groups; a command's table
// joins the groups it takes. Defaults are spelled as on the command line.

constexpr util::Flag kSeedFlags[] = {
    {"seed", kInteger, "seed of the synthetic trace and the faults", "2012"},
};

constexpr util::Flag kPolicyFlags[] = {
    {"policy", kInteger, "pricing policy (Fig. 1)", "1", {0, 3, false, "0..3"}},
};

/// The world, fault, coupler and output rows simulate and serve share.
/// Explicit fault plans are comma-separated colon tuples; fault rates are
/// per hour and draw the plan from the seed.
constexpr util::Flag kSharedFlags[] = {
    {"budget", kNumber, "monthly electricity budget, $", "1.5e6", kPositive},
    {"no-cap", kSwitch, "do not enforce the budget"},
    {"outages", kText, "site outages site:start:dur,..."},
    {"stale", kText, "stale price feed start:dur,..."},
    {"shocks", kText, "demand shocks site:start:dur:mult,..."},
    {"line-outage", kText, "grid line outages line:start:dur,..."},
    {"bg-shock", kText, "background demand shocks bus:start:dur:mult,..."},
    {"congestion-spike", kText, "line derates line:start:dur:factor,..."},
    {"fault-outage-rate", kNumber, "site outage rate", "0", kProbability},
    {"fault-stale-rate", kNumber, "stale-feed rate", "0", kProbability},
    {"fault-shock-rate", kNumber, "demand-shock rate", "0", kProbability},
    {"fault-outage-mean", kInteger, "mean outage, hours", "6", kAtLeastOne},
    {"fault-stale-mean", kInteger, "mean stale feed, hours", "4", kAtLeastOne},
    {"fault-shock-mean", kInteger, "mean shock, hours", "3", kAtLeastOne},
    {"feed-retry-prob", kNumber, "feed retry success", "0", kProbability},
    {"feed-max-retries", kInteger, "feed attempts per hour", "5", kAtLeastOne},
    {"feed-backoff-ms", kNumber, "feed retry backoff, ms", "100", kPositive},
    {"closed-loop", kSwitch, "close the price-load market loop"},
    {"coupler-max-iters", kInteger, "iterations per hour", "12", kAtLeastOne},
    {"coupler-gain", kNumber, "price-impact feedback gain", "1.0", kPositive},
    {"damping", kText, "off | ladder | full", "ladder"},
    {"coupler-open-plan", kSwitch, "plan on static curves, bill coupled"},
    {"checkpoint", kText, "durable checkpoint path"},
    {"csv", kText, "per-hour (serve: per-tick) CSV path"},
    {"min-premium", kNumber, "premium floor (exit 3)", "0.995", kProbability},
};

/// Faults of simulate's hourly controller: solver node-budget squeezes (by
/// plan or by rate), controller deaths and checkpoint bit rot. The serve
/// daemon has its own node budget (--replan-nodes) and deaths
/// (--kill-at-ticks) and never reads these, so it does not take them.
constexpr util::Flag kControllerFaultFlags[] = {
    {"node-squeezes", kText, "solver node budgets start:dur:nodes,..."},
    {"crash-at", kText, "controller crashes at hours h,..."},
    {"exit-storm", kText, "no-progress deaths hour:count,..."},
    {"corrupt-checkpoint-at", kText, "bit rot in the newest checkpoint h,..."},
    {"crash-rate", kNumber, "controller crash rate", "0", kProbability},
    {"fault-squeeze-rate", kNumber, "3-node squeeze rate", "0", kProbability},
    {"fault-squeeze-mean", kInteger, "mean squeeze, hours", "2", kAtLeastOne},
};

/// Set by the supervisor on its children, so supervise does not take them.
constexpr util::Flag kRestartFlags[] = {
    {"resume", kSwitch, "continue from the checkpoint"},
    {"keep-generations", kInteger,
     "newest commits a resume may load (serve: generations)", "1",
     kAtLeastOne},
    {"standby", kSwitch, "degraded premium-only mode (no MILP)"},
    {"standby-hours", kInteger, "hours per standby attempt", "4", kAtLeastOne},
};

constexpr util::Flag kSimulateFlags[] = {
    {"strategy", kText, "costcapping|minonly-avg|minonly-low", "costcapping"},
    {"months", kInteger, "consecutive months", "1", kAtLeastOne},
};

constexpr util::Flag kServeFlags[] = {
    {"ticks-per-hour", kInteger, "ticks per hour", "6", kAtLeastOne},
    {"hours", kInteger, "horizon, hours (0 = the month)", "0", kNonNegative},
    {"premium-queue-ticks", kNumber, "premium queue, ticks", "4", kPositive},
    {"ordinary-queue-ticks", kNumber, "ordinary queue, ticks", "4", kPositive},
    {"feed-queue", kInteger, "price-revision queue", "16", kAtLeastOne},
    {"feed-drain", kInteger, "price revisions per tick", "1", kAtLeastOne},
    {"stale-ticks", kInteger, "staleness tolerated, ticks", "12", kAtLeastOne},
    {"breaker-trip", kInteger, "failed re-plans to trip", "3", kAtLeastOne},
    {"breaker-cooldown", kInteger, "breaker cooldown, ticks", "4", kAtLeastOne},
    {"replan-nodes", kInteger, "branch-and-bound nodes per re-plan", "20000"},
    {"kill-at-ticks", kText, "daemon deaths at ticks t,..."},
    {"flash-crowds", kText, "arrival surges hour:len:mult,..."},
    {"feed-bursts", kText, "price-revision bursts hour:len:count,..."},
};

constexpr util::Flag kDieOnCrashFlags[] = {
    {"die-on-crash", kSwitch, "an injected crash SIGKILLs the process"},
};

constexpr util::Flag kDieOnKillFlags[] = {
    {"die-on-kill", kSwitch, "an injected kill SIGKILLs the process"},
};

constexpr util::Flag kSuperviseFlags[] = {
    {"serve", kSwitch, "supervise serve instead of simulate"},
    {"restart-budget", kInteger, "restarts per window", "100", kAtLeastOne},
    {"restart-window-s", kNumber, "restart window, s", "3600", kPositive},
    {"backoff-ms", kNumber, "first restart delay, ms", "50", kPositive},
    {"backoff-multiplier", kNumber, "restart delay growth", "2", kPositive},
    {"backoff-max-ms", kNumber, "restart delay cap, ms", "5000", kPositive},
    {"backoff-jitter", kNumber, "restart delay jitter", "0.2", kProbability},
    {"escalate-after", kInteger, "deaths before standby", "3", kAtLeastOne},
    {"standby-hours", kInteger, "hours per standby attempt", "4", kAtLeastOne},
    {"keep-generations", kInteger, "newest commits a resume may load", "3",
     kAtLeastOne},
};

constexpr util::Flag kSweepFlags[] = {
    {"budgets", kNumberList, "monthly budgets, $",
     "0.5e6,1.0e6,1.5e6,2.0e6,2.5e6", kPositive},
};

constexpr util::Flag kOpfFlags[] = {
    {"load", kNumber, "PJM 5-bus system load, MW", "900"},
};

/// The rows of simulate (or serve). A supervisor sets the restart rows on
/// its children itself and forwards the rest (`restart_rows` false).
util::FlagTable child_flags(bool serve, bool restart_rows) {
  using Rows = std::span<const util::Flag>;
  const util::FlagTable forwarded =
      serve ? util::join({kSharedFlags, kPolicyFlags, kSeedFlags, kServeFlags})
            : util::join({kSharedFlags, kControllerFaultFlags, kPolicyFlags,
                          kSeedFlags, kSimulateFlags});
  if (!restart_rows) return forwarded;
  return util::join({forwarded, kRestartFlags,
                     serve ? Rows(kDieOnKillFlags) : Rows(kDieOnCrashFlags)});
}

core::Strategy parse_strategy(const std::string& name) {
  if (name == "costcapping") return core::Strategy::kCostCapping;
  if (name == "minonly-avg") return core::Strategy::kMinOnlyAvg;
  if (name == "minonly-low") return core::Strategy::kMinOnlyLow;
  throw util::UsageError(
      "--strategy: expected costcapping | minonly-avg | minonly-low");
}

/// Splits "a:b:c,d:e:f" into rows of `fields` numbers, all finite and
/// non-negative (fault schedules have no meaningful negative field). Field
/// `duration`, when given, is an interval length: zero hours is almost
/// always a typo that silently injects nothing, so it must be >= 1.
std::vector<std::vector<double>> parse_tuples(
    const std::string& spec, std::size_t fields, const std::string& flag,
    std::size_t duration = std::string::npos) {
  std::vector<std::vector<double>> rows;
  std::stringstream list(spec);
  for (std::string item; std::getline(list, item, ',');) {
    if (item.empty()) continue;
    std::vector<double> row;
    std::stringstream tuple(item);
    for (std::string field; std::getline(tuple, field, ':');) {
      char* end = nullptr;
      row.push_back(std::strtod(field.c_str(), &end));
      if (field.empty() || *end != '\0' || !std::isfinite(row.back()) ||
          row.back() < 0.0)
        throw util::UsageError("--" + flag + ": field '" + field + "' in '" +
                               item + "' is not a finite number >= 0");
    }
    if (row.size() != fields)
      throw util::UsageError("--" + flag + ": expected " +
                             std::to_string(fields) +
                             " colon-separated fields, got '" + item + "'");
    if (duration < fields && row[duration] < 1.0)
      throw util::UsageError("--" + flag + ": duration must be >= 1 hour");
    rows.push_back(std::move(row));
  }
  return rows;
}

void require(bool ok, const char* message) {
  if (!ok) throw util::UsageError(message);
}

std::size_t whole(double v) { return static_cast<std::size_t>(v); }
std::size_t whole(long v) { return static_cast<std::size_t>(v); }

/// Builds the fault schedule from the CLI flags: explicit interval flags
/// populate a FaultPlan, rate flags populate FaultRates (the simulator
/// draws the plan from the seed).
void parse_faults(const util::CliArgs& args, core::SimulationConfig& config) {
  core::FaultPlan& plan = config.fault_plan;
  for (const auto& t : parse_tuples(args.get_text("outages"), 3, "outages", 2))
    plan.outages.push_back({whole(t[0]), whole(t[1]), whole(t[2])});
  for (const auto& t : parse_tuples(args.get_text("stale"), 2, "stale", 1))
    plan.stale_intervals.push_back({whole(t[0]), whole(t[1])});
  for (const auto& t : parse_tuples(args.get_text("shocks"), 4, "shocks", 2)) {
    require(t[3] > 0.0, "--shocks: multiplier must be > 0");
    plan.demand_shocks.push_back(
        {whole(t[0]), whole(t[1]), whole(t[2]), t[3]});
  }
  // Grid-side hazards (bite the closed-loop coupler; legacy static-curve
  // months ignore them by construction since their prices are fixed).
  for (const auto& t :
       parse_tuples(args.get_text("line-outage"), 3, "line-outage", 2))
    plan.line_outages.push_back({whole(t[0]), whole(t[1]), whole(t[2])});
  for (const auto& t :
       parse_tuples(args.get_text("bg-shock"), 4, "bg-shock", 2)) {
    require(t[3] > 0.0, "--bg-shock: multiplier must be > 0");
    plan.grid_demand_shocks.push_back(
        {whole(t[0]), whole(t[1]), whole(t[2]), t[3]});
  }
  for (const auto& t : parse_tuples(args.get_text("congestion-spike"), 4,
                                    "congestion-spike", 2)) {
    require(t[3] > 0.0 && t[3] <= 1.0,
            "--congestion-spike: limit factor must be in (0, 1]");
    plan.congestion_spikes.push_back(
        {whole(t[0]), whole(t[1]), whole(t[2]), t[3]});
  }

  core::FaultRates& rates = config.fault_rates;
  rates.outage_rate = args.get_number("fault-outage-rate");
  rates.stale_rate = args.get_number("fault-stale-rate");
  rates.shock_rate = args.get_number("fault-shock-rate");
  rates.outage_mean_hours = whole(args.get_integer("fault-outage-mean"));
  rates.stale_mean_hours = whole(args.get_integer("fault-stale-mean"));
  rates.shock_mean_hours = whole(args.get_integer("fault-shock-mean"));

  // Market-feed retry policy (0 = legacy frozen feed).
  config.market_feed.retry_success_prob = args.get_number("feed-retry-prob");
  config.market_feed.max_attempts_per_hour =
      static_cast<int>(args.get_integer("feed-max-retries"));
  config.market_feed.base_backoff_ms = args.get_number("feed-backoff-ms");
}

/// The simulate-only fault kinds (kControllerFaultFlags).
void parse_controller_faults(const util::CliArgs& args,
                             core::SimulationConfig& config) {
  core::FaultPlan& plan = config.fault_plan;
  for (const auto& t :
       parse_tuples(args.get_text("node-squeezes"), 3, "node-squeezes", 1)) {
    require(t[2] >= 1.0 && t[2] <= 1e9 && t[2] == std::floor(t[2]),
            "--node-squeezes: node budget must be a whole number in [1, 1e9]");
    plan.deadline_squeezes.push_back(
        {whole(t[0]), whole(t[1]), static_cast<long>(t[2])});
  }
  for (const auto& t : parse_tuples(args.get_text("crash-at"), 1, "crash-at"))
    plan.crashes.push_back({whole(t[0]), false});
  for (const auto& t :
       parse_tuples(args.get_text("exit-storm"), 2, "exit-storm")) {
    require(t[1] >= 1.0, "--exit-storm: death count must be >= 1");
    plan.exit_storms.push_back({whole(t[0]), whole(t[1])});
  }
  for (const auto& t : parse_tuples(args.get_text("corrupt-checkpoint-at"), 1,
                                    "corrupt-checkpoint-at"))
    plan.checkpoint_corruptions.push_back({whole(t[0])});
  core::FaultRates& rates = config.fault_rates;
  rates.crash_rate = args.get_number("crash-rate");
  rates.squeeze_rate = args.get_number("fault-squeeze-rate");
  rates.squeeze_mean_hours = whole(args.get_integer("fault-squeeze-mean"));
}

/// The serve-only fault kinds: arrival surges and price-revision bursts
/// act on the tick plane, which simulate's hourly loop does not have.
void parse_serve_faults(const util::CliArgs& args, core::FaultPlan& plan) {
  for (const auto& t :
       parse_tuples(args.get_text("flash-crowds"), 3, "flash-crowds", 1)) {
    require(t[2] > 0.0, "--flash-crowds: multiplier must be > 0");
    plan.flash_crowds.push_back({whole(t[0]), whole(t[1]), t[2]});
  }
  for (const auto& t :
       parse_tuples(args.get_text("feed-bursts"), 3, "feed-bursts", 1)) {
    require(t[2] >= 1.0, "--feed-bursts: updates per tick must be >= 1");
    plan.feed_bursts.push_back({whole(t[0]), whole(t[1]), whole(t[2])});
  }
}

/// Parses the closed-loop coupler flags. --closed-loop turns the coupler
/// on; the other --coupler-* / --damping flags refine it and are usage
/// errors without it (a silent no-op here would fake a closed-loop run).
void parse_coupler(const util::CliArgs& args, core::SimulationConfig& config) {
  config.market_coupler.enabled = args.get_switch("closed-loop");
  if (!config.market_coupler.enabled) {
    for (const char* flag :
         {"coupler-max-iters", "coupler-gain", "damping", "coupler-open-plan"})
      if (args.has(flag))
        throw util::UsageError(std::string("--") + flag +
                               " requires --closed-loop");
    return;
  }
  config.market_coupler.loop.max_iters =
      whole(args.get_integer("coupler-max-iters"));
  config.market_coupler.loop.feedback_gain = args.get_number("coupler-gain");
  const std::string damping = args.get_text("damping");
  if (damping == "off")
    config.market_coupler.damping = core::DampingMode::kOff;
  else if (damping == "ladder")
    config.market_coupler.damping = core::DampingMode::kLadder;
  else if (damping == "full")
    config.market_coupler.damping = core::DampingMode::kFull;
  else
    throw util::UsageError("--damping: expected off | ladder | full");
  // The open-loop arm of the resilience comparison: coupled billing, but
  // planning stays on the static curves (no feedback iteration).
  config.market_coupler.plan_closed_loop =
      !args.get_switch("coupler-open-plan");
}

/// The world simulate and serve both run: budget, pricing policy, seed,
/// faults and the market coupler.
core::SimulationConfig world_config(const util::CliArgs& args) {
  core::SimulationConfig config;
  config.monthly_budget = args.get_number("budget");
  config.policy_level = static_cast<int>(args.get_integer("policy"));
  config.seed = static_cast<std::uint64_t>(args.get_integer("seed"));
  config.enforce_budget = !args.get_switch("no-cap");
  parse_faults(args, config);
  parse_coupler(args, config);
  return config;
}

/// The checkpoint, output and standby flags simulate and serve share.
struct RunFlags {
  std::string checkpoint;
  std::string csv;
  bool resume;
  bool standby;
  std::size_t keep_generations;
  double min_premium;  // below it the premium QoS guarantee broke: exit 3

  /// A flag that acts only on a checkpointed run is a usage error without.
  void require_checkpoint(bool used, const char* flag) const {
    if (used && checkpoint.empty())
      throw util::UsageError(std::string(flag) +
                             " requires --checkpoint <path>");
  }
};

RunFlags run_flags(const util::CliArgs& args) {
  const RunFlags run{args.get_text("checkpoint"), args.get_text("csv"),
                     args.get_switch("resume"), args.get_switch("standby"),
                     whole(args.get_integer("keep-generations")),
                     args.get_number("min-premium")};
  run.require_checkpoint(run.resume, "--resume");
  if (args.has("standby-hours") && !run.standby)
    throw util::UsageError("--standby-hours requires --standby");
  return run;
}

/// Column set of the per-hour CSV (written whole for plain runs, streamed
/// row-by-row for checkpointed ones). The coupler columns appear only for
/// closed-loop runs, so legacy CSVs stay byte-for-byte identical.
std::vector<std::string> hour_csv_header(bool coupled) {
  std::vector<std::string> cols = {
      "hour", "arrivals", "served_premium", "served_ordinary",
      "hourly_budget", "cost", "mode", "degraded", "failure",
      "sites_down", "stale", "feed_retries", "feed_recovered"};
  if (coupled) {
    cols.insert(cols.end(), {"coupler_iters", "coupler_converged",
                             "coupler_fallback", "coupler_rung"});
  }
  return cols;
}

std::vector<std::string> hour_csv_row(const core::HourRecord& h,
                                      bool coupled) {
  std::vector<std::string> row = {
      std::to_string(h.hour), util::format_double(h.arrivals),
      util::format_double(h.served_premium),
      util::format_double(h.served_ordinary),
      util::format_double(h.hourly_budget),
      util::format_double(h.cost), core::to_string(h.mode),
      h.degraded ? "1" : "0", core::to_string(h.failure),
      std::to_string(h.sites_down), h.stale_prices ? "1" : "0",
      std::to_string(h.feed_attempts), h.feed_recovered ? "1" : "0"};
  if (coupled) {
    row.push_back(std::to_string(h.coupler_iterations));
    row.push_back(h.coupler_converged ? "1" : "0");
    row.push_back(h.coupler_fallback ? "1" : "0");
    row.push_back(std::to_string(h.coupler_rung));
  }
  return row;
}

/// Opens the streamed CSV of an attempt whose first committed row is
/// `first_row`. At row 0 nothing was committed before it, so a file
/// already at `path` is stale and is overwritten; past row 0 the attempt
/// keeps the `first_row` rows the checkpoint vouches for and appends after
/// them (dropping any row past them, so a resumed run duplicates nothing).
std::unique_ptr<util::CsvWriter> open_streamed_csv(
    const std::string& path, std::vector<std::string> header,
    std::size_t first_row) {
  if (first_row == 0)
    return std::make_unique<util::CsvWriter>(path, std::move(header));
  return std::make_unique<util::CsvWriter>(path, std::move(header), first_row);
}

/// SIGTERM/SIGINT land here during a checkpointed run: the hourly loop
/// finishes the in-flight hour, commits its checkpoint and exits with
/// core::kExitStopped — the supervisor reads that as "do not restart".
volatile std::sig_atomic_t g_stop_requested = 0;
void request_stop(int) { g_stop_requested = 1; }

void honour_graceful_stop() {
  g_stop_requested = 0;
  std::signal(SIGTERM, request_stop);
  std::signal(SIGINT, request_stop);
}

/// Supervised mode: an injected fault must kill the real process (the
/// cursor-advanced checkpoint is already on disk), so the watchdog sees a
/// genuine abnormal death.
[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "%s; dying\n", what.c_str());
  std::fflush(nullptr);
#if defined(__unix__) || defined(__APPLE__)
  std::raise(SIGKILL);
#endif
  std::abort();
}

/// Says which checkpoint records (batch state log) or generations (serve
/// journal) a resume skipped and, when it fell back past the newest, how
/// far back it resumed from.
void report_resume(const std::vector<std::string>& skipped,
                   std::size_t back, std::size_t from,
                   const char* checkpoint, const char* step,
                   const char* unit) {
  for (const auto& s : skipped)
    std::fprintf(stderr, "%s %s skipped: %s\n", checkpoint, step, s.c_str());
  if (back > 0)
    std::fprintf(stderr,
                 "resumed from %s %s %zu back at %s %zu (newer ones "
                 "unusable)\n",
                 checkpoint, step, back, unit, from);
}

int cmd_simulate(const util::CliArgs& args, const char* /*argv0*/) {
  core::SimulationConfig config = world_config(args);
  parse_controller_faults(args, config);
  const RunFlags run = run_flags(args);
  config.standby = run.standby;
  const core::Strategy strategy = parse_strategy(args.get_text("strategy"));
  if (config.market_coupler.enabled &&
      strategy != core::Strategy::kCostCapping)
    throw util::UsageError("--closed-loop is CostCapping only");
  const bool coupled = config.market_coupler.enabled;
  const bool die_on_crash = args.get_switch("die-on-crash");
  run.require_checkpoint(!config.fault_plan.crashes.empty(), "--crash-at");
  run.require_checkpoint(config.fault_rates.crash_rate > 0.0, "--crash-rate");
  run.require_checkpoint(!config.fault_plan.exit_storms.empty(),
                         "--exit-storm");
  run.require_checkpoint(!config.fault_plan.checkpoint_corruptions.empty(),
                         "--corrupt-checkpoint-at");
  run.require_checkpoint(die_on_crash, "--die-on-crash");

  const core::Simulator sim(config);

  const long months = args.get_integer("months");
  if (months > 1) {
    if (strategy != core::Strategy::kCostCapping)
      throw util::UsageError("--months: multi-month runs are CostCapping only");
    if (!run.checkpoint.empty())
      throw util::UsageError(
          "--checkpoint supports single-month runs only (--months 1)");
    const auto results =
        sim.run_months(static_cast<std::size_t>(months));
    util::Table table({"month", "cost $", "cost/budget", "premium",
                       "ordinary", "degraded h"});
    bool qos_broken = false;
    for (std::size_t m = 0; m < results.size(); ++m) {
      const auto& r = results[m];
      table.add_row({std::to_string(m), util::format_fixed(r.total_cost, 0),
                     util::format_fixed(r.budget_utilization(), 3),
                     util::format_fixed(100.0 * r.premium_throughput_ratio(), 2) + "%",
                     util::format_fixed(100.0 * r.ordinary_throughput_ratio(), 2) + "%",
                     std::to_string(r.degraded_hours)});
      qos_broken = qos_broken || r.premium_throughput_ratio() < run.min_premium;
    }
    table.print(std::cout);
    if (qos_broken) {
      std::fprintf(stderr,
                   "unrecoverable: premium throughput below %.3f in at "
                   "least one month\n",
                   run.min_premium);
      return core::kExitQosBroken;
    }
    return core::kExitSuccess;
  }

  core::MonthlyResult r;
  if (!run.checkpoint.empty()) {
    // Crash-tolerant month: every hour is durably checkpointed, the CSV is
    // streamed (and flushed) in lockstep with the checkpoint, and injected
    // controller crashes are survived by resuming in-process.
    std::unique_ptr<util::CsvWriter> writer;
    const auto on_hour = [&](const core::HourRecord& h) {
      if (run.csv.empty()) return;
      if (!writer)
        writer = open_streamed_csv(run.csv, hour_csv_header(coupled), h.hour);
      writer->add_row(hour_csv_row(h, coupled));
    };

    // Honour SIGTERM/SIGINT as a graceful stop: finish the hour, commit
    // the checkpoint, exit with the "do not restart" code.
    honour_graceful_stop();

    core::Simulator::ResumeControls controls;
    controls.keep_generations = run.keep_generations;
    controls.stop_flag = &g_stop_requested;
    if (config.standby)
      controls.max_hours = whole(args.get_integer("standby-hours"));

    core::Simulator::ResumableOutcome outcome;
    std::size_t restarts = 0;
    for (bool resume = run.resume;; resume = true) {
      outcome = sim.run_resumable(strategy, run.checkpoint, resume, on_hour,
                                  controls);
      report_resume(outcome.resume_skipped, outcome.resumed_generation,
                    outcome.resumed_from, "checkpoint", "record", "hour");
      if (!outcome.crashed) break;
      const std::string crash =
          "controller crashed at hour " + std::to_string(outcome.crash_hour);
      if (die_on_crash) die(crash);
      ++restarts;
      std::fprintf(stderr, "%s; resuming from %s\n", crash.c_str(),
                   run.checkpoint.c_str());
      writer.reset();  // reopen against the post-crash checkpoint state
    }
    if (outcome.stopped) {
      std::printf("stopped gracefully at hour %zu (checkpoint consistent; "
                  "resume with --resume)\n",
                  outcome.result.hours.size());
      return core::kExitStopped;
    }
    r = std::move(outcome.result);
    if (restarts > 0)
      std::printf("recovered from %zu controller crash(es)\n", restarts);
    if (writer)
      std::printf("wrote %s (%zu rows)\n", run.csv.c_str(),
                  writer->num_rows());
  } else {
    r = sim.run(strategy);
  }

  std::printf("strategy %s | policy %d | budget $%.2fM | seed %llu\n",
              core::to_string(strategy), config.policy_level,
              config.monthly_budget / 1e6,
              static_cast<unsigned long long>(config.seed));
  util::Table table({"metric", "value"});
  table.add_row({"monthly cost", "$" + util::format_fixed(r.total_cost, 0)});
  table.add_row({"budget utilization",
                 util::format_fixed(100.0 * r.budget_utilization(), 1) + "%"});
  table.add_row({"premium throughput",
                 util::format_fixed(100.0 * r.premium_throughput_ratio(), 2) + "%"});
  table.add_row({"ordinary throughput",
                 util::format_fixed(100.0 * r.ordinary_throughput_ratio(), 2) + "%"});
  if (sim.fault_injector().enabled() || r.degraded_hours > 0) {
    table.add_row({"degraded hours", std::to_string(r.degraded_hours)});
    table.add_row({"  via incumbent", std::to_string(r.incumbent_hours)});
    table.add_row({"  via heuristic", std::to_string(r.heuristic_hours)});
    table.add_row({"outage hours", std::to_string(r.outage_hours)});
    table.add_row({"stale-feed hours", std::to_string(r.stale_hours)});
  }
  if (config.market_feed.enabled() || r.feed_retry_attempts > 0) {
    table.add_row({"feed retries", std::to_string(r.feed_retry_attempts)});
    table.add_row(
        {"feed recoveries", std::to_string(r.feed_recovered_hours)});
  }
  if (r.crash_recoveries > 0)
    table.add_row({"crash recoveries", std::to_string(r.crash_recoveries)});
  if (coupled) {
    table.add_row({"closed-loop hours", std::to_string(r.closed_loop_hours)});
    table.add_row(
        {"coupler fallback hours", std::to_string(r.coupler_fallback_hours)});
    table.add_row(
        {"oscillation hours",
         std::to_string(r.failure_tally[static_cast<std::size_t>(
             core::FailureReason::kPriceOscillation)])});
    table.add_row({"diverged hours",
                   std::to_string(r.failure_tally[static_cast<std::size_t>(
                       core::FailureReason::kCouplerDiverged)])});
    table.add_row(
        {"coupler iterations", std::to_string(r.coupler_iterations)});
  }
  table.print(std::cout);

  if (!run.csv.empty() && run.checkpoint.empty()) {
    util::Csv csv(hour_csv_header(coupled));
    for (const auto& h : r.hours) csv.add_row(hour_csv_row(h, coupled));
    csv.save(run.csv);
    std::printf("wrote %s (%zu rows)\n", run.csv.c_str(), csv.num_rows());
  }
  if (r.premium_throughput_ratio() < run.min_premium) {
    std::fprintf(stderr,
                 "unrecoverable: premium throughput %.4f below the %.3f "
                 "guarantee\n",
                 r.premium_throughput_ratio(), run.min_premium);
    return core::kExitQosBroken;
  }
  return core::kExitSuccess;
}

/// Column set of the per-tick CSV the serving daemon streams (flushed in
/// lockstep with the tick checkpoint, like simulate's hourly CSV).
std::vector<std::string> tick_csv_header() {
  return {"tick", "hour", "premium_arrivals", "ordinary_arrivals",
          "dropped_premium", "dropped_ordinary", "served_premium",
          "served_ordinary", "premium_depth", "ordinary_depth", "cost",
          "hour_budget", "crowd", "feed_updates", "replanned", "plan_held",
          "stale", "admission", "breaker", "health"};
}

std::vector<std::string> tick_csv_row(const serve::TickRecord& t) {
  return {std::to_string(t.tick), std::to_string(t.hour),
          util::format_double(t.premium_arrivals),
          util::format_double(t.ordinary_arrivals),
          util::format_double(t.dropped_premium),
          util::format_double(t.dropped_ordinary),
          util::format_double(t.served_premium),
          util::format_double(t.served_ordinary),
          util::format_double(t.premium_depth),
          util::format_double(t.ordinary_depth), util::format_double(t.cost),
          util::format_double(t.hour_budget),
          util::format_double(t.crowd_multiplier),
          std::to_string(t.feed_updates), t.replanned ? "1" : "0",
          t.plan_held ? "1" : "0", t.stale ? "1" : "0",
          serve::to_string(t.admission), core::to_string(t.breaker),
          serve::to_string(t.health)};
}

/// billcap serve: the overload-safe serving daemon — the batch month run
/// at sub-hour tick granularity through the bounded ingest plane, the
/// admission ladder and the breaker-guarded re-plan engine, with a durable
/// per-tick checkpoint. Reuses simulate's config and fault flags.
int cmd_serve(const util::CliArgs& args, const char* /*argv0*/) {
  core::SimulationConfig config = world_config(args);
  parse_serve_faults(args, config.fault_plan);
  const RunFlags run = run_flags(args);

  serve::ServeConfig serve_config;
  serve_config.ticks_per_hour = whole(args.get_integer("ticks-per-hour"));
  serve_config.horizon_hours = whole(args.get_integer("hours"));
  serve_config.premium_queue_ticks = args.get_number("premium-queue-ticks");
  serve_config.ordinary_queue_ticks = args.get_number("ordinary-queue-ticks");
  serve_config.feed_queue_capacity = whole(args.get_integer("feed-queue"));
  serve_config.feed_updates_per_tick = whole(args.get_integer("feed-drain"));
  serve_config.admission.stale_ticks_tolerated =
      whole(args.get_integer("stale-ticks"));
  serve_config.breaker.trip_after = whole(args.get_integer("breaker-trip"));
  serve_config.breaker.cooldown = whole(args.get_integer("breaker-cooldown"));
  serve_config.replan_node_budget = args.get_integer("replan-nodes");
  serve_config.standby = run.standby;
  for (const auto& t :
       parse_tuples(args.get_text("kill-at-ticks"), 1, "kill-at-ticks"))
    serve_config.kill_at_ticks.push_back(static_cast<std::size_t>(t[0]));

  const bool die_on_kill = args.get_switch("die-on-kill");
  run.require_checkpoint(!serve_config.kill_at_ticks.empty(),
                         "--kill-at-ticks");
  run.require_checkpoint(die_on_kill, "--die-on-kill");

  const core::Simulator sim(config);
  const serve::ServeLoop loop(sim, serve_config);

  std::unique_ptr<util::CsvWriter> writer;
  const auto on_tick = [&](const serve::TickRecord& t) {
    if (run.csv.empty()) return;
    if (!writer) writer = open_streamed_csv(run.csv, tick_csv_header(), t.tick);
    writer->add_row(tick_csv_row(t));
  };

  honour_graceful_stop();

  serve::ServeLoop::Controls controls;
  controls.keep_generations = run.keep_generations;
  controls.stop_flag = &g_stop_requested;
  if (serve_config.standby)
    controls.max_ticks = whole(args.get_integer("standby-hours")) *
        serve_config.ticks_per_hour;

  serve::ServeOutcome outcome;
  std::size_t restarts = 0;
  for (bool resume = run.resume;; resume = true) {
    outcome = loop.run(run.checkpoint, resume, on_tick, controls);
    report_resume(outcome.resume_skipped, outcome.resumed_generation,
                  outcome.resumed_from_tick, "serve checkpoint", "generation",
                  "tick");
    if (!outcome.crashed) break;
    const std::string kill =
        "serve daemon killed at tick " + std::to_string(outcome.crash_tick);
    if (die_on_kill) die(kill);
    ++restarts;
    std::fprintf(stderr, "%s; resuming from %s\n", kill.c_str(),
                 run.checkpoint.c_str());
    writer.reset();  // reopen against the post-kill checkpoint state
  }
  if (outcome.stopped) {
    std::printf("stopped gracefully at tick %zu (serve checkpoint "
                "consistent; resume with --resume)\n",
                outcome.report.ticks_committed);
    return core::kExitStopped;
  }

  const serve::ServeReport& r = outcome.report;
  std::printf("serve | policy %d | budget $%.2fM | seed %llu | %zu ticks "
              "(%zu per hour)\n",
              config.policy_level, config.monthly_budget / 1e6,
              static_cast<unsigned long long>(config.seed), r.ticks_committed,
              r.ticks_per_hour);
  util::Table table({"metric", "value"});
  table.add_row({"total cost", "$" + util::format_fixed(r.total_cost, 0)});
  table.add_row({"premium throughput",
                 util::format_fixed(100.0 * r.premium_throughput_ratio(), 2) +
                     "%"});
  table.add_row({"ordinary throughput",
                 util::format_fixed(100.0 * r.ordinary_throughput_ratio(), 2) +
                     "%"});
  table.add_row({"premium dropped", util::format_double(r.dropped_premium)});
  table.add_row({"ordinary dropped", util::format_double(r.dropped_ordinary)});
  table.add_row({"max premium queue fill",
                 util::format_fixed(
                     100.0 * r.max_premium_depth /
                         std::max(r.premium_queue_capacity, 1.0), 1) + "%"});
  table.add_row({"max ordinary queue fill",
                 util::format_fixed(
                     100.0 * r.max_ordinary_depth /
                         std::max(r.ordinary_queue_capacity, 1.0), 1) + "%"});
  table.add_row({"feed updates seen", std::to_string(r.feed_updates_seen)});
  table.add_row(
      {"feed updates dropped", std::to_string(r.feed_updates_dropped)});
  table.add_row({"re-plans", std::to_string(r.replans) + " (" +
                                 std::to_string(r.degraded_replans) +
                                 " degraded)"});
  table.add_row({"breaker trips", std::to_string(r.breaker_trips)});
  if (config.market_coupler.enabled)
    table.add_row(
        {"coupled curve refreshes", std::to_string(r.coupled_refreshes)});
  table.add_row({"shed ticks", std::to_string(r.shed_ticks)});
  table.add_row({"standby ticks", std::to_string(r.standby_ticks)});
  table.add_row({"final health", serve::to_string(r.final_health)});
  table.print(std::cout);

  if (!r.health_history.empty()) {
    std::printf("health transitions (%zu total%s):\n", r.health_transitions,
                r.health_transitions > r.health_history.size()
                    ? ", newest shown"
                    : "");
    for (const auto& t : r.health_history)
      std::printf("  tick %6zu  %s -> %s\n", t.tick, serve::to_string(t.from),
                  serve::to_string(t.to));
  }
  if (restarts > 0)
    std::printf("recovered from %zu daemon kill(s)\n", restarts);
  if (writer)
    std::printf("wrote %s (%zu rows)\n", run.csv.c_str(), writer->num_rows());

  if (!r.premium_qos_ok() || r.premium_throughput_ratio() < run.min_premium) {
    std::fprintf(stderr,
                 "unrecoverable: premium QoS contract broken (dropped %.0f "
                 "at the door, final backlog %.0f, throughput %.4f)\n",
                 r.dropped_premium, r.final_premium_depth,
                 r.premium_throughput_ratio());
    return core::kExitQosBroken;
  }
  return core::kExitSuccess;
}

int cmd_sweep(const util::CliArgs& args, const char* /*argv0*/) {
  const auto budgets = args.get_number_list("budgets");
  util::Table table({"budget", "cost / budget", "premium", "ordinary"});
  for (double budget : budgets) {
    core::SimulationConfig config;
    config.monthly_budget = budget;
    config.policy_level = static_cast<int>(args.get_integer("policy"));
    config.seed = static_cast<std::uint64_t>(args.get_integer("seed"));
    const core::MonthlyResult r =
        core::Simulator(config).run(core::Strategy::kCostCapping);
    table.add_row({"$" + util::format_fixed(budget / 1e6, 2) + "M",
                   util::format_fixed(r.budget_utilization(), 3),
                   util::format_fixed(100.0 * r.premium_throughput_ratio(), 2) + "%",
                   util::format_fixed(100.0 * r.ordinary_throughput_ratio(), 2) + "%"});
  }
  table.print(std::cout);
  return core::kExitSuccess;
}

int cmd_opf(const util::CliArgs& args, const char* /*argv0*/) {
  const double load = args.get_number("load");
  const market::Grid grid = market::pjm5_grid();
  const market::DcOpfResult r =
      market::solve_dcopf(grid, market::pjm5_loads(load));
  if (!r.ok()) {
    std::printf("OPF %s at %.1f MW system load\n", lp::to_string(r.status),
                load);
    return core::kExitRuntimeError;
  }
  const market::DcOpfReport report = market::analyze_opf(grid, r);
  std::printf("system load %.1f MW | dispatch cost $%.2f/h | reference "
              "price %.2f $/MWh\n\n",
              load, r.total_cost, report.reference_price);
  util::Table buses({"bus", "LMP $/MWh", "congestion $/MWh"});
  for (int b = 0; b < grid.num_buses(); ++b) {
    buses.add_row({grid.bus_name(b),
                   util::format_fixed(r.lmp[static_cast<std::size_t>(b)], 2),
                   util::format_fixed(
                       report.congestion_component[static_cast<std::size_t>(b)], 2)});
  }
  buses.print(std::cout);
  if (!report.binding.empty()) {
    std::printf("\nbinding constraints:\n");
    for (const auto& b : report.binding) {
      if (b.kind == market::BindingConstraint::Kind::kGeneratorLimit)
        std::printf("  generator %s at %.1f MW\n",
                    grid.generator(b.index).name.c_str(), b.value);
      else
        std::printf("  line %s at %.1f MW\n", grid.line(b.index).name.c_str(),
                    b.value);
    }
  }
  return core::kExitSuccess;
}

int cmd_trace(const util::CliArgs& args, const char* /*argv0*/) {
  const auto seed = static_cast<std::uint64_t>(args.get_integer("seed"));
  const workload::TwoMonthTrace both = workload::paper_two_month_trace(seed);
  workload::TraceStatsOptions options;
  options.spike_threshold = 1.12;
  const workload::TraceStats history = analyze_trace(both.history, options);
  options.phase_offset_hours = both.history.hours();
  const workload::TraceStats eval = analyze_trace(both.evaluation, options);

  util::Table table({"metric", "history month", "evaluation month"});
  auto row = [&table](const char* label, double a, double b, int precision) {
    table.add_row({label, util::format_fixed(a, precision),
                   util::format_fixed(b, precision)});
  };
  row("mean Greq/h", history.mean / 1e9, eval.mean / 1e9, 1);
  row("peak Greq/h", history.peak / 1e9, eval.peak / 1e9, 1);
  row("peak/mean", history.peak_to_mean, eval.peak_to_mean, 3);
  row("hourly CV^2", history.hourly_cv2, eval.hourly_cv2, 4);
  row("weekly pattern", history.weekly_pattern_strength,
      eval.weekly_pattern_strength, 3);
  row("spike hours", static_cast<double>(history.spike_hours),
      static_cast<double>(eval.spike_hours), 0);
  table.print(std::cout);
  return core::kExitSuccess;
}

/// Absolute path of this binary, for spawning supervised children. Falls
/// back to argv[0] when /proc/self/exe is unavailable.
std::string self_path(const char* argv0) {
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
#endif
  return std::string(argv0);
}

/// billcap supervise: a watchdog around `billcap simulate`. Forks the
/// controller as a child, restarts it (with budget + backoff) when it dies
/// abnormally, escalates to the degraded premium-only standby after
/// repeated zero-progress deaths, and stops cleanly on SIGTERM/SIGINT or a
/// graceful child exit. The child's flags were parsed against the child's
/// own table, so a typo fails here instead of in every restart.
int cmd_supervise(const util::CliArgs& args, const char* argv0) {
  const std::string checkpoint_path = args.get_text("checkpoint");
  if (checkpoint_path.empty())
    throw util::UsageError("supervise requires --checkpoint <path>");

  core::SupervisorOptions options;
  options.restart_budget = whole(args.get_integer("restart-budget"));
  options.restart_window_s = args.get_number("restart-window-s");
  options.backoff_base_ms = args.get_number("backoff-ms");
  options.backoff_multiplier = args.get_number("backoff-multiplier");
  options.backoff_max_ms = args.get_number("backoff-max-ms");
  options.backoff_jitter_frac = args.get_number("backoff-jitter");
  options.seed = static_cast<std::uint64_t>(args.get_integer("seed"));
  options.escalate_after = whole(args.get_integer("escalate-after"));
  options.standby_hours = whole(args.get_integer("standby-hours"));
  const auto keep_generations = whole(args.get_integer("keep-generations"));

  // Both children always resume from the rotated checkpoint chain and let
  // injected crashes (or serve kill-ticks) kill the real process so the
  // watchdog sees them. --serve supervises the serving daemon instead of
  // the batch controller.
  const bool serve_child = args.get_switch("serve");
  const std::vector<std::string> forwarded =
      args.tokens_for(child_flags(serve_child, false));
  core::ChildSpec primary;
  primary.program = self_path(argv0);
  primary.args.emplace_back(serve_child ? "serve" : "simulate");
  primary.args.insert(primary.args.end(), forwarded.begin(), forwarded.end());
  primary.args.emplace_back("--resume");
  primary.args.emplace_back(serve_child ? "--die-on-kill" : "--die-on-crash");
  primary.args.emplace_back("--keep-generations");
  primary.args.push_back(std::to_string(keep_generations));

  core::ChildSpec standby = primary;
  standby.args.emplace_back("--standby");
  standby.args.emplace_back("--standby-hours");
  standby.args.push_back(std::to_string(options.standby_hours));

  core::Supervisor supervisor(options, std::move(primary), std::move(standby),
                              checkpoint_path, keep_generations);
  const core::SuperviseReport report = supervisor.run();

  std::printf(
      "supervise: %zu primary run(s), %zu standby run(s), %zu restart(s)%s\n",
      report.primary_runs, report.standby_runs, report.restarts,
      report.escalated ? " [escalated to standby]" : "");
  if (report.gave_up)
    std::fprintf(stderr, "supervise: gave up (restart budget exhausted)\n");
  return report.exit_code;
}

struct Command {
  const char* name;
  const char* summary;
  util::FlagTable (*flags)(bool serve_child);  // --serve: supervise only
  int (*run)(const util::CliArgs& args, const char* argv0);
};

constexpr Command kCommands[] = {
    {"simulate", "run one budgeting month (or --months N) through the capper",
     [](bool) { return child_flags(false, true); }, cmd_simulate},
    {"serve", "the month at sub-hour ticks as an overload-safe daemon",
     [](bool) { return child_flags(true, true); }, cmd_serve},
    {"supervise", "watchdog restarting simulate (or serve) from its checkpoint",
     [](bool serve) {
       return util::join({kSuperviseFlags, child_flags(serve, false)});
     },
     cmd_supervise},
    {"sweep", "budget sweep of CostCapping months",
     [](bool) { return util::join({kSweepFlags, kPolicyFlags, kSeedFlags}); },
     cmd_sweep},
    {"opf", "PJM 5-bus DC optimal power flow",
     [](bool) { return util::join({kOpfFlags}); }, cmd_opf},
    {"trace", "synthetic workload statistics",
     [](bool) { return util::join({kSeedFlags}); }, cmd_trace},
};

int cmd_help() {
  std::printf("billcap — electricity bill capping for cloud-scale data "
              "centers\n\ncommands (`billcap <command> --help` lists the "
              "flags):\n");
  for (const Command& c : kCommands)
    std::printf("  %-10s %s\n", c.name, c.summary);
  std::printf(
      "\nexit codes: 0 success, 1 runtime error, 2 usage error (unknown "
      "command or\nflag, bad value, repeated flag, stray argument), 3 premium "
      "QoS broken, 4 graceful\nstop (resume with --resume), 5 supervisor "
      "gave up\n");
  return core::kExitSuccess;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc > 1 ? argv[1] : "help";
  const auto command =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&](const Command& c) { return name == c.name; });
  if (command == std::end(kCommands)) {
    if (name == "help" || name == "--help") return cmd_help();
    std::fprintf(stderr, "unknown command '%s' (try: billcap help)\n",
                 argv[1]);
    return core::kExitUsage;
  }
  try {
    // Supervise parses its children's flags too; which child it runs
    // decides which table they come from.
    const bool serve_child =
        std::find(argv + 2, argv + argc, std::string_view("--serve")) !=
        argv + argc;
    const util::CliArgs args(command->flags(serve_child), argc - 1, argv + 1);
    if (args.help()) {
      std::printf("billcap %s — %s\n\nflags:\n%s", command->name,
                  command->summary, util::help_text(args.table()).c_str());
      return core::kExitSuccess;
    }
    return command->run(args, argv[0]);
  } catch (const util::UsageError& e) {
    std::fprintf(stderr, "usage error: %s (try: billcap %s --help)\n",
                 e.what(), command->name);
    return core::kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return core::kExitRuntimeError;
  }
}
