// Resilience sweep — what does operating through injected faults cost?
//
// Three experiments, all on the same seed:
//
//  1. Fault-rate sweep: a per-site-hour fault rate applied simultaneously
//     to site outages, stale market feeds and background-demand shocks;
//     re-runs the Cost Capping month at each rate and reports cost,
//     throughput and degradation relative to the fault-free run. The
//     point of the graceful-degradation ladder (optimal -> incumbent ->
//     greedy heuristic -> premium-only) is that the month always
//     *completes* and premium traffic stays near 100 % even as the fault
//     rate climbs; the price shows up as extra cost and shed ordinary
//     traffic, not as a crashed control loop.
//
//  2. Feed recovery: with the stale-feed rate pinned, sweeps the
//     MarketFeed retry-success probability from 0 (legacy frozen feed:
//     plan every stale hour on last-known prices) upward. Each successful
//     backoff retry re-syncs the believed market hour mid-interval, so
//     stale-planned hours fall strictly monotonically with retry quality.
//
//  3. Crash recovery: sweeps an injected controller-crash rate and runs
//     the month through the durable checkpoint (`run_resumable`), dying
//     and resuming in-process at every planned crash. The recovered month
//     must cost exactly what the uninterrupted month costs — crashes are
//     free in outcome, paid only in restart latency.
//
//  4. Supervised kill-storms: the watchdog's full restart ladder (budget,
//     exponential backoff, escalation to the premium-only standby) driven
//     in-process through the real Supervisor with hooked-out process
//     plumbing. Unlike experiment 3, exit storms make *zero* checkpoint
//     progress, so persistent ones force escalation — and escalation is
//     the one recovery mode that is NOT free: every standby-chunk hour
//     sheds all ordinary traffic. The sweep prices that.
//
//  5. Price shock: a month whose GRID is faulted — a regional heat wave
//     multiplies one load bus's background demand, then a congestion
//     spike derates the one thermally limited line — run once planning
//     open-loop on the static curves and once with the damped closed
//     loop. Both arms bill at the realized coupled LMPs, so the delta is
//     purely what seeing the shocked prices at planning time is worth.

#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "core/simulator.hpp"
#include "core/supervisor.hpp"

int main() {
  using namespace billcap;

  const double rates[] = {0.0, 0.001, 0.002, 0.005, 0.01, 0.02};

  bench::heading("Resilience: Cost Capping under injected faults");
  util::Table table({"fault rate", "cost $", "vs fault-free", "premium",
                     "ordinary", "degraded h", "outage h", "stale h"});
  util::Csv csv({"fault_rate", "total_cost", "cost_vs_fault_free",
                 "premium_ratio", "ordinary_ratio", "degraded_hours",
                 "incumbent_hours", "heuristic_hours", "outage_hours",
                 "stale_hours"});

  double baseline_cost = 0.0;
  for (const double rate : rates) {
    core::SimulationConfig config;
    config.monthly_budget = 1.5e6;
    config.fault_rates.outage_rate = rate;
    config.fault_rates.stale_rate = rate;
    config.fault_rates.shock_rate = rate;
    const core::MonthlyResult r =
        core::Simulator(config).run(core::Strategy::kCostCapping);
    if (rate == 0.0) baseline_cost = r.total_cost;
    const double vs_baseline =
        baseline_cost > 0.0 ? r.total_cost / baseline_cost : 1.0;
    table.add_row(
        {util::format_fixed(rate, 3), util::format_fixed(r.total_cost, 0),
         util::format_fixed(vs_baseline, 4),
         util::format_fixed(100.0 * r.premium_throughput_ratio(), 2) + "%",
         util::format_fixed(100.0 * r.ordinary_throughput_ratio(), 2) + "%",
         std::to_string(r.degraded_hours), std::to_string(r.outage_hours),
         std::to_string(r.stale_hours)});
    csv.add_numeric_row({rate, r.total_cost, vs_baseline,
                         r.premium_throughput_ratio(),
                         r.ordinary_throughput_ratio(),
                         static_cast<double>(r.degraded_hours),
                         static_cast<double>(r.incumbent_hours),
                         static_cast<double>(r.heuristic_hours),
                         static_cast<double>(r.outage_hours),
                         static_cast<double>(r.stale_hours)});
  }
  table.print(std::cout);
  bench::save_csv(csv, "resilience_sweep");

  // ---- 2. Frozen feed vs retrying feed with exponential backoff --------
  //
  // stale_rate is pinned high enough that the month sees several stale
  // intervals; only the retry-success probability varies. prob = 0 is the
  // legacy frozen feed (bit-identical to the pre-MarketFeed code path).
  bench::heading("Feed recovery: frozen feed vs exponential backoff");
  util::Table feed_table({"retry prob", "stale h", "vs frozen", "retries",
                          "recovered h", "cost $", "ordinary"});
  util::Csv feed_csv({"retry_prob", "stale_hours", "stale_vs_frozen",
                      "feed_retry_attempts", "feed_recovered_hours",
                      "total_cost", "ordinary_ratio"});
  const double retry_probs[] = {0.0, 0.3, 0.7, 0.9};
  std::size_t frozen_stale_hours = 0;
  bool backoff_strictly_better = true;
  for (const double prob : retry_probs) {
    core::SimulationConfig config;
    config.monthly_budget = 1.5e6;
    config.fault_rates.stale_rate = 0.05;
    config.market_feed.retry_success_prob = prob;
    const core::MonthlyResult r =
        core::Simulator(config).run(core::Strategy::kCostCapping);
    if (prob == 0.0) frozen_stale_hours = r.stale_hours;
    if (prob > 0.0 && r.stale_hours >= frozen_stale_hours)
      backoff_strictly_better = false;
    const double vs_frozen =
        frozen_stale_hours > 0
            ? static_cast<double>(r.stale_hours) /
                  static_cast<double>(frozen_stale_hours)
            : 1.0;
    feed_table.add_row(
        {util::format_fixed(prob, 1), std::to_string(r.stale_hours),
         util::format_fixed(vs_frozen, 3),
         std::to_string(r.feed_retry_attempts),
         std::to_string(r.feed_recovered_hours),
         util::format_fixed(r.total_cost, 0),
         util::format_fixed(100.0 * r.ordinary_throughput_ratio(), 2) +
             "%"});
    feed_csv.add_numeric_row({prob, static_cast<double>(r.stale_hours),
                              vs_frozen,
                              static_cast<double>(r.feed_retry_attempts),
                              static_cast<double>(r.feed_recovered_hours),
                              r.total_cost, r.ordinary_throughput_ratio()});
  }
  feed_table.print(std::cout);
  bench::save_csv(feed_csv, "resilience_feed_recovery");
  std::printf("[check] backoff recovery strictly reduces stale hours: %s\n",
              backoff_strictly_better ? "yes" : "NO");

  // ---- 3. Controller crashes survived via the durable checkpoint -------
  //
  // Every planned crash kills the control loop in-process; run_resumable
  // restarts it from the checkpoint file until the month completes. The
  // reference run is the same config through plain run() (which ignores
  // crashes): identical cost proves recovery is lossless.
  bench::heading("Crash recovery: checkpointed month vs uninterrupted");
  util::Table crash_table({"crash rate", "crashes", "cost $", "cost delta",
                           "premium", "ordinary"});
  util::Csv crash_csv({"crash_rate", "crash_recoveries", "total_cost",
                       "cost_delta_vs_uninterrupted", "premium_ratio",
                       "ordinary_ratio"});
  const std::string ck_path = "resilience_sweep.checkpoint";
  for (const double crash_rate : {0.0, 0.01, 0.05, 0.1}) {
    core::SimulationConfig config;
    config.monthly_budget = 1.5e6;
    config.fault_rates.stale_rate = 0.02;
    config.fault_rates.outage_rate = 0.002;
    config.fault_rates.crash_rate = crash_rate;
    config.market_feed.retry_success_prob = 0.5;
    const core::Simulator sim(config);
    const core::MonthlyResult reference =
        sim.run(core::Strategy::kCostCapping);
    core::remove_checkpoint(ck_path);
    core::Simulator::ResumableOutcome outcome =
        sim.run_resumable(core::Strategy::kCostCapping, ck_path, false);
    while (outcome.crashed)
      outcome =
          sim.run_resumable(core::Strategy::kCostCapping, ck_path, true);
    core::remove_checkpoint(ck_path);
    const core::MonthlyResult& r = outcome.result;
    const double delta = r.total_cost - reference.total_cost;
    crash_table.add_row(
        {util::format_fixed(crash_rate, 2),
         std::to_string(r.crash_recoveries),
         util::format_fixed(r.total_cost, 0), util::format_fixed(delta, 6),
         util::format_fixed(100.0 * r.premium_throughput_ratio(), 2) + "%",
         util::format_fixed(100.0 * r.ordinary_throughput_ratio(), 2) +
             "%"});
    crash_csv.add_numeric_row({crash_rate,
                               static_cast<double>(r.crash_recoveries),
                               r.total_cost, delta,
                               r.premium_throughput_ratio(),
                               r.ordinary_throughput_ratio()});
  }
  crash_table.print(std::cout);
  bench::save_csv(crash_csv, "resilience_crash_recovery");

  // ---- 4. Supervised kill-storms: what does escalation cost? -----------
  //
  // Each scenario plants exit storms (repeated deaths with no checkpoint
  // progress) and runs the month under the real Supervisor; the hooks run
  // the children in-process via run_resumable and synthesize their wait
  // statuses. A drainable storm is survived by restarts alone (cost delta
  // 0); a storm longer than the escalation threshold triggers a 4-hour
  // premium-only standby chunk whose shed ordinary traffic is the price
  // of staying alive.
  bench::heading("Supervised kill-storms: restart ladder and escalation");
  struct StormScenario {
    const char* label;
    std::vector<core::FaultPlan::ExitStorm> storms;
  };
  const StormScenario scenarios[] = {
      {"none", {}},
      {"2 deaths @h100", {{100, 2}}},
      {"6 deaths @h100", {{100, 6}}},
      {"6 @h100 + 6 @h300", {{100, 6}, {300, 6}}},
  };
  util::Table storm_table({"storm plan", "deaths", "restarts", "standby runs",
                           "premium-only h", "backoff ms", "cost delta",
                           "premium", "ordinary"});
  util::Csv storm_csv({"scenario", "deaths", "restarts", "standby_runs",
                       "premium_only_hours", "backoff_ms", "cost_delta",
                       "premium_ratio", "ordinary_ratio"});
  bool supervised_all_complete = true;
  core::SimulationConfig storm_base;
  storm_base.monthly_budget = 1.5e6;
  const core::MonthlyResult reference =
      core::Simulator(storm_base).run(core::Strategy::kCostCapping);
  for (const StormScenario& scenario : scenarios) {
    core::SimulationConfig config = storm_base;
    config.fault_plan.exit_storms = scenario.storms;
    const core::Simulator primary(config);
    core::SimulationConfig standby_config = config;
    standby_config.standby = true;
    const core::Simulator standby(standby_config);

    core::SupervisorOptions options;
    options.escalate_after = 3;
    options.standby_hours = 4;
    const std::size_t keep_generations = 3;

    // In-process "children": crashed -> signalled, stopped -> exit 4,
    // done -> exit 0, in the waitpid encoding classify_wait_status reads.
    double clock_s = 0.0;
    double backoff_ms = 0.0;
    core::SuperviseHooks hooks;
    hooks.run = [&](const core::ChildSpec&, bool run_standby) {
      core::Simulator::ResumeControls controls;
      controls.keep_generations = keep_generations;
      if (run_standby) controls.max_hours = options.standby_hours;
      const core::Simulator::ResumableOutcome outcome =
          (run_standby ? standby : primary)
              .run_resumable(core::Strategy::kCostCapping, ck_path,
                             /*resume=*/true, {}, controls);
#if defined(__unix__) || defined(__APPLE__)
      if (outcome.crashed) return SIGKILL;  // a wait status, not an exit code
      return outcome.stopped ? core::kExitStopped << 8 : 0;
#else
      if (outcome.crashed) return core::kExitRuntimeError;
      return outcome.stopped ? core::kExitStopped : 0;
#endif
    };
    hooks.now_s = [&] { return clock_s += 1.0; };
    hooks.sleep_ms = [&](double ms) { backoff_ms += ms; };
    hooks.log = [](const std::string&) {};
    hooks.checkpoint_hour = [&] {
      return core::probe_checkpoint_hour(ck_path, keep_generations);
    };

    core::remove_checkpoint(ck_path);
    core::Supervisor supervisor(options, {"in-process", {}},
                                {"in-process", {"--standby"}}, ck_path,
                                keep_generations, hooks);
    const core::SuperviseReport report = supervisor.run();
    const core::CheckpointState final_state = core::load_checkpoint(ck_path);
    core::remove_checkpoint(ck_path);

    const core::MonthlyResult& r = final_state.partial;
    supervised_all_complete &= report.exit_code == core::kExitSuccess &&
                               r.hours.size() == reference.hours.size();
    std::size_t premium_only_hours = 0;
    for (const core::HourRecord& h : r.hours)
      if (h.used_heuristic) ++premium_only_hours;
    const double delta = r.total_cost - reference.total_cost;
    storm_table.add_row(
        {scenario.label, std::to_string(r.crash_recoveries),
         std::to_string(report.restarts), std::to_string(report.standby_runs),
         std::to_string(premium_only_hours), util::format_fixed(backoff_ms, 0),
         util::format_fixed(delta, 2),
         util::format_fixed(100.0 * r.premium_throughput_ratio(), 2) + "%",
         util::format_fixed(100.0 * r.ordinary_throughput_ratio(), 2) + "%"});
    storm_csv.add_row(
        {scenario.label, std::to_string(r.crash_recoveries),
         std::to_string(report.restarts), std::to_string(report.standby_runs),
         std::to_string(premium_only_hours), util::format_double(backoff_ms),
         util::format_double(delta),
         util::format_double(r.premium_throughput_ratio()),
         util::format_double(r.ordinary_throughput_ratio())});
  }
  storm_table.print(std::cout);
  bench::save_csv(storm_csv, "resilience_supervised_storms");
  std::printf("[check] every supervised kill-storm month completed: %s\n",
              supervised_all_complete ? "yes" : "NO");

  // ---- 5. Price shock: open-loop planning vs the damped closed loop ----
  //
  // Grid-side faults only: a 72 h heat wave at load bus B (background
  // demand x1.6, the ISO's problem, not the fleet's) followed by a 72 h
  // congestion spike derating the one limited line (D-E) to 60 %. The
  // open-loop arm keeps planning on the static tariff curves and is
  // billed at the LMPs the shocked grid actually clears; the closed-loop
  // arm re-derives its curves from those LMPs every hour (damping ladder
  // on) and dodges the expensive buses while the shock lasts.
  bench::heading("Price shock: open-loop planning vs damped closed loop");
  struct ShockArm {
    const char* label;
    bool grid_faulted;
    bool plan_closed_loop;
  };
  const ShockArm arms[] = {
      {"no grid faults", false, true},
      {"shocked, open-loop plan", true, false},
      {"shocked, closed-loop damped", true, true},
  };
  util::Table shock_table({"arm", "cost $", "vs calm", "closed h",
                           "fallback h", "oscill", "diverged", "degraded h",
                           "premium", "ordinary"});
  util::Csv shock_csv({"arm", "total_cost", "cost_vs_calm",
                       "closed_loop_hours", "fallback_hours",
                       "oscillation_hours", "diverged_hours",
                       "degraded_hours", "premium_ratio", "ordinary_ratio"});
  double calm_cost = 0.0;
  double open_loop_cost = 0.0;
  double closed_loop_cost = 0.0;
  for (const ShockArm& arm : arms) {
    core::SimulationConfig config;
    config.monthly_budget = 1.5e6;
    config.market_coupler.enabled = true;
    config.market_coupler.plan_closed_loop = arm.plan_closed_loop;
    // The tight 1.5e6 budget is a harder fixed-point problem than the
    // default month, so the damped arms run the full ladder from hour 0
    // rather than escalating into it.
    config.market_coupler.damping = core::DampingMode::kFull;
    if (arm.grid_faulted) {
      config.fault_plan.grid_demand_shocks.push_back(
          {/*bus=*/1, /*start_hour=*/200, /*duration_hours=*/72,
           /*multiplier=*/1.6});
      config.fault_plan.congestion_spikes.push_back(
          {/*line=*/5, /*start_hour=*/400, /*duration_hours=*/72,
           /*limit_factor=*/0.6});
    }
    const core::MonthlyResult r =
        core::Simulator(config).run(core::Strategy::kCostCapping);
    if (!arm.grid_faulted) calm_cost = r.total_cost;
    if (arm.grid_faulted && !arm.plan_closed_loop)
      open_loop_cost = r.total_cost;
    if (arm.grid_faulted && arm.plan_closed_loop)
      closed_loop_cost = r.total_cost;
    const std::size_t oscill = r.failure_tally[static_cast<std::size_t>(
        core::FailureReason::kPriceOscillation)];
    const std::size_t diverged = r.failure_tally[static_cast<std::size_t>(
        core::FailureReason::kCouplerDiverged)];
    const double vs_calm = calm_cost > 0.0 ? r.total_cost / calm_cost : 1.0;
    shock_table.add_row(
        {arm.label, util::format_fixed(r.total_cost, 0),
         util::format_fixed(vs_calm, 4), std::to_string(r.closed_loop_hours),
         std::to_string(r.coupler_fallback_hours), std::to_string(oscill),
         std::to_string(diverged), std::to_string(r.degraded_hours),
         util::format_fixed(100.0 * r.premium_throughput_ratio(), 2) + "%",
         util::format_fixed(100.0 * r.ordinary_throughput_ratio(), 2) + "%"});
    shock_csv.add_row(
        {arm.label, util::format_double(r.total_cost),
         util::format_double(vs_calm), std::to_string(r.closed_loop_hours),
         std::to_string(r.coupler_fallback_hours), std::to_string(oscill),
         std::to_string(diverged), std::to_string(r.degraded_hours),
         util::format_double(r.premium_throughput_ratio()),
         util::format_double(r.ordinary_throughput_ratio())});
  }
  shock_table.print(std::cout);
  bench::save_csv(shock_csv, "resilience_price_shock");
  const bool shock_planning_pays = closed_loop_cost <= open_loop_cost;
  std::printf("[check] closed-loop planning through the shock costs no more "
              "than open-loop: %s\n",
              shock_planning_pays ? "yes" : "NO");

  return (backoff_strictly_better && supervised_all_complete &&
          shock_planning_pays)
             ? billcap::core::kExitSuccess
             : billcap::core::kExitRuntimeError;
}
