#pragma once

#include <array>
#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/bill_capper.hpp"
#include "core/budgeter.hpp"
#include "core/cost_model.hpp"
#include "core/fault_injector.hpp"
#include "core/market_coupler.hpp"
#include "core/market_feed.hpp"
#include "datacenter/datacenter.hpp"
#include "market/pricing_policy.hpp"
#include "workload/trace.hpp"
#include "workload/wiki_synth.hpp"

namespace billcap::core {

/// Everything needed to reproduce one evaluation month (Section VI): the
/// three paper data centers, a pricing-policy level, a synthetic two-month
/// Wikipedia-like trace (first month trains the budgeter), per-site
/// background demand, the premium/ordinary mix and the monthly budget.
/// How the budgeter derives its hour-of-week weights.
enum class BudgetWeighting {
  kHistory,  ///< trailing-weeks average of the history month (the paper)
  kUniform,  ///< flat 1/168 — the naive strawman
  kOracle,   ///< weights from the *evaluation* month itself (perfect
             ///< prediction upper bound)
};

struct SimulationConfig {
  std::uint64_t seed = 2012;           ///< master seed (trace + demand)
  double monthly_budget = 2.5e6;       ///< $ per budgeting period
  double premium_share = 0.8;          ///< Section VII-C: 80 % premium
  int policy_level = 1;                ///< paper_policies level 0..3
  bool enforce_budget = true;          ///< false = step 1 only (Fig. 3/4)
  std::size_t history_weeks = 2;       ///< budgeter lookback
  BudgetWeighting budget_weighting = BudgetWeighting::kHistory;
  /// Seed offset for the budgeter's history trace: nonzero simulates a
  /// *mispredicted* workload (the history month belongs to a different
  /// random world than the month actually simulated) — the robustness
  /// concern of Section IX.
  std::uint64_t history_seed_offset = 0;
  workload::WikiSynthParams workload;  ///< trace shape
  OptimizerOptions optimizer;          ///< MILP knobs / power-model ablation

  /// Operational hazards injected into the evaluation month. An explicit
  /// plan wins; otherwise nonzero `fault_rates` draw a plan from the
  /// simulation seed (deterministically). Both empty = fault-free run,
  /// bit-identical to the pre-fault-framework behaviour.
  FaultPlan fault_plan;
  FaultRates fault_rates;

  /// Retry policy of the market-data client: with a nonzero
  /// retry_success_prob a stale feed is re-polled with exponential backoff
  /// each hour and can recover mid-interval. Default = frozen feed.
  MarketFeedOptions market_feed;

  /// Closed-loop market coupling (Cost Capping only): the hour's allocation
  /// feeds back into the DC-OPF as nodal demand and the curves re-derive
  /// inside a bounded fixed point, with oscillation detection, a damping
  /// ladder and a divergence breaker. Disabled = the legacy static-curve
  /// world, byte-for-byte.
  MarketCouplerOptions market_coupler;

  /// Degraded standby mode (the supervisor's escalation target): every
  /// hour is decided by the greedy premium-only fallback instead of the
  /// MILP, and injected controller crashes / exit storms do not fire (they
  /// model defects in the primary decide path this mode bypasses).
  /// Deliberately EXCLUDED from the checkpoint digest so a standby attempt
  /// can pick up the primary's checkpoint and vice versa.
  bool standby = false;
};

/// The strategies compared in the evaluation.
enum class Strategy {
  kCostCapping,  ///< this paper's two-step algorithm
  kMinOnlyAvg,   ///< Min-Only with the average-price belief
  kMinOnlyLow,   ///< Min-Only with the lowest-price belief
};
const char* to_string(Strategy strategy) noexcept;

/// Everything recorded about one invocation period.
struct HourRecord {
  std::size_t hour = 0;
  double arrivals = 0.0;
  double premium_arrivals = 0.0;
  double ordinary_arrivals = 0.0;
  double served_premium = 0.0;
  double served_ordinary = 0.0;
  double hourly_budget = 0.0;   ///< 0 for the budget-less baselines
  double cost = 0.0;            ///< ground-truth $ billed this hour
  double predicted_cost = 0.0;  ///< the optimizer's own belief
  CappingOutcome::Mode mode = CappingOutcome::Mode::kUncapped;
  std::vector<double> site_lambda;    ///< requests/hour per site
  std::vector<double> site_power_mw;  ///< ground-truth draw per site
  long nodes = 0;                     ///< branch-and-bound nodes

  /// Degraded-mode bookkeeping: true when a fallback (incumbent reuse or
  /// greedy heuristic) produced the hour, with the root-cause reason.
  bool degraded = false;
  FailureReason failure = FailureReason::kNone;
  bool used_incumbent = false;
  bool used_heuristic = false;
  std::size_t sites_down = 0;   ///< injected outages active this hour
  bool stale_prices = false;    ///< optimizer planned on a stale feed

  /// Market-feed client bookkeeping: re-polls issued this hour and whether
  /// one of them landed (fresh data recovered mid-interval).
  int feed_attempts = 0;
  bool feed_recovered = false;

  /// Closed-loop coupler bookkeeping (all zero when the coupler is off).
  std::size_t coupler_iterations = 0;  ///< fixed-point iterations spent
  bool coupler_converged = false;  ///< a converged coupled plan ran the hour
  bool coupler_fallback = false;   ///< planned open-loop (breaker / trouble)
  std::size_t coupler_rung = 0;    ///< damping rung in force
};

/// The top of one hour, shared by every caller that decides it (simulate's
/// hour, serve's hour boundary): the world as it is and as the controller
/// sees it, before anything is decided.
struct HourOpening {
  double budget = 0.0;  ///< hourly budget; 1e18 when the cap is not enforced
  FeedObservation feed;            ///< the hour's market-feed poll
  std::vector<double> truth_mw;    ///< background demand, shocks applied
  /// What planning sees: the truth, or the observed hour's demand while
  /// the feed is stale.
  std::vector<double> believed_mw;
  std::vector<std::uint8_t> available;  ///< per site: 1 = up this hour
  long squeeze_nodes = 0;  ///< a squeezed hour's node budget; 0 = none
  market::CoupledHourFaults grid_faults;  ///< nominal when none covers it
};

/// A full month of records plus the aggregates the figures report.
struct MonthlyResult {
  Strategy strategy = Strategy::kCostCapping;
  double monthly_budget = 0.0;
  std::vector<HourRecord> hours;

  double total_cost = 0.0;
  double total_premium_arrivals = 0.0;
  double total_ordinary_arrivals = 0.0;
  double total_served_premium = 0.0;
  double total_served_ordinary = 0.0;

  /// Aggregate degradation counters (graceful-degradation observability).
  std::size_t degraded_hours = 0;   ///< hours produced by any fallback
  std::size_t incumbent_hours = 0;  ///< hours reusing a limit-solve's best
  std::size_t heuristic_hours = 0;  ///< hours from greedy water-filling
  std::size_t outage_hours = 0;     ///< hours with >= 1 injected site down
  std::size_t stale_hours = 0;      ///< hours planned on a stale feed

  /// Root-cause tally of degraded hours, indexed by FailureReason.
  std::array<std::size_t, kFailureReasonCount> failure_tally{};

  /// Fleet-mode chunk counters (FleetController months; zero for the
  /// classic single-capper loop). A "chunk" is one region-hour solve.
  std::size_t degraded_chunks = 0;     ///< chunk solves that fell off optimal
  std::size_t quarantined_chunks = 0;  ///< chunk-hours pinned to standby
  std::size_t region_down_chunks = 0;  ///< chunk-hours lost to RegionOutage
  /// Root-cause tally of degraded chunk solves, indexed by FailureReason.
  std::array<std::size_t, kFailureReasonCount> chunk_failure_tally{};

  /// Market-feed client counters: total re-polls issued and hours where a
  /// retry landed mid-interval (fresh data instead of a frozen feed).
  std::size_t feed_retry_attempts = 0;
  std::size_t feed_recovered_hours = 0;

  /// Closed-loop coupler counters (zero for open-loop months). Oscillation
  /// and divergence hour counts live in failure_tally under
  /// kPriceOscillation / kCouplerDiverged.
  std::size_t closed_loop_hours = 0;      ///< hours run on a converged plan
  std::size_t coupler_fallback_hours = 0; ///< hours planned open-loop
  std::size_t coupler_iterations = 0;     ///< total fixed-point iterations

  /// Controller crashes survived via checkpoint/resume (run_resumable).
  std::size_t crash_recoveries = 0;

  /// Served premium / arriving premium (1.0 = full QoS coverage).
  double premium_throughput_ratio() const noexcept;
  /// Served ordinary / arriving ordinary.
  double ordinary_throughput_ratio() const noexcept;
  /// Total cost / monthly budget (> 1 means the cap was violated).
  double budget_utilization() const noexcept;

  /// Folds one finished hour into the aggregates and appends it to
  /// `hours`. The one fold of every batch month (simulate and the fleet).
  void accumulate(HourRecord&& rec);
};

/// Hour-by-hour closed-loop simulation of the evaluation month: each hour
/// the strategy allocates the arriving workload, the allocation is billed
/// at ground truth (integer servers/switches, real step prices), the spend
/// feeds back into the budgeter, and the records accumulate. Deterministic
/// in the config seed.
class Simulator {
 public:
  explicit Simulator(SimulationConfig config);

  const SimulationConfig& config() const noexcept { return config_; }
  const std::vector<datacenter::DataCenter>& sites() const noexcept {
    return sites_;
  }
  const std::vector<market::PricingPolicy>& policies() const noexcept {
    return policies_;
  }
  const workload::Trace& history_trace() const noexcept { return history_; }
  const workload::Trace& evaluation_trace() const noexcept {
    return evaluation_;
  }
  /// Background demand [site][hour] for the evaluation month.
  const std::vector<std::vector<double>>& background_demand() const noexcept {
    return demand_;
  }
  const Budgeter& budgeter() const noexcept { return budgeter_; }
  const FaultInjector& fault_injector() const noexcept { return injector_; }
  /// The effective fault schedule: the explicit plan, or the plan drawn
  /// from `fault_rates` (controller crashes live here too).
  const FaultPlan& fault_plan() const noexcept { return plan_; }
  /// The hour's grid-side hazards (line outages, demand shocks, congestion
  /// derates), resolved from the fault injector. Nominal when no grid
  /// fault covers the hour.
  market::CoupledHourFaults grid_faults_at(std::size_t fault_hour) const;

  /// Opens `hour` from an already-made budget and feed poll, and touches
  /// no state: the fault overlay at `fault_hour` (shocked truth, believed
  /// demand, site availability, squeeze node budget, grid faults).
  /// `raw_demand` is the hour's unshocked background demand; empty means
  /// the evaluation month's at `hour`. Min-Only hours and serve's mid-hour
  /// resume (which replays the persisted budget and poll) call this one.
  HourOpening open_hour(std::size_t hour, std::size_t fault_hour,
                        double budget, const FeedObservation& feed,
                        std::vector<double> raw_demand = {}) const;
  /// Opens `hour` for Cost Capping: the budgeter's share after `spent`
  /// (1e18 when the cap is not enforced), one poll of `feed` at
  /// `fault_hour`, then the overlay above.
  HourOpening open_hour(const Budgeter& budgeter, double spent,
                        MarketFeed& feed, std::size_t hour,
                        std::size_t fault_hour,
                        std::vector<double> raw_demand = {}) const;

  /// The run's market-data client, seeded from the config.
  MarketFeed make_feed() const;
  /// A fresh per-run coupler, or null when coupling is off / the strategy
  /// is not Cost Capping (the baselines know no step curves to re-derive).
  std::unique_ptr<MarketCoupler> make_coupler(Strategy strategy) const;

  /// Runs the whole month under one strategy.
  MonthlyResult run(Strategy strategy) const;

  /// One attempt at a crash-tolerant month. The state needed to continue
  /// mid-month (budget ledger, per-hour records, the market feed's RNG
  /// stream, the coupler, the fault cursors) is committed after every
  /// simulated hour as one fsynced record appended to the state log beside
  /// the head at `checkpoint_path`, so a kill at any instant leaves a
  /// consistent checkpoint. With `resume`
  /// true an existing checkpoint is loaded (it must match this config and
  /// strategy — a digest guards against resuming someone else's month) and
  /// the month continues from its next hour; a missing file starts fresh.
  struct ResumableOutcome {
    MonthlyResult result;           ///< partial when crashed, else complete
    bool crashed = false;           ///< a crash or exit-storm death fired
    std::size_t crash_hour = 0;     ///< the hour the crash struck
    std::size_t resumed_from = 0;   ///< first hour computed this attempt
    std::size_t recoveries = 0;     ///< crash entries survived so far
    /// Graceful stop: a stop flag / max_hours limit ended the attempt with
    /// the month unfinished but the checkpoint consistent. Never combined
    /// with `crashed`.
    bool stopped = false;
    /// How many state-log records the resume walked back past (0 = it
    /// loaded the newest commit), and one line per record it stepped over
    /// (corrupted, or after a corrupted one). Empty skip list and 0 for a
    /// clean resume or a fresh start.
    std::size_t resumed_generation = 0;
    std::vector<std::string> resume_skipped;
  };

  /// Knobs for one resumable attempt (all defaults preserve the previous
  /// single-generation, run-to-completion behaviour).
  struct ResumeControls {
    /// How far a resume may fall back (>= 1): it loads the newest commit
    /// among the last K state-log records that verifies, walking back at
    /// most K - 1 records past corrupted ones. Commits do not depend on it.
    std::size_t keep_generations = 1;
    /// Stop gracefully after committing this many hours this attempt
    /// (0 = no limit). The supervisor uses this to bound standby attempts.
    std::size_t max_hours = 0;
    /// Checked between hours: when it goes true the attempt finishes the
    /// in-flight hour, commits its checkpoint and returns stopped=true.
    /// The CLI points this at its SIGTERM/SIGINT flag.
    const volatile std::sig_atomic_t* stop_flag = nullptr;
  };

  /// `on_hour` (optional) fires after each hour's checkpoint commits —
  /// the hook for streaming per-hour CSV output that stays hour-aligned
  /// with the checkpoint.
  ResumableOutcome run_resumable(
      Strategy strategy, const std::string& checkpoint_path, bool resume,
      const std::function<void(const HourRecord&)>& on_hour = {}) const;
  ResumableOutcome run_resumable(
      Strategy strategy, const std::string& checkpoint_path, bool resume,
      const std::function<void(const HourRecord&)>& on_hour,
      const ResumeControls& controls) const;

  /// Runs `months` consecutive budgeting periods (Section IX's "ongoing
  /// operation" view): every month receives a fresh monthly budget, and
  /// the budgeter's hour-of-week weights are re-learned from the months
  /// that actually happened before it (the configured history month first,
  /// then realized traffic). The synthetic series is extended seamlessly —
  /// month 0 equals run()'s month. Cost Capping only.
  std::vector<MonthlyResult> run_months(std::size_t months) const;

 private:
  /// The one batch hour of run(), run_resumable() and run_months(): the
  /// hour's opening, the strategy's decision, ground-truth billing and the
  /// record. `hour` indexes `budgeter` (spent so far: `spent`),
  /// `fault_hour` the fault injector (month-scoped plans do not repeat in
  /// later months), and `raw_demand` is the unshocked background demand
  /// for the hour (empty: the evaluation month's). `coupler` may be null
  /// (static-curve world; always null for Min-Only).
  HourRecord run_hour(Strategy strategy, const BillCapper& capper,
                      MarketFeed& feed, MarketCoupler* coupler,
                      const Budgeter& budgeter, double spent,
                      std::size_t hour, std::size_t fault_hour,
                      double arrivals,
                      std::vector<double> raw_demand = {}) const;
  std::vector<double> demand_at(std::size_t hour) const;
  void apply_demand_shocks(std::vector<double>& demand,
                           std::size_t fault_hour) const;

  SimulationConfig config_;
  std::vector<datacenter::DataCenter> sites_;
  std::vector<market::PricingPolicy> policies_;
  workload::Trace history_;
  workload::Trace evaluation_;
  std::vector<std::vector<double>> demand_;  // [site][hour of eval month]
  Budgeter budgeter_;
  FaultPlan plan_;  ///< effective schedule (explicit or rate-drawn)
  FaultInjector injector_;
};

}  // namespace billcap::core
