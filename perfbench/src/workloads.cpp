#include "workloads.hpp"

#include <sched.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/fleet.hpp"
#include "core/market_coupler.hpp"
#include "core/market_feed.hpp"
#include "core/simulator.hpp"
#include "datacenter/catalog.hpp"
#include "market/pricing_policy.hpp"
#include "serve/serve_loop.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/trace.hpp"

namespace perfbench {
namespace {

using namespace billcap;
using trace::Entry;

constexpr std::size_t kSetupsPerPass = 15;
/// An untraced run fails once its repetitions pass this multiple of
/// --seconds.
constexpr double kOverrunFactor = 4.0;
constexpr std::size_t kFleetWorkers = 2;
constexpr std::size_t kFleetHours = 504;  // 3 weeks: p98 keeps 10 samples beyond
constexpr std::size_t kFleetCheckHours = 48;
constexpr std::size_t kFleetSites = 100;
constexpr std::size_t kFleetSitesPerRegion = 5;
constexpr double kMonthlyBudget = 1.5e6;

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(trace::now_ns() - start_ns) * 1e-6;
}

/// Fingerprint of a double that only bitwise-equal values share.
std::string bits(double value) {
  std::uint64_t u = 0;
  std::memcpy(&u, &value, sizeof u);
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(u));
  return buf;
}

/// Step boundaries: mark() closes a step at each committed decision; the
/// time after the last mark (the final commit) is added to the last step,
/// so the steps add up to the whole pass.
class StepClock {
 public:
  void start() { last_ = trace::now_ns(); }
  void mark() {
    const std::int64_t t = trace::now_ns();
    ms_.push_back(static_cast<double>(t - last_) * 1e-6);
    last_ = t;
  }
  std::vector<double> finish() {
    if (!ms_.empty()) ms_.back() += ms_since(last_);
    return std::move(ms_);
  }

 private:
  std::int64_t last_ = 0;
  std::vector<double> ms_;
};

/// One repetition of a workload's month, with what its outputs say.
struct PassResult {
  std::vector<double> step_ms;
  std::size_t steps_expected = 0;
  std::size_t steps_committed = 0;
  std::size_t decisions = 0;  ///< hours, region-hour chunks or ticks
  std::size_t degraded = 0;
  double premium_arrivals = 0.0;
  double premium_served = 0.0;
  double ordinary_arrivals = 0.0;
  double ordinary_served = 0.0;
  double bill_usd = 0.0;
  bool premium_qos_ok = true;
  std::size_t budget_violations = 0;  ///< outside premium-only mode
  std::size_t deaths_resumed = 0;     ///< injected controller deaths
  std::size_t deaths_expected = 0;
  std::string digest;                  ///< bitwise aggregate fingerprint
  std::map<std::string, double> counts;  ///< workload-specific outputs
};

/// Hours whose planned cost exceeded the hour's budget although the capper
/// was not in premium-only mode. The plan is what the capper promises; the
/// ground-truth bill can differ from it (integer servers, realized LMPs).
std::size_t budget_violations(const core::MonthlyResult& result) {
  std::size_t n = 0;
  for (const core::HourRecord& h : result.hours)
    if (h.mode != core::CappingOutcome::Mode::kPremiumOnly &&
        h.predicted_cost > h.hourly_budget * (1.0 + 1e-9) + 1e-6)
      ++n;
  return n;
}

/// Bitwise key of a month's aggregates and per-hour bills.
std::string month_key(const core::MonthlyResult& result) {
  std::string key = bits(result.total_cost) + bits(result.total_served_premium) +
                    bits(result.total_served_ordinary) + ":" +
                    std::to_string(result.hours.size()) + ":" +
                    std::to_string(result.degraded_hours) + ":" +
                    std::to_string(result.coupler_iterations) + ":" +
                    std::to_string(result.closed_loop_hours) + ":" +
                    std::to_string(result.coupler_fallback_hours) + ":";
  for (const core::HourRecord& h : result.hours) key += bits(h.cost);
  return key;
}

PassResult summarize_month(const core::MonthlyResult& result,
                           std::size_t expected_hours) {
  PassResult p;
  p.steps_expected = expected_hours;
  p.steps_committed = result.hours.size();
  for (std::size_t i = 0; i < result.hours.size(); ++i)
    if (result.hours[i].hour != i) p.steps_committed = std::min(p.steps_committed, i);
  p.decisions = result.hours.size();
  p.degraded = result.degraded_hours;
  p.premium_arrivals = result.total_premium_arrivals;
  p.premium_served = result.total_served_premium;
  p.ordinary_arrivals = result.total_ordinary_arrivals;
  p.ordinary_served = result.total_served_ordinary;
  p.bill_usd = result.total_cost;
  p.premium_qos_ok = result.total_served_premium >=
                     result.total_premium_arrivals * (1.0 - 1e-9);
  p.budget_violations = budget_violations(result);
  p.digest = month_key(result);
  return p;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the world model and the controller; times both.
  virtual void setup() = 0;
  virtual PassResult run_pass() = 0;
  /// Months an untraced run measures. Fixed per workload, so the parent
  /// and a change take the per-step best over the same number of
  /// repetitions; sized so a run lasts 15-45 s on a shared 4-vCPU host.
  virtual std::size_t repetitions() const = 0;
  /// Entry points the traced run must see calls into on this workload.
  virtual std::vector<Entry> expected_entries() const = 0;
  /// Checks, in every run after the timed passes, that a workload which
  /// drives the library's loop hour by hour matches the library's own loop.
  virtual void drive_checks(const PassResult& /*pass*/, RunResult& /*result*/) {}
  /// The traced run's reference comparisons against `traced`, its last
  /// traced pass; they may run extra passes and add metrics.
  virtual void traced_checks(const PassResult& /*traced*/, RunResult& /*result*/) {}

  double world_ms = 0.0;
  double controller_ms = 0.0;
};

// ---- durable_month ---------------------------------------------------------

/// The paper's evaluation month through Simulator::run_resumable, committing
/// a checkpoint every hour, with controller crashes resumed in-process and
/// an exit storm that escalates to a six-hour premium-only standby — the
/// sequence `billcap supervise` drives.
class DurableMonth : public Workload {
 public:
  static constexpr std::size_t kStormHour = 500;
  static constexpr std::size_t kStandbyHours = 6;
  static constexpr std::size_t kEscalateAfter = 2;

  DurableMonth(std::uint64_t seed, std::string dir)
      : dir_(std::move(dir)), path_(dir_ + "/durable.ck") {
    base_.seed = seed;
    base_.monthly_budget = kMonthlyBudget;
    base_.policy_level = 1;
    // A six-hour market-feed outage: a production hazard that also keeps
    // the fault injector on for the crash-free reference below.
    base_.fault_plan.stale_intervals.push_back({200, 6});
    config_ = base_;
    config_.fault_plan.crashes = {{150, false}, {300, true}, {450, false},
                                  {600, true}};
    config_.fault_plan.exit_storms = {{kStormHour, 3}};
  }

  void setup() override {
    const std::int64_t t0 = trace::now_ns();
    primary_ = std::make_unique<core::Simulator>(config_);
    core::SimulationConfig standby = config_;
    standby.standby = true;
    standby_ = std::make_unique<core::Simulator>(standby);
    world_ms = ms_since(t0);
    const std::int64_t t1 = trace::now_ns();
    std::filesystem::create_directories(dir_);
    clear(path_);
    controller_ms = ms_since(t1);
  }

  PassResult run_pass() override {
    clear(path_);
    StepClock clock;
    const auto on_hour = [&clock](const core::HourRecord&) { clock.mark(); };
    clock.start();
    const core::Simulator::ResumableOutcome out =
        supervise(*primary_, *standby_, path_, on_hour);
    PassResult p = summarize_month(out.result, 720);
    p.step_ms = clock.finish();
    p.deaths_resumed = deaths_;
    // Four crashes and three storm deaths: the first storm death follows an
    // attempt that made progress, so escalation waits for the third.
    p.deaths_expected = config_.fault_plan.crashes.size() +
                        config_.fault_plan.exit_storms.front().count;
    return p;
  }

  std::size_t repetitions() const override { return 10; }

  std::vector<Entry> expected_entries() const override {
    return {Entry::kSaveCheckpointRotated, Entry::kJournalSaveAtomic,
            Entry::kFsync,                 Entry::kLoadCheckpointFallback,
            Entry::kArenaSolve,            Entry::kDecideWithOptions,
            Entry::kFallbackAllocate,      Entry::kHourlyBudget,
            Entry::kFeedPoll,              Entry::kEvaluateAllocation};
  }

  void traced_checks(const PassResult& traced, RunResult& result) override {
    // The crash-free reference stops where the storm struck, runs the same
    // standby window, and finishes: the aggregates must match bitwise.
    core::SimulationConfig standby_base = base_;
    standby_base.standby = true;
    const core::Simulator ref(base_);
    const core::Simulator ref_standby(standby_base);
    const std::string ref_path = dir_ + "/durable_reference.ck";
    clear(ref_path);
    core::Simulator::ResumeControls controls;
    controls.max_hours = kStormHour;
    ref.run_resumable(core::Strategy::kCostCapping, ref_path, false, {},
                      controls);
    controls.max_hours = kStandbyHours;
    ref_standby.run_resumable(core::Strategy::kCostCapping, ref_path, true, {},
                              controls);
    const auto done =
        ref.run_resumable(core::Strategy::kCostCapping, ref_path, true, {});
    clear(ref_path);
    if (month_key(done.result) != traced.digest)
      result.errors.push_back(
          "durable_month: crash-and-resume aggregates differ from the "
          "uninterrupted reference");
  }

 private:
  static void clear(const std::string& path) {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");
  }

  /// Restarts the primary after each death; after kEscalateAfter deaths in
  /// a row with no committed hour, runs the standby for kStandbyHours.
  core::Simulator::ResumableOutcome supervise(
      const core::Simulator& primary, const core::Simulator& standby,
      const std::string& path,
      const std::function<void(const core::HourRecord&)>& on_hour) {
    deaths_ = 0;
    std::size_t zero_progress = 0;
    bool resume = false;
    for (std::size_t attempt = 0; attempt < 64; ++attempt) {
      core::Simulator::ResumableOutcome out = primary.run_resumable(
          core::Strategy::kCostCapping, path, resume, on_hour);
      resume = true;
      if (!out.crashed) return out;
      ++deaths_;
      const bool progressed = out.result.hours.size() > out.resumed_from;
      zero_progress = progressed ? 0 : zero_progress + 1;
      if (zero_progress >= kEscalateAfter) {
        core::Simulator::ResumeControls controls;
        controls.max_hours = kStandbyHours;
        standby.run_resumable(core::Strategy::kCostCapping, path, true,
                              on_hour, controls);
        zero_progress = 0;
      }
    }
    throw std::runtime_error("durable_month: supervisor gave up");
  }

  std::string dir_;
  std::string path_;
  core::SimulationConfig base_;    ///< without controller deaths
  core::SimulationConfig config_;  ///< base_ plus crashes and the storm
  std::unique_ptr<core::Simulator> primary_;
  std::unique_ptr<core::Simulator> standby_;
  std::size_t deaths_ = 0;
};

// ---- closed_month ----------------------------------------------------------

/// The evaluation month in memory with the market coupler on (default gain
/// and damping ladder) and one grid-hazard window: a bus demand shock and
/// a line derate. Driven hour by hour through MarketCoupler::plan_hour, the
/// same calls Simulator::run makes; every run checks the aggregates against
/// Simulator::run bitwise.
class ClosedMonth : public Workload {
 public:
  explicit ClosedMonth(std::uint64_t seed) {
    config_.seed = seed;
    config_.monthly_budget = kMonthlyBudget;
    config_.policy_level = 1;
    config_.market_coupler.enabled = true;
    config_.fault_plan.grid_demand_shocks.push_back({1, 200, 72, 1.6});
    config_.fault_plan.congestion_spikes.push_back({5, 400, 72, 0.6});
  }

  void setup() override {
    const std::int64_t t0 = trace::now_ns();
    sim_ = std::make_unique<core::Simulator>(config_);
    world_ms = ms_since(t0);
    const std::int64_t t1 = trace::now_ns();
    make_controller();
    controller_ms = ms_since(t1);
  }

  PassResult run_pass() override {
    if (!capper_) make_controller();
    const core::Simulator& sim = *sim_;
    const core::FaultInjector& injector = sim.fault_injector();
    const std::size_t n = sim.sites().size();
    const std::size_t hours = sim.evaluation_trace().hours();
    const workload::PremiumSplit split(config_.premium_share);

    core::MonthlyResult month;
    month.monthly_budget = config_.monthly_budget;
    month.hours.reserve(hours);
    std::vector<double> truth(n), believed;
    std::vector<std::uint8_t> available(n);
    std::size_t coupler_fallbacks = 0;
    double spent = 0.0;

    StepClock clock;
    clock.start();
    for (std::size_t hour = 0; hour < hours; ++hour) {
      const double budget = sim.budgeter().hourly_budget(hour, spent);
      const double arrivals = sim.evaluation_trace().at(hour);
      for (std::size_t i = 0; i < n; ++i)
        truth[i] = sim.background_demand()[i].at(hour) *
                   injector.demand_multiplier(i, hour);
      // The fault overlay of Simulator::run_capping_hour (the plan has no
      // deadline squeezes, so that branch is left out).
      core::DecideOptions overrides;
      if (injector.enabled()) {
        for (std::size_t i = 0; i < n; ++i)
          available[i] = injector.site_available(i, hour) ? 1 : 0;
        overrides.site_available = available;
        const core::FeedObservation feed = feed_->poll(hour);
        if (feed.stale) {
          const std::size_t seen = std::min(feed.observed_hour, hours - 1);
          believed.assign(n, 0.0);
          for (std::size_t i = 0; i < n; ++i)
            believed[i] = sim.background_demand()[i].at(seen) *
                          injector.demand_multiplier(i, seen);
          overrides.believed_demand_mw = believed;
        }
      }
      core::MarketCoupler::HourInputs in;
      in.premium = split.premium(arrivals);
      in.ordinary = split.ordinary(arrivals);
      in.true_demand_mw = truth;
      in.budget = budget;
      in.overrides = &overrides;
      in.faults = sim.grid_faults_at(hour);
      core::MarketCoupler::HourPlan plan = coupler_->plan_hour(in, *capper_);
      const std::vector<double> lambda = plan.outcome.allocation.lambda_vector();
      const core::GroundTruth bill = coupler_->bill(lambda, truth, in.faults);

      core::HourRecord rec;
      rec.hour = hour;
      rec.premium_arrivals = in.premium;
      rec.ordinary_arrivals = in.ordinary;
      rec.served_premium = plan.outcome.served_premium;
      rec.served_ordinary = plan.outcome.served_ordinary;
      rec.hourly_budget = plan.outcome.hourly_budget;
      rec.cost = bill.total_cost;
      rec.predicted_cost = plan.outcome.allocation.predicted_cost;
      rec.mode = plan.outcome.mode;
      rec.degraded = plan.outcome.degraded || plan.oscillation || plan.diverged;
      spent += rec.cost;
      month.total_cost += rec.cost;
      month.total_premium_arrivals += rec.premium_arrivals;
      month.total_ordinary_arrivals += rec.ordinary_arrivals;
      month.total_served_premium += rec.served_premium;
      month.total_served_ordinary += rec.served_ordinary;
      month.degraded_hours += rec.degraded ? 1 : 0;
      month.coupler_iterations += plan.iterations;
      month.closed_loop_hours += plan.closed_loop ? 1 : 0;
      month.coupler_fallback_hours += plan.fallback ? 1 : 0;
      // A fallback or breaker-held open-loop plan is a degraded decision
      // even when the open-loop solve itself was clean.
      coupler_fallbacks += (plan.fallback && !rec.degraded) ? 1 : 0;
      month.hours.push_back(std::move(rec));
      clock.mark();
    }
    PassResult p = summarize_month(month, 720);
    p.step_ms = clock.finish();
    p.degraded += coupler_fallbacks;
    capper_.reset();  // the next pass starts from a fresh controller
    return p;
  }

  std::size_t repetitions() const override { return 5; }

  std::vector<Entry> expected_entries() const override {
    return {Entry::kDeriveLocalPolicies, Entry::kSolveDcopf, Entry::kSolveLp,
            Entry::kPlanHour,            Entry::kDecideWithOptions,
            Entry::kArenaSolve,          Entry::kHourlyBudget,
            Entry::kFeedPoll};
  }

  void drive_checks(const PassResult& pass, RunResult& result) override {
    if (month_key(sim_->run(core::Strategy::kCostCapping)) != pass.digest)
      result.errors.push_back(
          "closed_month: hour-by-hour drive differs from Simulator::run");
  }

 private:
  void make_controller() {
    capper_ = std::make_unique<core::BillCapper>(sim_->sites(), sim_->policies(),
                                                 config_.optimizer);
    coupler_ = std::make_unique<core::MarketCoupler>(
        sim_->sites(), sim_->policies(), config_.optimizer,
        config_.market_coupler);
    feed_ = std::make_unique<core::MarketFeed>(
        &sim_->fault_injector(), config_.market_feed,
        config_.seed ^ 0x6d6172666565ULL);
  }

  core::SimulationConfig config_;
  std::unique_ptr<core::Simulator> sim_;
  std::unique_ptr<core::BillCapper> capper_;
  std::unique_ptr<core::MarketCoupler> coupler_;
  std::unique_ptr<core::MarketFeed> feed_;
};

// ---- fleet_month -----------------------------------------------------------

/// The 100-site, 20-region fleet of bench/fleet_sweep under its rotating
/// region-fault ladder, driven hour by hour through
/// FleetController::decide_hour on a pool of kFleetWorkers threads.
class FleetMonth : public Workload {
 public:
  explicit FleetMonth(std::uint64_t seed)
      : month_(month_config(seed, kFleetHours)),
        check_month_(month_config(seed, kFleetCheckHours)) {}

  void setup() override {
    const std::int64_t t0 = trace::now_ns();
    sites_.clear();
    policies_.clear();
    const auto base_sites = datacenter::paper_datacenters();
    const auto base_policies = market::paper_policies(1);
    while (sites_.size() < kFleetSites) {
      const std::size_t i = sites_.size() % base_sites.size();
      sites_.push_back(base_sites[i]);
      policies_.push_back(base_policies[i]);
    }
    regions_ = core::contiguous_regions(kFleetSites, kFleetSitesPerRegion);
    world_ms = ms_since(t0);
    const std::int64_t t1 = trace::now_ns();
    pool_.reset();
    pool_ = std::make_unique<util::ThreadPool>(kFleetWorkers);
    controller_ = std::make_unique<core::FleetController>(
        sites_, policies_, regions_, core::FleetOptions{}, pool_.get());
    controller_ms = ms_since(t1);
  }

  PassResult run_pass() override { return run_with(month_, pool_.get()); }

  /// One month on `pool` (null = serial). A fresh controller per pass, so
  /// quarantine state and arenas never carry over between repetitions.
  PassResult run_with(const core::FleetMonthConfig& month, util::ThreadPool* pool) {
    if (!controller_ || pool != pool_.get())
      controller_ = std::make_unique<core::FleetController>(
          sites_, policies_, regions_, core::FleetOptions{}, pool);
    core::FleetController& fleet = *controller_;
    const core::FaultInjector injector(month.faults, kFleetSites,
                                       fleet.num_regions(), month.hours);
    // The draws of FleetController::run_month, made up front so a step is
    // the decision alone.
    util::Rng rng(month.seed ^ 0xf1ee7c0117ULL);
    std::vector<double> premium(month.hours), ordinary(month.hours);
    std::vector<std::vector<double>> demand(month.hours,
                                            std::vector<double>(kFleetSites));
    constexpr double kTwoPi = 6.283185307179586;
    for (std::size_t h = 0; h < month.hours; ++h) {
      const double diurnal =
          1.0 + 0.35 * std::sin(kTwoPi * static_cast<double>(h % 24) / 24.0);
      premium[h] = month.base_premium * diurnal * rng.uniform(0.9, 1.1);
      ordinary[h] = month.base_ordinary * diurnal * rng.uniform(0.8, 1.2);
      for (double& d : demand[h]) d = month.base_demand_mw * rng.uniform(0.7, 1.3);
    }

    core::MonthlyResult result;
    result.monthly_budget = month.hourly_budget * static_cast<double>(month.hours);
    std::size_t degraded = 0;
    StepClock clock;
    clock.start();
    for (std::size_t h = 0; h < month.hours; ++h) {
      const core::FleetHourOutcome out = fleet.decide_hour(
          h, premium[h], ordinary[h], demand[h], month.hourly_budget, &injector);
      core::HourRecord rec;
      rec.hour = h;
      rec.arrivals = premium[h] + ordinary[h];
      rec.premium_arrivals = premium[h];
      rec.ordinary_arrivals = ordinary[h];
      rec.served_premium = out.served_premium;
      rec.served_ordinary = out.served_ordinary;
      rec.hourly_budget = month.hourly_budget;
      rec.cost = out.predicted_cost;
      rec.predicted_cost = out.predicted_cost;
      rec.mode = out.mode;
      rec.site_lambda = out.site_lambda;
      rec.sites_down = injector.sites_down(h);
      rec.degraded = out.degraded_chunks + out.region_down_chunks > 0;
      for (const core::ChunkOutcome& chunk : out.chunks) {
        if (chunk.status == core::ChunkStatus::kDegraded) {
          if (rec.failure == core::FailureReason::kNone) rec.failure = chunk.failure;
          ++result.chunk_failure_tally[static_cast<std::size_t>(chunk.failure)];
        }
        rec.used_incumbent = rec.used_incumbent || chunk.outcome.used_incumbent;
        rec.used_heuristic = rec.used_heuristic || chunk.outcome.used_heuristic;
      }
      result.total_cost += rec.cost;
      result.total_premium_arrivals += rec.premium_arrivals;
      result.total_ordinary_arrivals += rec.ordinary_arrivals;
      result.total_served_premium += rec.served_premium;
      result.total_served_ordinary += rec.served_ordinary;
      if (rec.degraded) {
        ++result.degraded_hours;
        ++result.failure_tally[static_cast<std::size_t>(rec.failure)];
      }
      if (rec.used_incumbent) ++result.incumbent_hours;
      if (rec.used_heuristic) ++result.heuristic_hours;
      if (rec.sites_down > 0 || out.region_down_chunks > 0) ++result.outage_hours;
      result.degraded_chunks += out.degraded_chunks;
      result.quarantined_chunks += out.quarantined_chunks;
      result.region_down_chunks += out.region_down_chunks;
      degraded += out.degraded_chunks + out.quarantined_chunks;
      result.hours.push_back(std::move(rec));
      clock.mark();
    }
    PassResult p = summarize_month(result, month.hours);
    p.step_ms = clock.finish();
    p.decisions = month.hours * fleet.num_regions();
    p.degraded = degraded;
    p.digest = core::fleet_month_csv(result);
    controller_.reset();
    return p;
  }

  std::size_t repetitions() const override { return 4; }

  std::vector<Entry> expected_entries() const override {
    return {Entry::kDecideHour, Entry::kDecideWithOptions, Entry::kArenaSolve,
            Entry::kFallbackAllocate};
  }

  void drive_checks(const PassResult& /*pass*/, RunResult& result) override {
    // The library's own FleetController::run_month on the same pool must
    // render the same fleet_month_csv as the hour-by-hour drive. A short
    // month with the same fault ladder covers every bookkeeping path at a
    // tenth of the cost of the measured one.
    const PassResult drive = run_with(check_month_, pool_.get());
    core::FleetController reference(sites_, policies_, regions_, {}, pool_.get());
    if (drive.digest != core::fleet_month_csv(reference.run_month(check_month_)))
      result.errors.push_back(
          "fleet_month: hour-by-hour drive differs from run_month");
    if (drive.degraded == 0)
      result.errors.push_back("fleet_month: the check month hit no fault");
  }

  void traced_checks(const PassResult& traced, RunResult& result) override;

 private:
  /// fleet_sweep's month and ladder, placed by the seed: one region
  /// outage, one stalled chunk solver, one squeezed arena and one site
  /// outage, each a quarter of the month long or less.
  static core::FleetMonthConfig month_config(std::uint64_t seed, std::size_t hours) {
    core::FleetMonthConfig month;
    month.hours = hours;
    month.seed = 0xb111ca9f1ee7ULL ^ (seed * 0x9e3779b97f4a7c15ULL);
    month.base_premium = 1.2e13;
    month.base_ordinary = 3e12;
    month.base_demand_mw = 180.0;
    month.hourly_budget = 2e8;
    const std::size_t regions = kFleetSites / kFleetSitesPerRegion;
    const std::size_t quarter = hours / 4 + 1;
    month.faults.region_outages.push_back({seed % regions, quarter, quarter / 2 + 1});
    month.faults.chunk_stalls.push_back(
        {(seed * 7 + 3) % regions, quarter / 2, quarter, /*node_budget=*/1});
    month.faults.chunk_squeezes.push_back(
        {(seed * 13 + 5) % regions, 2 * quarter, quarter, /*arena_bytes=*/64});
    month.faults.outages.push_back({(seed * 11 + 1) % kFleetSites, 1, quarter});
    return month;
  }

  core::FleetMonthConfig month_;
  core::FleetMonthConfig check_month_;  ///< the drive check's short month
  std::vector<datacenter::DataCenter> sites_;
  std::vector<market::PricingPolicy> policies_;
  std::vector<core::Region> regions_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<core::FleetController> controller_;
};

// ---- serve_month -----------------------------------------------------------

/// ServeLoop over the whole month at 6 ticks an hour with a checkpoint at
/// every tick, under serve_soak's flash crowd, feed burst, feed outage and
/// site outage, and its kill storm resumed in-process.
class ServeMonth : public Workload {
 public:
  static constexpr std::size_t kHours = 720;
  static constexpr std::size_t kTicksPerHour = 6;
  /// The daemon's plans are not exposed per tick, so the hour is checked
  /// on its ground-truth bill, which runs up to ~0.03 % over the planned
  /// cost (integer server counts against the continuous plan). Hours
  /// planned on a stale market feed are exempt: their plan believed older
  /// prices, and the real ones bill up to ~20 % higher.
  static constexpr double kServeBillSlack = 1e-3;

  ServeMonth(std::uint64_t seed, std::string dir)
      : dir_(std::move(dir)), path_(dir_ + "/serve.ck") {
    const auto at = [](double frac) {
      return static_cast<std::size_t>(frac * static_cast<double>(kHours));
    };
    config_.seed = seed;
    config_.monthly_budget = kMonthlyBudget;
    config_.premium_share = 0.3;
    config_.fault_plan.flash_crowds.push_back({at(0.20), at(0.35) - at(0.20), 2.0});
    config_.fault_plan.feed_bursts.push_back({at(0.15), at(0.30) - at(0.15), 4});
    config_.fault_plan.stale_intervals.push_back({at(0.40), at(0.55) - at(0.40)});
    config_.fault_plan.outages.push_back({1, at(0.60), at(0.72) - at(0.60)});

    serve_.ticks_per_hour = kTicksPerHour;
    serve_.horizon_hours = kHours;
    serve_.premium_queue_ticks = 8.0;
    serve_.ordinary_queue_ticks = 6.0;
    serve_.feed_queue_capacity = 16;
    serve_.feed_updates_per_tick = 2;
    serve_.admission.stale_ticks_tolerated = 8;
    reference_ = serve_;
    const std::size_t ticks = kHours * kTicksPerHour;
    const std::size_t storm = ticks / 2;
    serve_.kill_at_ticks = {ticks / 10, ticks / 4, storm, storm, storm,
                            (3 * ticks) / 4, ticks - 2};
  }

  void setup() override {
    const std::int64_t t0 = trace::now_ns();
    sim_ = std::make_unique<core::Simulator>(config_);
    world_ms = ms_since(t0);
    const std::int64_t t1 = trace::now_ns();
    loop_ = std::make_unique<serve::ServeLoop>(*sim_, serve_);
    std::filesystem::create_directories(dir_);
    clear();
    controller_ms = ms_since(t1);
  }

  PassResult run_pass() override {
    clear();
    StepClock clock;
    std::size_t degraded = 0;
    std::size_t violations = 0;
    std::size_t hour = 0;
    double hour_cost = 0.0;
    double hour_budget = 0.0;
    bool exempt_hour = false;  // premium-only or planned on a stale feed
    const auto close_hour = [&] {
      if (!exempt_hour && hour_cost > hour_budget * (1.0 + kServeBillSlack))
        ++violations;
    };
    const auto on_tick = [&](const serve::TickRecord& rec) {
      clock.mark();
      if (rec.hour != hour) {
        close_hour();
        hour = rec.hour;
        hour_cost = 0.0;
        exempt_hour = false;
      }
      hour_cost += rec.cost;
      hour_budget = rec.hour_budget;
      exempt_hour = exempt_hour || rec.stale ||
                    rec.admission == serve::AdmissionLevel::kPremiumOnly;
      if (rec.plan_held || rec.replan_degraded ||
          rec.admission != serve::AdmissionLevel::kAdmitAll)
        ++degraded;
    };
    serve::ServeLoop::Controls controls;
    controls.keep_generations = 2;
    clock.start();
    serve::ServeOutcome out = loop_->run(path_, false, on_tick, controls);
    std::size_t kills = 0;
    while (out.crashed && kills < 64) {
      ++kills;
      out = loop_->run(path_, true, on_tick, controls);
    }
    close_hour();
    PassResult p = summarize(out.report);
    p.step_ms = clock.finish();
    p.degraded = degraded;
    p.budget_violations = violations;
    p.deaths_resumed = kills;
    p.deaths_expected = serve_.kill_at_ticks.size();
    return p;
  }

  std::size_t repetitions() const override { return 10; }

  std::vector<Entry> expected_entries() const override {
    return {Entry::kJournalSaveAtomic, Entry::kFsync,
            Entry::kJournalLoad,       Entry::kDecideWithOptions,
            Entry::kArenaSolve,        Entry::kFallbackAllocate,
            Entry::kHourlyBudget,      Entry::kFeedPoll,
            Entry::kEvaluateAllocation};
  }

  void traced_checks(const PassResult& traced, RunResult& result) override;

 private:
  void clear() {
    for (std::size_t g = 0; g < 2; ++g) {
      const std::string gen = util::Journal::generation_path(path_, g);
      std::filesystem::remove(gen);
      std::filesystem::remove(gen + ".tmp");
    }
  }

  PassResult summarize(const serve::ServeReport& r) const {
    PassResult p;
    p.steps_expected = kHours * kTicksPerHour;
    p.steps_committed = r.ticks_committed;
    p.decisions = r.ticks_committed;
    p.premium_arrivals = r.total_premium_arrivals;
    p.premium_served = r.total_served_premium;
    p.ordinary_arrivals = r.total_ordinary_arrivals;
    p.ordinary_served = r.total_served_ordinary;
    p.bill_usd = r.total_cost;
    p.premium_qos_ok = r.premium_qos_ok();
    p.digest = bits(r.total_cost) + bits(r.total_served_premium) +
               bits(r.total_served_ordinary) + bits(r.dropped_premium) +
               bits(r.dropped_ordinary) + ":" + std::to_string(r.ticks_committed) +
               ":" + std::to_string(r.replans) + ":" +
               std::to_string(r.shed_ticks) + ":" +
               std::to_string(r.health_transitions);
    p.counts["replans"] = static_cast<double>(r.replans);
    p.counts["shed_ticks"] = static_cast<double>(r.shed_ticks);
    p.counts["breaker_trips"] = static_cast<double>(r.breaker_trips);
    p.counts["dropped_ordinary"] = r.dropped_ordinary;
    return p;
  }

  PassResult reference_pass() const {
    // The uninterrupted reference: the same month without the kill storm.
    const serve::ServeLoop reference(*sim_, reference_);
    return summarize(reference.run("", false).report);
  }

  std::string dir_;
  std::string path_;
  core::SimulationConfig config_;
  serve::ServeConfig serve_;
  serve::ServeConfig reference_;  ///< serve_ without the kill storm
  std::unique_ptr<core::Simulator> sim_;
  std::unique_ptr<serve::ServeLoop> loop_;
};

// ---- measurement -----------------------------------------------------------

std::unique_ptr<Workload> make_workload(const RunOptions& options) {
  if (options.workload == "durable_month")
    return std::make_unique<DurableMonth>(options.seed, options.work_dir);
  if (options.workload == "closed_month")
    return std::make_unique<ClosedMonth>(options.seed);
  if (options.workload == "fleet_month")
    return std::make_unique<FleetMonth>(options.seed);
  if (options.workload == "serve_month")
    return std::make_unique<ServeMonth>(options.seed, options.work_dir);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

/// Peak resident set of this process image. VmHWM, not ru_maxrss: the
/// latter survives exec and would report the launching process's peak.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

std::string filesystem_of(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

/// Output checks every pass must meet.
void check_pass(const std::string& name, const PassResult& p, RunResult& r) {
  const auto fail = [&](const std::string& what) {
    r.errors.push_back(name + ": " + what);
  };
  if (p.steps_committed != p.steps_expected)
    fail("committed " + std::to_string(p.steps_committed) + " of " +
         std::to_string(p.steps_expected) + " steps");
  if (p.step_ms.size() != p.steps_expected)
    fail("timed " + std::to_string(p.step_ms.size()) + " steps");
  if (p.deaths_resumed != p.deaths_expected)
    fail("resumed " + std::to_string(p.deaths_resumed) + " of " +
         std::to_string(p.deaths_expected) + " injected deaths");
  if (!p.premium_qos_ok) fail("premium QoS broken");
  if (p.budget_violations > 0)
    fail(std::to_string(p.budget_violations) +
         " hours over budget outside premium-only mode");
}

/// Set-up times, in batches spread over the run, each set-up pinned to the
/// next CPU of the process's affinity set. On a shared host one vCPU can
/// run 20-40 % slower than another for as long as a run lasts, and a
/// process tends to stay on one: unpinned, the median set-up of a
/// durable_month run landed on one of two levels about 30 % apart.
class Setups {
 public:
  Setups() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
  }

  void time(Workload& w, std::size_t repeats) {
    for (std::size_t k = 0; k < repeats; ++k) {
      if (!cpus_.empty()) pin(cpus_[next_++ % cpus_.size()]);
      w.setup();
      world_ms.push_back(w.world_ms);
      controller_ms.push_back(w.controller_ms);
      total_s.push_back((w.world_ms + w.controller_ms) * 1e-3);
    }
    // Passes run unpinned, on a controller (and, for the fleet, a pool of
    // threads) built with the whole affinity set.
    pin(-1);
    w.setup();
  }

  std::vector<double> total_s, world_ms, controller_ms;

 private:
  /// Pins the calling thread to `cpu`, or back to the whole set for -1.
  void pin(int cpu) const {
    cpu_set_t one;
    CPU_ZERO(&one);
    if (cpu >= 0) CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(cpu_set_t), cpu >= 0 ? &one : &all_);
  }

  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Per-layer figures from one traced pass's spans.
class LayerReport {
 public:
  /// `step_ms`: every step of the passes the spans were recorded in.
  LayerReport(std::vector<trace::Span> spans, const std::vector<double>& step_ms)
      : spans_(std::move(spans)),
        steps_(static_cast<double>(step_ms.size())),
        step_total_ms_(sum(step_ms)) {
    std::vector<SpanTimes> times;
    times.reserve(spans_.size());
    for (const auto& s : spans_) times.push_back(s.times);
    tree_ = nest_spans(times);
  }

  std::size_t count(Entry e) const {
    return static_cast<std::size_t>(std::count_if(
        spans_.begin(), spans_.end(), [e](const auto& s) { return s.entry == e; }));
  }
  /// Durations (ms) of the spans of `group` that no other span of `group`
  /// encloses.
  std::vector<double> outer_ms(std::initializer_list<Entry> group) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (in(group, spans_[i].entry) && !has_ancestor_in(i, group))
        out.push_back(duration_ms(i));
    return out;
  }
  std::vector<double> self_ms(Entry e) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].entry == e)
        out.push_back(static_cast<double>(tree_.self_ns[i]) * 1e-6);
    return out;
  }
  double payload_sum(Entry e, double trace::Span::*field) const {
    double s = 0.0;
    for (const auto& span : spans_)
      if (span.entry == e) s += span.*field;
    return s;
  }
  /// Share of step time covered by the outermost spans of `group`.
  double share(std::initializer_list<Entry> group) const {
    return step_total_ms_ > 0.0 ? sum(outer_ms(group)) / step_total_ms_ : 0.0;
  }
  /// Share of step time no span covers.
  double unattributed() const {
    double covered = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (tree_.parent[i] < 0) covered += duration_ms(i);
    return step_total_ms_ > 0.0 ? 1.0 - covered / step_total_ms_ : 0.0;
  }
  /// For each span of `outer`, the longest span of `inner` inside it (on
  /// any thread): the straggler chunk of each fleet hour.
  std::vector<double> longest_inside(Entry outer, Entry inner) const {
    std::vector<const trace::Span*> inners;
    for (const auto& s : spans_)
      if (s.entry == inner) inners.push_back(&s);
    std::vector<double> out;
    for (const auto& o : spans_) {
      if (o.entry != outer) continue;
      double longest = 0.0;
      for (const trace::Span* s : inners)
        if (s->times.start_ns >= o.times.start_ns && s->times.end_ns <= o.times.end_ns)
          longest = std::max(longest, span_ms(*s));
      out.push_back(longest);
    }
    return out;
  }
  double per_step(double n) const { return steps_ > 0.0 ? n / steps_ : 0.0; }

 private:
  static bool in(std::initializer_list<Entry> group, Entry e) {
    return std::find(group.begin(), group.end(), e) != group.end();
  }
  bool has_ancestor_in(std::size_t i, std::initializer_list<Entry> group) const {
    for (long p = tree_.parent[i]; p >= 0; p = tree_.parent[static_cast<std::size_t>(p)])
      if (in(group, spans_[static_cast<std::size_t>(p)].entry)) return true;
    return false;
  }
  static double span_ms(const trace::Span& s) {
    return static_cast<double>(s.times.end_ns - s.times.start_ns) * 1e-6;
  }
  double duration_ms(std::size_t i) const { return span_ms(spans_[i]); }

  std::vector<trace::Span> spans_;
  SpanTree tree_;
  double steps_;
  double step_total_ms_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void add_layer_metrics(const LayerReport& L, std::vector<Metric>& m,
                       std::vector<std::string>& errors) {
  const auto put = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  const auto p50 = [](const std::vector<double>& v) { return percentile(v, 0.5); };
  // A p98 of a layer the workload calls must have ten samples beyond it.
  const auto p98 = [&errors](const std::vector<double>& v, const char* name) {
    if (!v.empty() && !percentile_supported(v.size(), 0.98))
      errors.push_back(std::string(name) + ": " + std::to_string(v.size()) +
                       " samples are too few for a p98");
    return percentile(v, 0.98);
  };
  const auto us = [](std::vector<double> v) {
    for (double& x : v) x *= 1e3;
    return v;
  };
  const auto n = [&L](Entry e) { return static_cast<double>(L.count(e)); };
  const auto total = [&L](Entry e, double trace::Span::*field) {
    return L.payload_sum(e, field);
  };
  using S = trace::Span;

  // core checkpoint and util journal
  const std::vector<double> commits =
      L.outer_ms({Entry::kSaveCheckpointRotated, Entry::kJournalSaveAtomic});
  put("checkpoint.commit_ms_p50", p50(commits), "ms");
  put("checkpoint.commit_ms_p98", p98(commits, "checkpoint.commit_ms_p98"), "ms");
  put("checkpoint.encode_ms_p50", p50(L.self_ms(Entry::kSaveCheckpointRotated)), "ms");
  put("journal.write_ms_p50", p50(L.outer_ms({Entry::kJournalSaveAtomic})), "ms");
  put("checkpoint.bytes_per_commit",
      ratio(total(Entry::kJournalSaveAtomic, &S::a), n(Entry::kJournalSaveAtomic)), "B");
  put("checkpoint.fsyncs_per_commit",
      ratio(n(Entry::kFsync), static_cast<double>(commits.size())), "count");
  put("checkpoint.load_ms_p50",
      p50(L.outer_ms({Entry::kLoadCheckpointFallback, Entry::kJournalLoad})), "ms");
  put("checkpoint.share",
      L.share({Entry::kSaveCheckpointRotated, Entry::kJournalSaveAtomic,
               Entry::kLoadCheckpointFallback, Entry::kJournalLoad, Entry::kFsync}),
      "frac");

  // lp
  const std::vector<double> solves = us(L.outer_ms({Entry::kArenaSolve}));
  const double n_solves = static_cast<double>(solves.size());
  put("lp.solve_us_p50", p50(solves), "us");
  put("lp.solve_us_p98", p98(solves, "lp.solve_us_p98"), "us");
  put("lp.solves_per_step", L.per_step(n_solves), "count");
  put("lp.pivots_per_solve", ratio(total(Entry::kArenaSolve, &S::a), n_solves), "count");
  put("lp.nodes_per_solve", ratio(total(Entry::kArenaSolve, &S::b), n_solves), "count");
  put("lp.warm_fallback_frac",
      ratio(total(Entry::kArenaSolve, &S::c), total(Entry::kArenaSolve, &S::d)), "frac");
  put("lp.share", L.share({Entry::kArenaSolve}), "frac");

  // market and the core coupler
  put("dcopf.solves_per_step", L.per_step(n(Entry::kSolveDcopf)), "count");
  put("dcopf.solve_us_p50", p50(us(L.outer_ms({Entry::kSolveDcopf}))), "us");
  put("market.derive_ms_p50", p50(L.outer_ms({Entry::kDeriveLocalPolicies})), "ms");
  put("market.share",
      L.share({Entry::kDeriveLocalPolicies, Entry::kSolveDcopf, Entry::kSolveLp}),
      "frac");
  put("coupler.iters_per_step", L.per_step(total(Entry::kPlanHour, &S::a)), "count");
  put("coupler.plan_ms_p50", p50(L.outer_ms({Entry::kPlanHour})), "ms");
  put("coupler.open_loop_frac",
      ratio(total(Entry::kPlanHour, &S::b), n(Entry::kPlanHour)), "frac");

  // core hour pipeline
  const std::vector<double> decides =
      L.outer_ms({Entry::kDecide, Entry::kDecideWithOptions});
  put("capper.decide_ms_p50", p50(decides), "ms");
  put("capper.decides_per_step", L.per_step(static_cast<double>(decides.size())),
      "count");
  put("capper.share", L.share({Entry::kDecide, Entry::kDecideWithOptions}), "frac");
  put("fallback.calls_per_step", L.per_step(n(Entry::kFallbackAllocate)), "count");
  put("fallback.us_p50", p50(us(L.outer_ms({Entry::kFallbackAllocate}))), "us");
  put("budgeter.us_p50", p50(us(L.outer_ms({Entry::kHourlyBudget}))), "us");
  put("feed.polls_per_step", L.per_step(n(Entry::kFeedPoll)), "count");
  put("billing.us_p50", p50(us(L.outer_ms({Entry::kEvaluateAllocation}))), "us");

  // core fleet and util thread pool: the chunk decides inside each hour
  const bool fleet = n(Entry::kDecideHour) > 0.0;
  put("fleet.chunk_ms_p50", fleet ? p50(decides) : 0.0, "ms");
  put("fleet.straggler_ms_p50",
      fleet ? p50(L.longest_inside(Entry::kDecideHour, Entry::kDecideWithOptions))
            : 0.0,
      "ms");
  put("fleet.degraded_chunks_per_step",
      L.per_step(total(Entry::kDecideHour, &S::a) + total(Entry::kDecideHour, &S::b)),
      "count");
  put("unattributed.share", L.unattributed(), "frac");
}

double metric(const std::vector<Metric>& m, const std::string& name) {
  for (const Metric& x : m)
    if (x.name == name) return x.value;
  return 0.0;
}

void set_metric(std::vector<Metric>& m, const std::string& name, double value,
                const std::string& unit) {
  for (Metric& x : m)
    if (x.name == name) {
      x.value = value;
      x.unit = unit;
      return;
    }
  m.push_back({name, value, unit});
}

void run_untraced(Workload& w, const RunOptions& options, RunResult& r) {
  Setups setups;
  std::vector<PassResult> passes;
  double rss_mb = 0.0;
  const std::int64_t start = trace::now_ns();
  // A fixed number of months; --seconds only caps a run that overruns it
  // by far, so a hang or a pathological slowdown fails with a message.
  const double cap_s = kOverrunFactor * options.seconds;
  while (passes.size() < w.repetitions()) {
    setups.time(w, kSetupsPerPass);
    passes.push_back(w.run_pass());
    // The peak of set-up plus one month; later repetitions only add
    // allocator noise to it.
    if (passes.size() == 1) rss_mb = peak_rss_mb();
    const double elapsed = ms_since(start) * 1e-3;
    if (passes.size() < w.repetitions() && elapsed > cap_s) {
      r.errors.push_back(options.workload + ": " + std::to_string(passes.size()) +
                         " of " + std::to_string(w.repetitions()) +
                         " repetitions took " + std::to_string(elapsed) +
                         " s, over the cap of " + std::to_string(cap_s) + " s");
      return;
    }
  }
  std::vector<std::vector<double>> reps;
  for (const PassResult& p : passes) {
    check_pass(options.workload, p, r);
    if (p.digest != passes.front().digest)
      r.errors.push_back(options.workload + ": repetitions disagree bitwise");
    reps.push_back(p.step_ms);
    r.attempted += p.steps_expected;
    r.failed += p.steps_expected - std::min(p.steps_expected, p.steps_committed);
  }
  if (!r.errors.empty()) return;
  w.drive_checks(passes.front(), r);
  if (!r.errors.empty()) return;
  const std::vector<double> best = per_step_min(reps);
  if (!percentile_supported(best.size(), 0.98))
    r.errors.push_back(options.workload + ": too few steps for a p98");
  const PassResult& p = passes.front();
  auto& m = r.metrics;
  m.push_back({"setup_s", percentile(setups.total_s, 0.5), "s"});
  m.push_back({"steps_per_s", steps_per_s(best.size(), sum(best) * 1e-3), "1/s"});
  m.push_back({"step_ms_p50", percentile(best, 0.5), "ms"});
  m.push_back({"step_ms_p98", percentile(best, 0.98), "ms"});
  m.push_back({"peak_rss_mb", rss_mb, "MiB"});
  m.push_back({"degraded_frac", degraded_frac(p.degraded, p.decisions), "frac"});
  m.push_back({"premium_served_frac", p.premium_served / p.premium_arrivals, "frac"});
  m.push_back({"ordinary_served_frac", p.ordinary_served / p.ordinary_arrivals, "frac"});
  m.push_back({"bill_usd", p.bill_usd, "USD"});
  r.meta.push_back({"repetitions", std::to_string(passes.size())});
  r.meta.push_back({"steps_per_repetition", std::to_string(best.size())});
}

void FleetMonth::traced_checks(const PassResult& traced, RunResult& result) {
  // Shares come from a serial pass, where every span sits on the thread
  // whose step time is the denominator. Parallel efficiency is the serial
  // time over workers times the threaded time.
  trace::enable(true);
  const PassResult serial = run_with(month_, nullptr);
  trace::enable(false);
  std::vector<Metric> serial_metrics;
  add_layer_metrics(LayerReport(trace::drain(), serial.step_ms), serial_metrics,
                    result.errors);
  for (const Metric& x : serial_metrics)
    if (x.name.size() > 6 && x.name.substr(x.name.size() - 6) == ".share")
      set_metric(result.metrics, x.name, x.value, x.unit);
  set_metric(result.metrics, "pool.parallel_efficiency",
             sum(serial.step_ms) /
                 (static_cast<double>(kFleetWorkers) * sum(traced.step_ms)),
             "frac");

  // The threaded month and the same month serially must render the same
  // fleet_month_csv.
  if (traced.digest != serial.digest)
    result.errors.push_back("fleet_month: threaded digest differs from serial");
}

void ServeMonth::traced_checks(const PassResult& traced, RunResult& result) {
  if (reference_pass().digest != traced.digest)
    result.errors.push_back(
        "serve_month: kill-and-resume aggregates differ from the "
        "uninterrupted reference");
  const auto count = [&traced](const char* key) { return traced.counts.at(key); };
  const double ticks = static_cast<double>(traced.steps_expected);
  auto& m = result.metrics;
  set_metric(m, "serve.replans_per_tick", count("replans") / ticks, "count");
  // Every decide call of the daemon is a re-plan.
  set_metric(m, "serve.replan_ms_p50", metric(m, "capper.decide_ms_p50"), "ms");
  set_metric(m, "serve.shed_tick_frac", count("shed_ticks") / ticks, "frac");
  set_metric(m, "serve.breaker_trips", count("breaker_trips"), "count");
  set_metric(m, "serve.ordinary_drop_frac",
             count("dropped_ordinary") / traced.ordinary_arrivals, "frac");
}

void run_traced(Workload& w, const RunOptions& options, RunResult& r) {
  Setups setups;
  setups.time(w, kSetupsPerPass);
  // Untraced and traced passes alternate; each side keeps its per-step
  // best, and the spans of both traced passes feed the layer figures.
  std::vector<PassResult> plain, traced;
  std::vector<trace::Span> spans;
  std::vector<double> traced_steps;
  for (int i = 0; i < 2; ++i) {
    trace::enable(false);
    plain.push_back(w.run_pass());
    trace::enable(true);
    traced.push_back(w.run_pass());
    trace::enable(false);
    std::vector<trace::Span> pass_spans = trace::drain();
    spans.insert(spans.end(), pass_spans.begin(), pass_spans.end());
    traced_steps.insert(traced_steps.end(), traced.back().step_ms.begin(),
                        traced.back().step_ms.end());
  }
  std::vector<std::vector<double>> plain_reps, traced_reps;
  for (const auto* side : {&plain, &traced})
    for (const PassResult& p : *side) {
      check_pass(options.workload, p, r);
      if (p.digest != plain.front().digest)
        r.errors.push_back(options.workload + ": traced pass changed the outputs");
      (side == &plain ? plain_reps : traced_reps).push_back(p.step_ms);
      r.attempted += p.steps_expected;
      r.failed += p.steps_expected - std::min(p.steps_expected, p.steps_committed);
    }
  if (!r.errors.empty()) return;
  const LayerReport layers(std::move(spans), traced_steps);

  // Interposition guard: a mangled name that stopped matching records no
  // calls, which must fail the run rather than read as a 0 % layer.
  for (const Entry e : w.expected_entries())
    if (layers.count(e) == 0)
      r.errors.push_back(options.workload + ": no calls recorded into " +
                         trace::entry_name(e));

  auto& m = r.metrics;
  add_layer_metrics(layers, m, r.errors);
  // Layers one workload has alone; its traced_checks fills them in.
  const std::pair<const char*, const char*> one_workload[] = {
      {"serve.replans_per_tick", "count"}, {"serve.replan_ms_p50", "ms"},
      {"serve.shed_tick_frac", "frac"},    {"serve.breaker_trips", "count"},
      {"serve.ordinary_drop_frac", "frac"}, {"pool.parallel_efficiency", "frac"}};
  for (const auto& [name, unit] : one_workload) set_metric(m, name, 0.0, unit);
  set_metric(m, "setup.world_ms", percentile(setups.world_ms, 0.5), "ms");
  set_metric(m, "setup.controller_ms", percentile(setups.controller_ms, 0.5), "ms");
  const std::vector<double> plain_best = per_step_min(plain_reps);
  const std::vector<double> traced_best = per_step_min(traced_reps);
  const double plain_sps = steps_per_s(plain_best.size(), sum(plain_best) * 1e-3);
  const double traced_sps = steps_per_s(traced_best.size(), sum(traced_best) * 1e-3);
  set_metric(m, "trace.steps_per_s", traced_sps, "1/s");
  set_metric(m, "trace.untraced_steps_per_s", plain_sps, "1/s");
  set_metric(m, "trace.overhead_frac", 1.0 - ratio(traced_sps, plain_sps), "frac");
  w.drive_checks(traced.back(), r);
  w.traced_checks(traced.back(), r);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "durable_month", "closed_month", "fleet_month", "serve_month"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  std::unique_ptr<Workload> w = make_workload(options);
  RunResult r;
  std::filesystem::create_directories(options.work_dir);
  r.meta = {{"workload", options.workload},
            {"seed", std::to_string(options.seed)},
            {"nproc", std::to_string(std::thread::hardware_concurrency())},
            {"checkpoint_fs", filesystem_of(options.work_dir)},
            {"fleet_workers", std::to_string(kFleetWorkers)},
            {"traced", options.traced ? "1" : "0"}};
  if (options.traced)
    run_traced(*w, options, r);
  else
    run_untraced(*w, options, r);
  r.correct = r.errors.empty();
  return r;
}

}  // namespace perfbench
