#include "core/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/baselines.hpp"
#include "core/checkpoint.hpp"
#include "datacenter/catalog.hpp"
#include "market/background_demand.hpp"
#include "util/calendar.hpp"
#include "workload/predictor.hpp"

namespace billcap::core {

const char* to_string(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::kCostCapping: return "CostCapping";
    case Strategy::kMinOnlyAvg: return "MinOnly(Avg)";
    case Strategy::kMinOnlyLow: return "MinOnly(Low)";
  }
  return "unknown";
}

double MonthlyResult::premium_throughput_ratio() const noexcept {
  return total_premium_arrivals > 0.0
             ? total_served_premium / total_premium_arrivals
             : 1.0;
}

double MonthlyResult::ordinary_throughput_ratio() const noexcept {
  return total_ordinary_arrivals > 0.0
             ? total_served_ordinary / total_ordinary_arrivals
             : 1.0;
}

double MonthlyResult::budget_utilization() const noexcept {
  return monthly_budget > 0.0 ? total_cost / monthly_budget : 0.0;
}

void MonthlyResult::accumulate(HourRecord&& rec) {
  total_cost += rec.cost;
  total_premium_arrivals += rec.premium_arrivals;
  total_ordinary_arrivals += rec.ordinary_arrivals;
  total_served_premium += rec.served_premium;
  total_served_ordinary += rec.served_ordinary;
  degraded_hours += rec.degraded ? 1 : 0;
  incumbent_hours += rec.used_incumbent ? 1 : 0;
  heuristic_hours += rec.used_heuristic ? 1 : 0;
  outage_hours += rec.sites_down > 0 ? 1 : 0;
  stale_hours += rec.stale_prices ? 1 : 0;
  if (rec.degraded)
    ++failure_tally[static_cast<std::size_t>(rec.failure)];
  feed_retry_attempts += static_cast<std::size_t>(rec.feed_attempts);
  feed_recovered_hours += rec.feed_recovered ? 1 : 0;
  closed_loop_hours += rec.coupler_converged ? 1 : 0;
  coupler_fallback_hours += rec.coupler_fallback ? 1 : 0;
  coupler_iterations += rec.coupler_iterations;
  hours.push_back(std::move(rec));
}

Simulator::Simulator(SimulationConfig config)
    : config_(std::move(config)),
      sites_(datacenter::paper_datacenters()),
      policies_(market::paper_policies(config_.policy_level)),
      budgeter_(1.0, std::vector<double>(168, 1.0 / 168.0), 1) /* replaced */ {
  if (config_.premium_share < 0.0 || config_.premium_share > 1.0)
    throw std::invalid_argument("Simulator: premium_share in [0,1] required");

  const workload::TwoMonthTrace traces =
      workload::paper_two_month_trace(config_.seed, config_.workload);
  history_ = traces.history;
  evaluation_ = traces.evaluation;
  if (config_.history_seed_offset != 0) {
    // Misprediction injection: the budgeter learns from a history month of
    // a different random world (same shape family, different realization).
    history_ = workload::paper_two_month_trace(
                   config_.seed + config_.history_seed_offset,
                   config_.workload)
                   .history;
  }

  // Background demand, phase-aligned with the trace: generate both months
  // and keep the evaluation slice.
  const std::size_t total_hours = history_.hours() + evaluation_.hours();
  const auto full_demand =
      market::paper_background_demand(total_hours, config_.seed ^ 0x9e3779b9);
  demand_.resize(full_demand.size());
  for (std::size_t s = 0; s < full_demand.size(); ++s) {
    demand_[s].assign(full_demand[s].begin() +
                          static_cast<std::ptrdiff_t>(history_.hours()),
                      full_demand[s].end());
  }
  if (demand_.size() != sites_.size())
    throw std::logic_error("Simulator: demand/site count mismatch");

  std::vector<double> weights;
  switch (config_.budget_weighting) {
    case BudgetWeighting::kHistory:
      weights = workload::hour_of_week_weights(history_.series(),
                                               config_.history_weeks);
      break;
    case BudgetWeighting::kUniform:
      weights.assign(util::kHoursPerWeek,
                     1.0 / static_cast<double>(util::kHoursPerWeek));
      break;
    case BudgetWeighting::kOracle: {
      // Perfect foresight: weights from the evaluation month itself. Its
      // phase starts where the history month ended, so prepend a history-
      // length zero pad is unnecessary — hour_of_week_weights assumes the
      // span starts at global hour 0, so rebuild with explicit slotting.
      std::vector<double> sums(util::kHoursPerWeek, 0.0);
      for (std::size_t h = 0; h < evaluation_.hours(); ++h)
        sums[util::hour_of_week(history_.hours() + h)] += evaluation_.at(h);
      double total = 0.0;
      for (double s : sums) total += s;
      for (double& s : sums) s /= total;
      weights = std::move(sums);
      break;
    }
  }
  budgeter_ = Budgeter(config_.monthly_budget, std::move(weights),
                       evaluation_.hours(),
                       util::hour_of_week(history_.hours()));

  // Fault schedule for the evaluation month: per fault kind, explicit plan
  // entries win over rate-driven generation (so `--crash-at` composes with
  // `--fault-stale-rate` instead of silencing it); both derive only from
  // the config, so a run is deterministic in (seed, plan/rates).
  if (config_.fault_rates.any())
    plan_ = generate_fault_plan(config_.fault_rates, evaluation_.hours(),
                                sites_.size(),
                                config_.seed ^ 0xfa0171737c0deULL);
  const FaultPlan& explicit_plan = config_.fault_plan;
  if (!explicit_plan.outages.empty()) plan_.outages = explicit_plan.outages;
  if (!explicit_plan.stale_intervals.empty())
    plan_.stale_intervals = explicit_plan.stale_intervals;
  if (!explicit_plan.demand_shocks.empty())
    plan_.demand_shocks = explicit_plan.demand_shocks;
  if (!explicit_plan.deadline_squeezes.empty())
    plan_.deadline_squeezes = explicit_plan.deadline_squeezes;
  if (!explicit_plan.crashes.empty()) plan_.crashes = explicit_plan.crashes;
  if (!explicit_plan.exit_storms.empty())
    plan_.exit_storms = explicit_plan.exit_storms;
  if (!explicit_plan.checkpoint_corruptions.empty())
    plan_.checkpoint_corruptions = explicit_plan.checkpoint_corruptions;
  if (!explicit_plan.flash_crowds.empty())
    plan_.flash_crowds = explicit_plan.flash_crowds;
  if (!explicit_plan.feed_bursts.empty())
    plan_.feed_bursts = explicit_plan.feed_bursts;
  if (!explicit_plan.region_outages.empty())
    plan_.region_outages = explicit_plan.region_outages;
  if (!explicit_plan.chunk_stalls.empty())
    plan_.chunk_stalls = explicit_plan.chunk_stalls;
  if (!explicit_plan.chunk_squeezes.empty())
    plan_.chunk_squeezes = explicit_plan.chunk_squeezes;
  if (!explicit_plan.line_outages.empty())
    plan_.line_outages = explicit_plan.line_outages;
  if (!explicit_plan.grid_demand_shocks.empty())
    plan_.grid_demand_shocks = explicit_plan.grid_demand_shocks;
  if (!explicit_plan.congestion_spikes.empty())
    plan_.congestion_spikes = explicit_plan.congestion_spikes;
  if (!plan_.empty())
    injector_ = FaultInjector(plan_, sites_.size(), evaluation_.hours());
}

MarketFeed Simulator::make_feed() const {
  return MarketFeed(&injector_, config_.market_feed,
                    config_.seed ^ 0x6d6172666565ULL);
}

std::unique_ptr<MarketCoupler> Simulator::make_coupler(
    Strategy strategy) const {
  if (!config_.market_coupler.enabled || strategy != Strategy::kCostCapping)
    return nullptr;
  return std::make_unique<MarketCoupler>(sites_, policies_, config_.optimizer,
                                         config_.market_coupler);
}

market::CoupledHourFaults Simulator::grid_faults_at(
    std::size_t fault_hour) const {
  market::CoupledHourFaults faults;
  if (!injector_.enabled() || !injector_.grid_faulted(fault_hour))
    return faults;
  faults.line_out.resize(injector_.grid_lines(), 0);
  faults.line_limit_factor.resize(injector_.grid_lines(), 1.0);
  for (std::size_t l = 0; l < injector_.grid_lines(); ++l) {
    faults.line_out[l] = injector_.line_out(l, fault_hour) ? 1 : 0;
    faults.line_limit_factor[l] = injector_.line_limit_factor(l, fault_hour);
  }
  faults.bus_demand_multiplier.resize(injector_.grid_buses(), 1.0);
  for (std::size_t b = 0; b < injector_.grid_buses(); ++b)
    faults.bus_demand_multiplier[b] =
        injector_.bus_demand_multiplier(b, fault_hour);
  return faults;
}

std::vector<double> Simulator::demand_at(std::size_t hour) const {
  std::vector<double> d;
  d.reserve(demand_.size());
  for (const auto& series : demand_) d.push_back(series.at(hour));
  return d;
}

void Simulator::apply_demand_shocks(std::vector<double>& demand,
                                    std::size_t fault_hour) const {
  for (std::size_t i = 0; i < demand.size(); ++i)
    demand[i] *= injector_.demand_multiplier(i, fault_hour);
}

HourOpening Simulator::open_hour(std::size_t hour, std::size_t fault_hour,
                                 double budget, const FeedObservation& feed,
                                 std::vector<double> raw_demand) const {
  // Ground-truth demand carries the hour's injected shocks; a down site
  // offers no capacity; a squeeze tightens every solve's node budget. A
  // feed that stayed stale plans against the frozen hour's demand while
  // billing uses today's.
  HourOpening open;
  open.budget = budget;
  open.feed = feed;
  open.truth_mw = raw_demand.empty() ? demand_at(hour) : std::move(raw_demand);
  apply_demand_shocks(open.truth_mw, fault_hour);
  if (feed.stale) {
    open.believed_mw =
        demand_at(std::min(feed.observed_hour, evaluation_.hours() - 1));
    apply_demand_shocks(open.believed_mw, feed.observed_hour);
  } else {
    open.believed_mw = open.truth_mw;
  }
  open.available.resize(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i)
    open.available[i] = injector_.site_available(i, fault_hour) ? 1 : 0;
  const long squeeze = injector_.solver_node_budget(fault_hour);
  if (squeeze > 0)
    open.squeeze_nodes = std::min(squeeze, config_.optimizer.milp.max_nodes);
  open.grid_faults = grid_faults_at(fault_hour);
  return open;
}

HourOpening Simulator::open_hour(const Budgeter& budgeter, double spent,
                                 MarketFeed& feed, std::size_t hour,
                                 std::size_t fault_hour,
                                 std::vector<double> raw_demand) const {
  // Without budget enforcement the capper still runs, but against an
  // unlimited budget: exactly step 1 (used for Figures 3 and 4).
  const double budget =
      config_.enforce_budget ? budgeter.hourly_budget(hour, spent) : 1e18;
  // The market-data client: passes a fresh feed through, re-polls a frozen
  // one with backoff.
  const FeedObservation observation = feed.poll(fault_hour);
  return open_hour(hour, fault_hour, budget, observation,
                   std::move(raw_demand));
}

HourRecord Simulator::run_hour(Strategy strategy, const BillCapper& capper,
                               MarketFeed& feed, MarketCoupler* coupler,
                               const Budgeter& budgeter, double spent,
                               std::size_t hour, std::size_t fault_hour,
                               double arrivals,
                               std::vector<double> raw_demand) const {
  const workload::PremiumSplit split(config_.premium_share);
  const double premium = split.premium(arrivals);
  const double ordinary = split.ordinary(arrivals);

  // Min-Only never budgets and never reads the feed.
  const HourOpening open =
      strategy == Strategy::kCostCapping
          ? open_hour(budgeter, spent, feed, hour, fault_hour,
                      std::move(raw_demand))
          : open_hour(hour, fault_hour, 0.0, FeedObservation{},
                      std::move(raw_demand));

  CappingOutcome outcome;
  MarketCoupler::HourPlan plan;
  if (strategy == Strategy::kCostCapping) {
    DecideOptions overrides;
    overrides.standby = config_.standby;
    overrides.site_available = open.available;
    if (open.squeeze_nodes > 0) overrides.max_nodes = open.squeeze_nodes;
    if (open.feed.stale) overrides.believed_demand_mw = open.believed_mw;
    if (coupler) {
      // Closed market loop: plan against re-derived coupled curves (inside
      // the fault envelope); the bill below then uses the LMPs the
      // realized draw itself produces — the fleet is a price maker on both
      // sides.
      MarketCoupler::HourInputs in;
      in.premium = premium;
      in.ordinary = ordinary;
      in.true_demand_mw = open.truth_mw;
      in.budget = open.budget;
      in.overrides = &overrides;
      in.faults = open.grid_faults;
      plan = coupler->plan_hour(in, capper);
      outcome = std::move(plan.outcome);
    } else {
      outcome = capper.decide(premium, ordinary, open.truth_mw, open.budget,
                              overrides);
    }
  } else {
    // Min-Only knows no budget and believes a flat price (a stale feed
    // cannot mislead it): it admits everything its believed models can
    // hold and sheds the rest like any dispatcher would. A site down this
    // hour has no capacity to offer.
    std::vector<SiteModel> believed = min_only_site_models(
        sites_, policies_,
        strategy == Strategy::kMinOnlyAvg ? MinOnlyPriceModel::kAverage
                                          : MinOnlyPriceModel::kLow);
    for (std::size_t i = 0; i < believed.size(); ++i)
      if (open.available[i] == 0) believed[i].lambda_max = 0.0;
    const double admitted = std::min(arrivals, system_capacity(believed));
    OptimizerOptions opts = config_.optimizer;
    if (open.squeeze_nodes > 0) opts.milp.max_nodes = open.squeeze_nodes;
    lp::ArenaSolver solver;
    outcome.allocation = minimize_cost_with_fallback(believed, admitted, opts,
                                                     solver, outcome);
    // Min-Only serves everything placed regardless of cost (Section
    // VII-C); capacity shedding drops ordinary traffic first.
    const double placed =
        outcome.used_heuristic
            ? std::min(admitted, outcome.allocation.total_lambda)
            : admitted;
    outcome.served_premium = std::min(premium, placed);
    outcome.served_ordinary =
        std::min(ordinary, placed - outcome.served_premium);
  }
  std::vector<double> lambda = outcome.allocation.lambda_vector();
  const GroundTruth truth =
      coupler ? coupler->bill(lambda, open.truth_mw, open.grid_faults)
              : evaluate_allocation(sites_, policies_, open.truth_mw, lambda);

  HourRecord rec;
  rec.hour = hour;
  rec.arrivals = arrivals;
  rec.premium_arrivals = premium;
  rec.ordinary_arrivals = ordinary;
  rec.served_premium = outcome.served_premium;
  rec.served_ordinary = outcome.served_ordinary;
  rec.hourly_budget = config_.enforce_budget ? outcome.hourly_budget : 0.0;
  rec.cost = truth.total_cost;
  rec.predicted_cost = outcome.allocation.predicted_cost;
  rec.mode = outcome.mode;
  rec.site_lambda = std::move(lambda);
  rec.site_power_mw.reserve(truth.sites.size());
  for (const auto& site : truth.sites)
    rec.site_power_mw.push_back(site.power.total_mw());
  rec.nodes = outcome.allocation.nodes;
  rec.degraded = outcome.degraded;
  rec.failure = outcome.failure;
  rec.used_incumbent = outcome.used_incumbent;
  rec.used_heuristic = outcome.used_heuristic;
  rec.sites_down = injector_.sites_down(fault_hour);
  rec.stale_prices = open.feed.stale;
  rec.feed_attempts = open.feed.attempts;
  rec.feed_recovered = open.feed.recovered;
  if (coupler) {
    // An oscillating/diverging coupled plan is a degraded hour even though
    // the open-loop fallback that actually served it solved cleanly; the
    // coupler's trouble is the root cause the tally should carry.
    if (plan.oscillation) {
      rec.degraded = true;
      rec.failure = FailureReason::kPriceOscillation;
    } else if (plan.diverged) {
      rec.degraded = true;
      rec.failure = FailureReason::kCouplerDiverged;
    }
    rec.coupler_iterations = plan.iterations;
    rec.coupler_converged = plan.closed_loop;
    rec.coupler_fallback = plan.fallback;
    rec.coupler_rung = plan.rung;
  }
  return rec;
}

std::vector<MonthlyResult> Simulator::run_months(std::size_t months) const {
  if (months == 0)
    throw std::invalid_argument("run_months: need at least one month");
  constexpr std::size_t kMonthHours = 30 * 24;
  const std::size_t lead = history_.hours();
  const std::size_t total = lead + months * kMonthHours;

  // Extending the generation window preserves the prefix (same RNG
  // stream), so month 0 reproduces run()'s evaluation month exactly.
  const workload::Trace full =
      workload::generate_wiki_trace(config_.workload, total, config_.seed);
  const auto full_demand =
      market::paper_background_demand(total, config_.seed ^ 0x9e3779b9);
  const BillCapper capper(sites_, policies_, config_.optimizer);
  MarketFeed feed = make_feed();
  const std::unique_ptr<MarketCoupler> coupler =
      make_coupler(Strategy::kCostCapping);

  std::vector<MonthlyResult> results;
  results.reserve(months);
  for (std::size_t m = 0; m < months; ++m) {
    const std::size_t start = lead + m * kMonthHours;
    const std::span<const double> trailing(full.series().data(), start);
    const Budgeter budgeter(
        config_.monthly_budget,
        workload::hour_of_week_weights(trailing, config_.history_weeks),
        kMonthHours, util::hour_of_week(start));

    MonthlyResult result;
    result.strategy = Strategy::kCostCapping;
    result.monthly_budget = config_.monthly_budget;
    result.hours.reserve(kMonthHours);
    double spent = 0.0;
    for (std::size_t h = 0; h < kMonthHours; ++h) {
      const std::size_t g = start + h;
      std::vector<double> d;
      d.reserve(full_demand.size());
      for (const auto& series : full_demand) d.push_back(series[g]);

      // Fault hours continue across months; the month-scoped plan only
      // covers month 0, later hours report fault-free.
      HourRecord rec = run_hour(Strategy::kCostCapping, capper, feed,
                                coupler.get(), budgeter, spent, h,
                                m * kMonthHours + h, full.at(g), std::move(d));
      spent += rec.cost;
      result.accumulate(std::move(rec));
    }
    results.push_back(std::move(result));
  }
  return results;
}

MonthlyResult Simulator::run(Strategy strategy) const {
  MonthlyResult result;
  result.strategy = strategy;
  result.monthly_budget = config_.monthly_budget;
  result.hours.reserve(evaluation_.hours());

  const BillCapper capper(sites_, policies_, config_.optimizer);
  MarketFeed feed = make_feed();
  const std::unique_ptr<MarketCoupler> coupler = make_coupler(strategy);
  double spent = 0.0;
  for (std::size_t hour = 0; hour < evaluation_.hours(); ++hour) {
    HourRecord rec = run_hour(strategy, capper, feed, coupler.get(),
                              budgeter_, spent, hour, hour,
                              evaluation_.at(hour));
    spent += rec.cost;
    result.accumulate(std::move(rec));
  }
  return result;
}

namespace {

/// Simulates bit rot in the newest commit (FaultPlan::CheckpointCorruption):
/// stomps the payload of the state log's last record, just before its
/// chain word, so that record fails its checksum and the resume must fall
/// back a record.
void corrupt_newest_record(const std::string& checkpoint_path) {
  std::fstream f(state_log_path(checkpoint_path),
                 std::ios::in | std::ios::out | std::ios::binary);
  if (!f) return;
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  f.seekp(size - 24);
  f << "<<bit-rot>>";
}

}  // namespace

Simulator::ResumableOutcome Simulator::run_resumable(
    Strategy strategy, const std::string& checkpoint_path, bool resume,
    const std::function<void(const HourRecord&)>& on_hour) const {
  return run_resumable(strategy, checkpoint_path, resume, on_hour,
                       ResumeControls{});
}

Simulator::ResumableOutcome Simulator::run_resumable(
    Strategy strategy, const std::string& checkpoint_path, bool resume,
    const std::function<void(const HourRecord&)>& on_hour,
    const ResumeControls& controls) const {
  if (checkpoint_path.empty())
    throw std::invalid_argument("run_resumable: checkpoint path required");
  const std::size_t gens = std::max<std::size_t>(1, controls.keep_generations);

  const std::uint64_t digest = checkpoint_digest(config_, strategy);
  ResumableOutcome out;
  CheckpointState st;
  bool loaded = false;
  if (resume && checkpoint_exists(checkpoint_path)) {
    // Walks back along the state log past records that fail their checksum
    // (each costs one replayed hour), at most gens - 1 of them; a head of
    // another configuration, or no viable record within reach, throws.
    CheckpointLoadReport report =
        load_checkpoint_fallback(checkpoint_path, gens, digest);
    st = std::move(report.state);
    out.resumed_generation = report.generation;
    out.resume_skipped = std::move(report.skipped);
    loaded = true;
  } else {
    st.config_digest = digest;
    st.strategy = strategy;
    st.partial.strategy = strategy;
    st.partial.monthly_budget = config_.monthly_budget;
    // A fresh month owns the path: with the older run's head gone, a kill
    // before this month's first commit leaves nothing to resume from.
    remove_checkpoint(checkpoint_path);
  }
  st.sites = sites_.size();

  const BillCapper capper(sites_, policies_, config_.optimizer);
  MarketFeed feed = make_feed();
  const std::unique_ptr<MarketCoupler> coupler = make_coupler(strategy);
  if (loaded) {
    feed.restore(st.feed);
    // Coupler trajectories (warm-start point, breaker clock, ladder rung)
    // must survive the kill for the resumed month to stay bit-identical.
    if (coupler) coupler->restore(st.coupler);
  } else {
    st.feed = feed.state();  // so a crash before the first commit persists
                             // the seeded stream, not a default-zero one
    if (coupler) st.coupler = coupler->state();
  }

  // Fault schedules, sorted by hour; the checkpointed counters are cursors
  // into them (entries consumed by earlier attempts never re-fire).
  std::vector<FaultPlan::ControllerCrash> crashes = plan_.crashes;
  std::sort(crashes.begin(), crashes.end(),
            [](const auto& a, const auto& b) { return a.hour < b.hour; });
  std::vector<FaultPlan::ExitStorm> storms = plan_.exit_storms;
  std::sort(storms.begin(), storms.end(),
            [](const auto& a, const auto& b) { return a.hour < b.hour; });
  std::vector<FaultPlan::CheckpointCorruption> corruptions =
      plan_.checkpoint_corruptions;
  std::sort(corruptions.begin(), corruptions.end(),
            [](const auto& a, const auto& b) { return a.hour < b.hour; });

  // st.storms_fired counts *deaths* consumed across all storm entries;
  // this maps it onto the entry the next death would belong to.
  struct StormPos {
    std::size_t index = 0;   ///< storms.size() = all storms drained
    std::size_t within = 0;  ///< deaths already consumed from that entry
  };
  const auto storm_at = [&storms](std::size_t deaths) {
    StormPos pos;
    for (pos.index = 0; pos.index < storms.size(); ++pos.index) {
      if (deaths < storms[pos.index].count) {
        pos.within = deaths;
        return pos;
      }
      deaths -= storms[pos.index].count;
    }
    return pos;
  };

  // Injected crashes and exit storms model defects in the primary decide
  // path; the degraded standby bypasses that path, so they do not fire.
  const bool standby = config_.standby;
  const auto save = [&](const CheckpointState& s) {
    save_checkpoint_rotated(checkpoint_path, s, gens);
  };

  out.resumed_from = st.next_hour;
  out.recoveries = st.crashes_fired;

  std::size_t committed_this_attempt = 0;
  st.partial.hours.reserve(evaluation_.hours());
  for (std::size_t hour = st.next_hour; hour < evaluation_.hours(); ++hour) {
    if ((controls.stop_flag && *controls.stop_flag) ||
        (controls.max_hours > 0 &&
         committed_this_attempt >= controls.max_hours)) {
      // Graceful stop between hours: the checkpoint already holds every
      // committed hour, nothing to flush.
      out.stopped = true;
      out.result = std::move(st.partial);
      return out;
    }

    const bool crash_now = !standby && st.crashes_fired < crashes.size() &&
                           crashes[st.crashes_fired].hour == hour;
    const bool crash_before_checkpoint =
        crash_now && crashes[st.crashes_fired].before_checkpoint;
    const bool storm_now = !standby &&
                           storm_at(st.storms_fired).index < storms.size() &&
                           storms[storm_at(st.storms_fired).index].hour == hour;
    const bool corrupt_now =
        st.corruptions_fired < corruptions.size() &&
        corruptions[st.corruptions_fired].hour == hour;

    HourRecord rec = run_hour(strategy, capper, feed, coupler.get(),
                              budgeter_, st.spent, hour, hour,
                              evaluation_.at(hour));

    if (storm_now) {
      // One exit-storm death: the process dies before this hour's
      // checkpoint commits, so the attempt made zero forward progress.
      // Only the consumed-death counter is re-persisted (on top of the
      // previous consistent state) so the storm eventually drains.
      ++st.storms_fired;
      save(st);
      out.crashed = true;
      out.crash_hour = hour;
      out.result = std::move(st.partial);
      return out;
    }

    if (crash_before_checkpoint) {
      // The process dies after computing the hour but before the hour's
      // checkpoint commits: the work is lost (the resume recomputes it).
      // Only the crash cursor is advanced — re-persisted on top of the
      // previous consistent state so the same entry cannot fire again.
      ++st.crashes_fired;
      save(st);
      out.crashed = true;
      out.crash_hour = hour;
      out.result = std::move(st.partial);
      return out;
    }

    if (corrupt_now) {
      // Storage fault at this hour's commit: its record will be stomped
      // right after it is written. First re-persist the *previous*
      // committed state carrying the advanced corruption cursor — it
      // becomes the record the resume falls back to, and without the
      // cursor the resume would replay this hour and re-corrupt itself
      // forever.
      ++st.corruptions_fired;
      save(st);
    }

    st.spent += rec.cost;
    st.next_hour = hour + 1;
    st.feed = feed.state();
    if (coupler) st.coupler = coupler->state();
    if (crash_now) ++st.crashes_fired;
    // Cursor snapping: a standby attempt walks past crash/storm hours
    // without consuming them; advance the cursors past everything at or
    // before the committed hour so a later primary attempt does not jam
    // on (or replay) entries for hours that already happened.
    while (st.crashes_fired < crashes.size() &&
           crashes[st.crashes_fired].hour < st.next_hour)
      ++st.crashes_fired;
    for (StormPos pos = storm_at(st.storms_fired);
         pos.index < storms.size() && storms[pos.index].hour < st.next_hour;
         pos = storm_at(st.storms_fired))
      st.storms_fired += storms[pos.index].count - pos.within;
    while (st.corruptions_fired < corruptions.size() &&
           corruptions[st.corruptions_fired].hour < st.next_hour)
      ++st.corruptions_fired;
    // Kept current on every commit so the persisted checkpoint (what the
    // supervisor and post-mortems read) carries the recovery count too.
    st.partial.crash_recoveries = st.crashes_fired + st.storms_fired;

    st.partial.accumulate(std::move(rec));
    // The observer (the CLI's streamed CSV row) runs BEFORE the hour's
    // checkpoint commits: an asynchronous kill between the two leaves an
    // extra row for an uncommitted hour, which the resume's
    // truncate-to-checkpoint pass recomputes and rewrites identically.
    // The opposite order would strand the CSV one committed row short.
    if (on_hour) on_hour(st.partial.hours.back());
    save(st);
    ++committed_this_attempt;

    if (corrupt_now) {
      corrupt_newest_record(checkpoint_path);
      out.crashed = true;
      out.crash_hour = hour;
      out.result = std::move(st.partial);
      return out;
    }

    if (crash_now) {
      // Dies right after the commit: the hour survives, the resume picks
      // up at the next one.
      out.crashed = true;
      out.crash_hour = hour;
      out.result = std::move(st.partial);
      return out;
    }
  }

  st.partial.crash_recoveries = st.crashes_fired + st.storms_fired;
  out.recoveries = st.crashes_fired;
  out.result = std::move(st.partial);
  return out;
}

}  // namespace billcap::core
