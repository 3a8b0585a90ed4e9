#include "core/market_coupler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace billcap::core {

namespace {

constexpr double kActiveLambdaTol = 1e-6;

}  // namespace

const char* to_string(DampingMode mode) noexcept {
  switch (mode) {
    case DampingMode::kOff: return "off";
    case DampingMode::kLadder: return "ladder";
    case DampingMode::kFull: return "full";
  }
  return "unknown";
}

MarketCoupler::MarketCoupler(
    const std::vector<datacenter::DataCenter>& sites,
    const std::vector<market::PricingPolicy>& static_policies,
    OptimizerOptions optimizer, MarketCouplerOptions options)
    : sites_(sites),
      static_policies_(static_policies),
      options_(std::move(options)),
      market_(market::CoupledMarket::paper()),
      coupled_policies_(static_policies),
      coupled_capper_(sites_, coupled_policies_, optimizer),
      detector_(8, std::max(options_.loop.epsilon_mw, 0.5)),
      ladder_(options_.deescalate_after),
      breaker_(options_.breaker) {
  if (market_.num_sites() != sites_.size())
    throw std::invalid_argument(
        "MarketCoupler: site count does not match the coupled grid's load "
        "buses");
  sweep_cap_mw_.reserve(sites_.size());
  for (const auto& site : sites_)
    sweep_cap_mw_.push_back(site.power_mw(site.max_requests_per_hour()));
}

std::vector<double> MarketCoupler::physical_power(
    std::span<const double> lambda) const {
  std::vector<double> power(sites_.size(), 0.0);
  for (std::size_t i = 0; i < sites_.size() && i < lambda.size(); ++i)
    power[i] = lambda[i] > 0.0 ? sites_[i].power_mw(lambda[i]) : 0.0;
  return power;
}

std::vector<market::PricingPolicy> MarketCoupler::derive_curves(
    std::span<const double> power_mw, std::span<const double> demand_mw,
    const market::CoupledHourFaults& faults) const {
  return market_.derive_local_policies(power_mw, demand_mw, demand_mw,
                                       sweep_cap_mw_, options_.loop, &faults);
}

MarketCoupler::IterationResult MarketCoupler::iterate(
    const HourInputs& in, std::span<const double> planning_demand_mw,
    std::size_t rung) {
  static const DecideOptions kNoOverrides;
  const DecideOptions& ov = in.overrides ? *in.overrides : kNoOverrides;
  const std::size_t n = sites_.size();
  const market::ClosedLoopOptions& loop = options_.loop;

  detector_.reset();
  IterationResult res;

  // Seed the iteration at the last executed operating point (warm start);
  // a fresh month starts from a dark fleet.
  std::vector<double> p = (last_valid_ && last_power_mw_.size() == n)
                              ? last_power_mw_
                              : std::vector<double>(n, 0.0);
  std::vector<market::PricingPolicy> prev_curves;
  double trust = loop.trust_region_mw;

  for (std::size_t j = 0; j < loop.max_iters; ++j) {
    std::vector<market::PricingPolicy> curves =
        derive_curves(p, planning_demand_mw, in.faults);
    if (rung >= 1 && !prev_curves.empty()) {
      for (std::size_t i = 0; i < n; ++i)
        curves[i] =
            market::smooth_policy(curves[i], prev_curves[i],
                                  loop.smoothing_alpha);
    }
    // Swap the curve *contents* under the capper: it references
    // coupled_policies_, so no solver rebuild happens between iterations.
    coupled_policies_ = curves;
    CappingOutcome outcome = coupled_capper_.decide(
        in.premium, in.ordinary, in.true_demand_mw, in.budget, ov);
    std::vector<double> p_new =
        physical_power(outcome.allocation.lambda_vector());
    ++res.iterations;

    // Rung >= 2: trust-region clamp on the fed-back draw, halved every
    // iteration — the damped feedback signal is *forced* to settle within
    // ~log2(trust/epsilon) iterates even if the raw response keeps flipping.
    std::vector<double> p_next = p_new;
    if (rung >= 2) {
      for (std::size_t i = 0; i < n; ++i)
        p_next[i] = std::clamp(p_next[i], p[i] - trust, p[i] + trust);
      trust = std::max(trust * 0.5, loop.epsilon_mw * 0.5);
    }

    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      delta = std::max(delta, std::abs(p_next[i] - p[i]));
    // The detector watches the fed-back (damped) signal, and only below
    // rung 2: once the trust clamp is on, consecutive moves are bounded by
    // a geometrically shrinking trust radius, so the sequence is contractive
    // by construction and any apparent cycle is a transient of the clamp —
    // the hour either converges or exhausts the cap (kCouplerDiverged).
    const bool cycling = rung < 2 && detector_.push(p_next);

    if (delta <= loop.epsilon_mw) {
      if (rung >= 3 && last_valid_) outcome = apply_hysteresis(in, ov, outcome);
      res.outcome = std::move(outcome);
      res.converged = true;
      return res;
    }
    if (cycling) {
      res.oscillation = true;
      return res;
    }
    p = std::move(p_next);
    prev_curves = std::move(curves);
  }
  res.diverged = true;
  return res;
}

CappingOutcome MarketCoupler::apply_hysteresis(const HourInputs& in,
                                               const DecideOptions& ov,
                                               CappingOutcome outcome) {
  const std::size_t n = sites_.size();
  const std::vector<double> lambda = outcome.allocation.lambda_vector();
  if (last_active_.size() != n || lambda.size() != n) return outcome;

  bool powers_up_idle_site = false;
  for (std::size_t i = 0; i < n; ++i)
    if (lambda[i] > kActiveLambdaTol && !last_active_[i])
      powers_up_idle_site = true;
  if (!powers_up_idle_site) return outcome;

  // Stay-put candidate: the same decision restricted to last hour's active
  // sites (composed with any injected outage mask). Site switching must buy
  // a real predicted saving, or the fleet keeps its footprint — the flap
  // suppression of the ladder's top rung.
  std::vector<std::uint8_t> mask(n, 0);
  std::size_t active = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mask[i] = last_active_[i] &&
              (ov.site_available.empty() || ov.site_available[i] != 0);
    active += mask[i];
  }
  if (active == 0) return outcome;

  DecideOptions held = ov;
  held.site_available = mask;
  CappingOutcome stay = coupled_capper_.decide(
      in.premium, in.ordinary, in.true_demand_mw, in.budget, held);
  const bool serves_as_much =
      stay.served_premium + 1e-6 >= outcome.served_premium &&
      stay.served_ordinary + 1e-6 >= outcome.served_ordinary;
  const bool switch_not_worth_it =
      stay.allocation.predicted_cost <=
      outcome.allocation.predicted_cost * (1.0 + options_.loop.hysteresis_frac);
  if (!stay.degraded && serves_as_much && switch_not_worth_it) return stay;
  return outcome;
}

MarketCoupler::HourPlan MarketCoupler::plan_hour(
    const HourInputs& in, const BillCapper& static_capper) {
  static const DecideOptions kNoOverrides;
  const DecideOptions& ov = in.overrides ? *in.overrides : kNoOverrides;
  const std::size_t n = sites_.size();
  const std::span<const double> planning_d = ov.believed_demand_mw.empty()
                                                 ? in.true_demand_mw
                                                 : ov.believed_demand_mw;

  const auto open_loop_decide = [&] {
    return static_capper.decide(in.premium, in.ordinary, in.true_demand_mw,
                                in.budget, ov);
  };
  const auto commit_executed = [&](const CappingOutcome& outcome) {
    const std::vector<double> lambda = outcome.allocation.lambda_vector();
    last_power_mw_ = physical_power(lambda);
    last_active_.assign(n, 0);
    for (std::size_t i = 0; i < n && i < lambda.size(); ++i)
      last_active_[i] = lambda[i] > kActiveLambdaTol ? 1 : 0;
    last_valid_ = true;
  };

  HourPlan plan;
  if (!options_.plan_closed_loop) {
    // Open-loop arm: static curves plan, coupled billing still applies.
    plan.outcome = open_loop_decide();
    plan.fallback = false;
    commit_executed(plan.outcome);
    return plan;
  }

  breaker_.on_tick();
  plan.rung = ladder_.rung();
  if (!breaker_.allows_replan()) {
    // Divergence breaker open: the hour plans open-loop on the static
    // curves, no coupled attempt is made, and the cooldown keeps counting.
    plan.fallback = true;
    plan.outcome = open_loop_decide();
    commit_executed(plan.outcome);
    return plan;
  }

  std::size_t rung = 0;
  switch (options_.damping) {
    case DampingMode::kOff: rung = 0; break;
    case DampingMode::kLadder: rung = ladder_.rung(); break;
    case DampingMode::kFull: rung = market::DampingLadder::kMaxRung; break;
  }
  plan.rung = rung;

  IterationResult res;
  try {
    res = iterate(in, planning_d, rung);
  } catch (const std::exception&) {
    // A coupled solve blew up (OPF infeasible in a sweep, allocation beyond
    // a site's physics): the hour is troubled, the fallback serves it.
    res = IterationResult{};
    res.diverged = true;
  }
  const bool troubled = !res.converged;
  breaker_.on_replan(troubled);
  if (options_.damping == DampingMode::kLadder) ladder_.on_hour(troubled);

  plan.iterations = res.iterations;
  plan.oscillation = res.oscillation;
  plan.diverged = res.diverged;
  if (troubled) {
    plan.fallback = true;
    plan.outcome = open_loop_decide();
  } else {
    plan.closed_loop = true;
    plan.outcome = std::move(res.outcome);
  }
  commit_executed(plan.outcome);
  return plan;
}

GroundTruth MarketCoupler::bill(std::span<const double> lambda,
                                std::span<const double> true_demand_mw,
                                const market::CoupledHourFaults& faults) const {
  const std::size_t n = sites_.size();
  const std::vector<double> power = physical_power(lambda);
  const market::DcOpfResult opf = market_.solve_at(
      power, true_demand_mw, options_.loop.feedback_gain, &faults);
  if (!opf.ok())
    return evaluate_allocation(sites_, static_policies_, true_demand_mw,
                               lambda);
  std::vector<market::PricingPolicy> realized;
  realized.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    realized.push_back(market::PricingPolicy::flat(
        opf.lmp[static_cast<std::size_t>(market_.site_buses()[i])]));
  return evaluate_allocation(sites_, realized, true_demand_mw, lambda);
}

MarketCoupler::State MarketCoupler::state() const {
  State st;
  st.breaker = breaker_.snapshot();
  const market::DampingLadder::State ladder = ladder_.snapshot();
  st.rung = ladder.rung;
  st.clean_streak = ladder.clean_streak;
  st.last_valid = last_valid_;
  st.last_power_mw = last_power_mw_;
  st.last_active = last_active_;
  return st;
}

void MarketCoupler::restore(const State& st) {
  breaker_.restore(st.breaker);
  ladder_.restore({st.rung, st.clean_streak});
  last_valid_ = st.last_valid;
  last_power_mw_ = st.last_power_mw;
  last_active_ = st.last_active;
  detector_.reset();
}

}  // namespace billcap::core
