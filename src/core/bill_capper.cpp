#include "core/bill_capper.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/fallback_allocator.hpp"

namespace billcap::core {

const char* to_string(CappingOutcome::Mode mode) noexcept {
  switch (mode) {
    case CappingOutcome::Mode::kUncapped: return "uncapped";
    case CappingOutcome::Mode::kCapped: return "capped";
    case CappingOutcome::Mode::kPremiumOnly: return "premium_only";
  }
  return "unknown";
}

const char* to_string(FailureReason reason) noexcept {
  switch (reason) {
    case FailureReason::kNone: return "none";
    case FailureReason::kNodeLimit: return "node_limit";
    case FailureReason::kIterationLimit: return "iteration_limit";
    case FailureReason::kTimeLimit: return "time_limit";
    case FailureReason::kInfeasible: return "infeasible";
    case FailureReason::kUnbounded: return "unbounded";
    case FailureReason::kArenaExhausted: return "arena_exhausted";
    case FailureReason::kThrown: return "thrown";
    case FailureReason::kPriceOscillation: return "price_oscillation";
    case FailureReason::kCouplerDiverged: return "coupler_diverged";
  }
  return "unknown";
}

FailureReason failure_reason_from(lp::SolveStatus status) noexcept {
  switch (status) {
    case lp::SolveStatus::kOptimal: return FailureReason::kNone;
    case lp::SolveStatus::kNodeLimit: return FailureReason::kNodeLimit;
    case lp::SolveStatus::kIterationLimit:
      return FailureReason::kIterationLimit;
    case lp::SolveStatus::kInfeasible: return FailureReason::kInfeasible;
    case lp::SolveStatus::kUnbounded: return FailureReason::kUnbounded;
    case lp::SolveStatus::kArenaExhausted:
      return FailureReason::kArenaExhausted;
  }
  return FailureReason::kInfeasible;
}

namespace {

/// A believed model for a site that is down this hour: zero capacity, zero
/// draw, a trivial cost curve. The MILP keeps the site's variables but they
/// are pinned to zero; the greedy fallback skips it outright.
SiteModel down_site_model() {
  SiteModel model;
  model.lambda_max = 0.0;
  model.power_slope = 0.0;
  model.power_intercept_mw = 0.0;
  model.power_cap_mw = 0.0;
  model.cost_curve.breaks = {0.0, 1e-6};
  model.cost_curve.slopes = {0.0};
  model.cost_curve.intercepts = {0.0};
  return model;
}

/// Records a degradation; the first failure reason sticks (later steps may
/// degrade too, but the hour's root cause is what broke first).
void mark_degraded(CappingOutcome& out, lp::SolveStatus status) {
  out.degraded = true;
  if (out.failure == FailureReason::kNone)
    out.failure = failure_reason_from(status);
}

}  // namespace

AllocationResult minimize_cost_with_fallback(std::span<const SiteModel> models,
                                             double lambda_total,
                                             const OptimizerOptions& options,
                                             lp::ArenaSolver& solver,
                                             CappingOutcome& out) {
  AllocationResult allocation =
      minimize_cost_over_models(models, lambda_total, options, solver);
  if (allocation.ok()) return allocation;
  mark_degraded(out, allocation.status);
  // The rung flags describe the allocation actually served: a flag an
  // earlier, discarded rung set must not stay behind.
  out.used_incumbent = allocation.feasible;
  out.used_heuristic = !allocation.feasible;
  if (!allocation.feasible)
    allocation = fallback_allocate(
        models, FallbackRequest{lambda_total, 0.0, lp::kInfinity});
  return allocation;
}

BillCapper::BillCapper(const std::vector<datacenter::DataCenter>& sites,
                       const std::vector<market::PricingPolicy>& policies,
                       OptimizerOptions options)
    : sites_(sites), policies_(policies), options_(options) {
  if (sites_.size() != policies_.size())
    throw std::invalid_argument("BillCapper: one policy per site required");
  if (sites_.empty())
    throw std::invalid_argument("BillCapper: need at least one site");
}

CappingOutcome BillCapper::decide(double lambda_premium,
                                  double lambda_ordinary,
                                  std::span<const double> other_demand_mw,
                                  double hourly_budget) const {
  return decide(lambda_premium, lambda_ordinary, other_demand_mw,
                hourly_budget, DecideOptions{});
}

CappingOutcome BillCapper::decide(double lambda_premium,
                                  double lambda_ordinary,
                                  std::span<const double> other_demand_mw,
                                  double hourly_budget,
                                  const DecideOptions& overrides) const {
  if (lambda_premium < 0.0 || lambda_ordinary < 0.0)
    throw std::invalid_argument("BillCapper::decide: negative arrivals");
  if (other_demand_mw.size() != sites_.size())
    throw std::invalid_argument("BillCapper::decide: demand size mismatch");
  if (!overrides.site_available.empty() &&
      overrides.site_available.size() != sites_.size())
    throw std::invalid_argument(
        "BillCapper::decide: availability size mismatch");
  if (!overrides.believed_demand_mw.empty() &&
      overrides.believed_demand_mw.size() != sites_.size())
    throw std::invalid_argument(
        "BillCapper::decide: believed demand size mismatch");

  OptimizerOptions opts = options_;
  if (overrides.max_nodes >= 0) opts.milp.max_nodes = overrides.max_nodes;
  if (overrides.max_arena_bytes != 0)
    opts.milp.max_arena_bytes = overrides.max_arena_bytes;

  std::vector<SiteModel> models;
  models.reserve(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const bool up = overrides.site_available.empty() ||
                    overrides.site_available[i] != 0;
    if (!up) {
      models.push_back(down_site_model());
      continue;
    }
    const double believed = overrides.believed_demand_mw.empty()
                                ? other_demand_mw[i]
                                : overrides.believed_demand_mw[i];
    models.push_back(make_site_model(sites_[i], policies_[i], believed,
                                     opts.model_cooling_network));
  }

  CappingOutcome out;
  out.hourly_budget = hourly_budget;

  // The optimizer's affine power model under-counts the exact (integer
  // servers/switches) draw by a hair; solving against a slightly reduced
  // budget keeps the *billed* cost under the real budget instead of
  // grazing past it.
  const double solver_budget =
      std::max(0.0, hourly_budget - std::max(1.0, 0.002 * hourly_budget));

  // Physical admission: shed what no allocation could serve (ordinary
  // first, then premium — premium is sacrificed only to physics, never to
  // the budget).
  const double capacity = system_capacity(models);
  double premium = std::min(lambda_premium, capacity);
  double ordinary = std::min(lambda_ordinary, capacity - premium);
  out.dropped_capacity =
      (lambda_premium - premium) + (lambda_ordinary - ordinary);
  const double lambda_total = premium + ordinary;

  // Serves everything the allocation actually placed, premium first. Keeps
  // the outcome consistent when a heuristic placed marginally less than
  // asked.
  const auto serve_from = [&](const AllocationResult& allocation) {
    out.served_premium = std::min(premium, allocation.total_lambda);
    out.served_ordinary = std::min(
        ordinary, std::max(0.0, allocation.total_lambda - out.served_premium));
  };

  // Degraded standby: when the primary controller keeps dying, the
  // supervisor runs this path instead — no MILP at all (the defect may
  // live anywhere in the solve path), premium only, greedy placement.
  // The QoS guarantee survives; ordinary revenue is the price of uptime.
  if (overrides.standby) {
    out.degraded = true;
    out.used_heuristic = true;
    out.mode = CappingOutcome::Mode::kPremiumOnly;
    AllocationResult greedy = fallback_allocate(
        models, FallbackRequest{premium, 0.0, lp::kInfinity});
    out.served_premium = std::min(premium, greedy.total_lambda);
    out.served_ordinary = 0.0;
    out.allocation = std::move(greedy);
    return out;
  }

  // Step 1: cost minimization for the full (admitted) workload.
  // Degradation ladder: optimal -> limit-solve incumbent -> greedy.
  AllocationResult min_cost = minimize_cost_with_fallback(
      models, lambda_total, opts, min_cost_solver_, out);

  if (min_cost.predicted_cost <= solver_budget) {
    out.mode = CappingOutcome::Mode::kUncapped;
    if (out.used_heuristic) {
      serve_from(min_cost);
    } else {
      out.served_premium = premium;
      out.served_ordinary = ordinary;
    }
    out.allocation = std::move(min_cost);
    return out;
  }

  // Step 2: throughput maximization within the budget. An incumbent is
  // acceptable if it still covers the premium guarantee.
  AllocationResult capped = maximize_throughput_over_models(
      models, lambda_total, solver_budget, opts, throughput_solver_);
  if (capped.usable() && capped.total_lambda >= premium - 1e-6) {
    if (!capped.ok()) {
      mark_degraded(out, capped.status);
      // The rung flags describe the allocation actually served; a step-1
      // fallback that was then discarded must not leave its flag behind
      // (the rungs are exclusive per hour).
      out.used_incumbent = true;
      out.used_heuristic = false;
    }
    out.mode = CappingOutcome::Mode::kCapped;
    out.served_premium = premium;
    out.served_ordinary =
        std::min(ordinary, std::max(0.0, capped.total_lambda - premium));
    out.allocation = std::move(capped);
    return out;
  }
  if (!capped.usable()) {
    // The solver died outright: greedy water-filling serves premium
    // unconditionally and ordinary only while the budget lasts.
    mark_degraded(out, capped.status);
    out.used_heuristic = true;
    out.used_incumbent = false;
    AllocationResult greedy = fallback_allocate(
        models, FallbackRequest{premium, ordinary, solver_budget});
    out.mode = greedy.total_lambda > premium + 1e-6
                   ? CappingOutcome::Mode::kCapped
                   : CappingOutcome::Mode::kPremiumOnly;
    serve_from(greedy);
    out.allocation = std::move(greedy);
    return out;
  }

  // Budget cannot even cover premium: guarantee premium QoS at minimum
  // cost and accept the violation (Section V-B).
  AllocationResult premium_only = minimize_cost_with_fallback(
      models, premium, opts, premium_solver_, out);
  out.mode = CappingOutcome::Mode::kPremiumOnly;
  out.served_premium =
      out.used_heuristic ? std::min(premium, premium_only.total_lambda)
                         : premium;
  out.served_ordinary = 0.0;
  out.allocation = std::move(premium_only);
  return out;
}

}  // namespace billcap::core
