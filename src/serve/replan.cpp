#include "serve/replan.hpp"

#include <algorithm>

namespace billcap::serve {

namespace {

/// Clamps node_budget onto the options the engine's capper will use: the
/// per-tick deadline is a *node* budget so that a re-plan interrupted by a
/// kill replays to the same outcome bit-for-bit on resume.
core::OptimizerOptions budgeted(core::OptimizerOptions options,
                                long node_budget) {
  if (node_budget > 0)
    options.milp.max_nodes =
        std::min(options.milp.max_nodes, node_budget);
  return options;
}

}  // namespace

ReplanEngine::ReplanEngine(const std::vector<datacenter::DataCenter>& sites,
                           const std::vector<market::PricingPolicy>& policies,
                           core::OptimizerOptions options, long node_budget,
                           core::BreakerConfig breaker)
    : capper_(sites, policies, budgeted(options, node_budget)),
      breaker_(breaker) {}

bool ReplanEngine::replan(const Request& request, ActivePlan& plan) {
  if (!breaker_.allows_replan()) return false;

  core::DecideOptions overrides;
  overrides.site_available = request.site_available;

  const core::CappingOutcome outcome =
      capper_.decide(request.premium_rate, request.ordinary_rate,
                     request.demand_mw, request.hourly_budget, overrides);
  ++replans_;
  const bool degraded = outcome.degraded;
  if (degraded) ++degraded_replans_;
  breaker_.on_replan(degraded);

  // decide() always returns a servable allocation (its own degradation
  // ladder bottoms out at greedy water-filling), so every executed re-plan
  // replaces the active plan; the breaker decides whether the *next* one
  // gets to run at all.
  plan.valid = true;
  plan.degraded = degraded;
  plan.lambda = outcome.allocation.lambda_vector();
  plan.premium_rate = outcome.served_premium;
  plan.ordinary_rate = outcome.served_ordinary;
  plan.predicted_cost = outcome.allocation.predicted_cost;
  plan.plan_tick = request.tick;
  return true;
}

}  // namespace billcap::serve
