#pragma once

#include <span>

#include "core/formulation.hpp"

namespace billcap::core {

/// What the degraded control loop asks of the greedy fallback when a MILP
/// solve dies (node/time limit without incumbent, numerical infeasibility):
/// `lambda_required` is served unconditionally (the premium guarantee),
/// `lambda_optional` on top of it only while the predicted cost stays within
/// `cost_budget` (set it to lp::kInfinity for pure cost minimization).
struct FallbackRequest {
  double lambda_required = 0.0;
  double lambda_optional = 0.0;
  double cost_budget = lp::kInfinity;
};

/// Greedy water-filling over the per-site marginal step prices: every site's
/// believed cost curve is cut into chunks of constant marginal $/request
/// (price-level boundaries, the activation jump amortized into the first
/// chunk), and chunks are consumed cheapest-first, site-contiguously,
/// respecting each site's power cap and SLA capacity (`lambda_max` already
/// encodes both).
///
/// Never throws and always returns a feasible allocation: load beyond the
/// believed system capacity is simply not placed (the caller sheds it), and
/// optional load stops at the budget. The result carries `feasible = true`
/// and `heuristic = true`; `total_lambda` tells the caller how much of the
/// request was actually placed. `status` is kOptimal so that legacy ok()
/// consumers treat the allocation as valid — it is feasible, just not
/// proven optimal.
AllocationResult fallback_allocate(std::span<const SiteModel> models,
                                   const FallbackRequest& request);

}  // namespace billcap::core
