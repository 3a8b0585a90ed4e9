#pragma once

#include <span>
#include <vector>

#include "datacenter/datacenter.hpp"
#include "lp/milp.hpp"
#include "lp/piecewise.hpp"
#include "lp/problem.hpp"
#include "market/pricing_policy.hpp"

namespace billcap::core {

/// Request rates inside the MILPs are expressed in giga-requests/hour so
/// the tableau mixes magnitudes of at most ~1e4 (requests ~1e11-1e12/h
/// against power in tens of MW would otherwise span 14 orders of
/// magnitude).
inline constexpr double kLambdaScale = 1e9;

/// What an optimizer believes about one site: the affine power model, the
/// site's limits, and the piecewise-affine hourly cost as a function of the
/// site's own power draw. Cost Capping builds this with the full
/// server+network+cooling model and the real locational step prices; the
/// Min-Only baselines build it with server-only power and a flat price.
struct SiteModel {
  double lambda_max = 0.0;          ///< requests/hour the site can absorb
  double power_slope = 0.0;         ///< MW per (request/hour)
  double power_intercept_mw = 0.0;  ///< fixed MW while the site is active
  double power_cap_mw = 0.0;        ///< Ps_i
  /// $(p) over p in [0, effective cap]; its last break never exceeds
  /// power_cap_mw, which is what makes the formulation's p_i <= Ps_i implied.
  lp::PiecewiseAffine cost_curve;
};

/// Knobs shared by the optimizers.
struct OptimizerOptions {
  /// Model cooling and networking power (true for Cost Capping; false
  /// reproduces the baselines' first limitation and the power-model
  /// ablation).
  bool model_cooling_network = true;
  lp::MilpOptions milp;
};

/// Builds the believed model of one site under a given pricing policy and
/// background demand. The cost curve is capped at the smaller of the power
/// cap and the power at full server capacity.
SiteModel make_site_model(const datacenter::DataCenter& site,
                          const market::PricingPolicy& policy,
                          double other_demand_mw,
                          bool model_cooling_network = true);

/// Variable handles for one site inside an allocation MILP.
struct SiteVars {
  int lambda = -1;  ///< dispatched rate, giga-requests/hour
  int active = -1;  ///< binary: site powered on
  int power = -1;   ///< site draw, MW
  lp::PiecewiseVars cost;  ///< piecewise cost encoding; cost.x == power
};

/// The per-site skeleton shared by cost minimization (Section IV) and
/// throughput maximization (Section V):
///   lambda_i <= lambda_max_i * y_i           (activation)
///   p_i = slope_i * lambda_i + intercept_i * y_i
///   p_i <= Ps_i     (power capping, constraint b; implied by the cost curve)
///   cost_i = piecewise(p_i)                   (locational pricing)
/// The response-time constraint (c) is embedded in the power model: the
/// affine server requirement already sizes the site for R_i <= Rs_i.
/// The caller adds the demand coupling and the objective.
struct AllocationFormulation {
  lp::Problem problem;
  std::vector<SiteVars> vars;
};
AllocationFormulation build_allocation_formulation(
    std::span<const SiteModel> sites);

/// Per-site outcome decoded from a MILP solution.
struct SiteOutcome {
  double lambda = 0.0;    ///< requests/hour (unscaled)
  double power_mw = 0.0;  ///< believed power draw
  double cost = 0.0;      ///< believed hourly cost ($)
  bool active = false;
};

/// Result of one optimizer invocation. `predicted_cost` is the optimizer's
/// own belief; ground truth comes from core::evaluate_allocation.
struct AllocationResult {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  std::vector<SiteOutcome> sites;
  double total_lambda = 0.0;
  double predicted_cost = 0.0;
  long nodes = 0;
  long iterations = 0;
  /// True when `sites` holds a feasible allocation: a proven optimum, the
  /// best incumbent of a limit-terminated branch-and-bound, or the greedy
  /// fallback heuristic. Degraded-mode consumers check this, not ok().
  bool feasible = false;
  /// True when the allocation came from the greedy fallback heuristic
  /// rather than a MILP solve.
  bool heuristic = false;

  bool ok() const noexcept { return status == lp::SolveStatus::kOptimal; }
  /// Feasible-but-not-proven-optimal: usable by the degraded control loop.
  bool usable() const noexcept { return ok() || feasible; }
  /// The per-site request rates as a plain vector (simulator interface).
  std::vector<double> lambda_vector() const;
};

/// Decodes a solved formulation into per-site outcomes.
AllocationResult decode_solution(const AllocationFormulation& formulation,
                                 std::span<const SiteModel> sites,
                                 const lp::Solution& solution);

/// Total request rate the believed models can absorb (sum of lambda_max
/// additionally limited by each site's power cap).
double system_capacity(std::span<const SiteModel> sites);

}  // namespace billcap::core
