#include "core/throughput_maximizer.hpp"

#include <stdexcept>

namespace billcap::core {

namespace {
/// Secondary objective weight: one dollar of believed cost is worth
/// kCostTieBreak giga-requests (100 requests). Serving one giga-request
/// costs on the order of $1-10, so the penalty (~1e-6 Greq per Greq
/// served) can never flip a genuine throughput decision, yet a $1 cost
/// difference (1e-7 units) still clears the branch-and-bound gap
/// tolerances and makes ties deterministic and cheap.
constexpr double kCostTieBreak = 1e-7;
}  // namespace

AllocationResult maximize_throughput_over_models(
    std::span<const SiteModel> models, double lambda_available,
    double cost_budget, const OptimizerOptions& options) {
  // Solve-local arena; a caller-owned one gives the same answer.
  lp::ArenaSolver solver;
  return maximize_throughput_over_models(models, lambda_available, cost_budget,
                                         options, solver);
}

AllocationResult maximize_throughput_over_models(
    std::span<const SiteModel> models, double lambda_available,
    double cost_budget, const OptimizerOptions& options,
    lp::ArenaSolver& solver) {
  if (lambda_available < 0.0)
    throw std::invalid_argument("maximize_throughput: negative demand");
  if (cost_budget < 0.0)
    throw std::invalid_argument("maximize_throughput: negative budget");

  AllocationFormulation f = build_allocation_formulation(models);
  f.problem.set_sense(lp::Sense::kMaximize);

  std::vector<lp::Term> demand_terms;
  std::vector<lp::Term> budget_terms;
  for (std::size_t i = 0; i < models.size(); ++i) {
    const SiteVars& v = f.vars[i];
    f.problem.set_objective(v.lambda, 1.0);
    demand_terms.push_back({v.lambda, 1.0});
    for (std::size_t k = 0; k < v.cost.amounts.size(); ++k) {
      const double slope = models[i].cost_curve.slopes[k];
      const double intercept = models[i].cost_curve.intercepts[k];
      // The shared formulation pre-loads minimize-cost coefficients on the
      // piecewise variables; REPLACE them (set, not add) with the tiny
      // tie-break — under kMaximize the inherited +cost coefficients would
      // otherwise make the solver maximize spending up to the budget.
      f.problem.set_objective(v.cost.amounts[k], -kCostTieBreak * slope);
      f.problem.set_objective(v.cost.selectors[k], -kCostTieBreak * intercept);
      if (slope != 0.0) budget_terms.push_back({v.cost.amounts[k], slope});
      if (intercept != 0.0)
        budget_terms.push_back({v.cost.selectors[k], intercept});
    }
  }
  f.problem.add_constraint("demand", std::move(demand_terms),
                           lp::Relation::kLessEqual,
                           lambda_available / kLambdaScale);
  f.problem.add_constraint("budget", std::move(budget_terms),
                           lp::Relation::kLessEqual, cost_budget);

  const lp::Solution solution = solver.solve(f.problem, options.milp);
  return decode_solution(f, models, solution);
}

AllocationResult maximize_throughput(
    const std::vector<datacenter::DataCenter>& sites,
    const std::vector<market::PricingPolicy>& policies,
    std::span<const double> other_demand_mw, double lambda_available,
    double cost_budget, const OptimizerOptions& options) {
  if (sites.size() != policies.size() ||
      sites.size() != other_demand_mw.size())
    throw std::invalid_argument("maximize_throughput: input size mismatch");
  std::vector<SiteModel> models;
  models.reserve(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i)
    models.push_back(make_site_model(sites[i], policies[i],
                                     other_demand_mw[i],
                                     options.model_cooling_network));
  return maximize_throughput_over_models(models, lambda_available, cost_budget,
                                         options);
}

}  // namespace billcap::core
