#include "core/cost_minimizer.hpp"

#include <stdexcept>

namespace billcap::core {

AllocationResult minimize_cost_over_models(std::span<const SiteModel> models,
                                           double lambda_total,
                                           const OptimizerOptions& options) {
  // Solve-local arena; a caller-owned one gives the same answer.
  lp::ArenaSolver solver;
  return minimize_cost_over_models(models, lambda_total, options, solver);
}

AllocationResult minimize_cost_over_models(std::span<const SiteModel> models,
                                           double lambda_total,
                                           const OptimizerOptions& options,
                                           lp::ArenaSolver& solver) {
  if (lambda_total < 0.0)
    throw std::invalid_argument("minimize_cost: negative demand");

  AllocationFormulation f = build_allocation_formulation(models);
  f.problem.set_sense(lp::Sense::kMinimize);

  std::vector<lp::Term> demand_terms;
  demand_terms.reserve(models.size());
  for (const SiteVars& v : f.vars) demand_terms.push_back({v.lambda, 1.0});
  f.problem.add_constraint("demand", std::move(demand_terms),
                           lp::Relation::kEqual, lambda_total / kLambdaScale);

  const lp::Solution solution = solver.solve(f.problem, options.milp);
  return decode_solution(f, models, solution);
}

AllocationResult minimize_cost(
    const std::vector<datacenter::DataCenter>& sites,
    const std::vector<market::PricingPolicy>& policies,
    std::span<const double> other_demand_mw, double lambda_total,
    const OptimizerOptions& options) {
  if (sites.size() != policies.size() ||
      sites.size() != other_demand_mw.size())
    throw std::invalid_argument("minimize_cost: input size mismatch");
  std::vector<SiteModel> models;
  models.reserve(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i)
    models.push_back(make_site_model(sites[i], policies[i],
                                     other_demand_mw[i],
                                     options.model_cooling_network));
  return minimize_cost_over_models(models, lambda_total, options);
}

}  // namespace billcap::core
