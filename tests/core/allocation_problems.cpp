#include "core/allocation_problems.hpp"

#include <utility>
#include <vector>

namespace billcap::core {

lp::Problem min_cost_problem(const AllocationFormulation& base,
                             double lambda) {
  lp::Problem p = base.problem;
  p.set_sense(lp::Sense::kMinimize);
  std::vector<lp::Term> demand;
  for (const SiteVars& v : base.vars) demand.push_back({v.lambda, 1.0});
  p.add_constraint("demand", std::move(demand), lp::Relation::kEqual,
                   lambda / kLambdaScale);
  return p;
}

lp::Problem throughput_problem(const AllocationFormulation& base,
                               std::span<const SiteModel> models,
                               double lambda, double budget) {
  lp::Problem p = base.problem;
  p.set_sense(lp::Sense::kMaximize);
  std::vector<lp::Term> demand;
  std::vector<lp::Term> spend;
  for (std::size_t i = 0; i < models.size(); ++i) {
    const SiteVars& v = base.vars[i];
    p.set_objective(v.lambda, 1.0);
    demand.push_back({v.lambda, 1.0});
    for (std::size_t k = 0; k < v.cost.amounts.size(); ++k) {
      const double slope = models[i].cost_curve.slopes[k];
      const double intercept = models[i].cost_curve.intercepts[k];
      p.set_objective(v.cost.amounts[k], -1e-7 * slope);
      p.set_objective(v.cost.selectors[k], -1e-7 * intercept);
      if (slope != 0.0) spend.push_back({v.cost.amounts[k], slope});
      if (intercept != 0.0) spend.push_back({v.cost.selectors[k], intercept});
    }
  }
  p.add_constraint("demand", std::move(demand), lp::Relation::kLessEqual,
                   lambda / kLambdaScale);
  p.add_constraint("budget", std::move(spend), lp::Relation::kLessEqual,
                   budget);
  return p;
}

}  // namespace billcap::core
