#pragma once

#include <span>

#include "core/formulation.hpp"
#include "lp/problem.hpp"

namespace billcap::core {

/// The hourly cost-minimization MILP, built as minimize_cost_over_models
/// builds it: `base` with one demand row, sum of lambdas = lambda.
lp::Problem min_cost_problem(const AllocationFormulation& base, double lambda);

/// The throughput-maximization MILP, built as
/// maximize_throughput_over_models builds it (1e-7 is its cost
/// tie-break): `base` with a demand row, sum of lambdas <= lambda, and a
/// budget row over the cost curves of `models`.
lp::Problem throughput_problem(const AllocationFormulation& base,
                               std::span<const SiteModel> models,
                               double lambda, double budget);

}  // namespace billcap::core
