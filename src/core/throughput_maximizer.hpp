#pragma once

#include <span>
#include <vector>

#include "core/formulation.hpp"
#include "lp/arena_solver.hpp"

namespace billcap::core {

/// Step 2 of the bill capping algorithm (Section V): when the minimized
/// cost would bust the hourly budget, maximize the served request rate
/// within it:
///   max  sum_i lambda_i
///   s.t. sum_i C_i <= Cs,  sum_i lambda_i <= lambda_available,
///        p_i <= Ps_i,  R_i <= Rs_i.
/// A vanishing secondary cost penalty breaks ties toward the cheaper of
/// equally-high-throughput allocations, making results deterministic
/// without affecting the throughput optimum.
AllocationResult maximize_throughput(
    const std::vector<datacenter::DataCenter>& sites,
    const std::vector<market::PricingPolicy>& policies,
    std::span<const double> other_demand_mw, double lambda_available,
    double cost_budget, const OptimizerOptions& options = {});

/// Same over prebuilt believed models.
AllocationResult maximize_throughput_over_models(
    std::span<const SiteModel> models, double lambda_available,
    double cost_budget, const OptimizerOptions& options = {});

/// Same, solving on a caller-owned lp::ArenaSolver, whose allocations a
/// long-lived owner reuses hour over hour (the four-argument overload uses
/// a solve-local arena).
AllocationResult maximize_throughput_over_models(
    std::span<const SiteModel> models, double lambda_available,
    double cost_budget, const OptimizerOptions& options,
    lp::ArenaSolver& solver);

}  // namespace billcap::core
