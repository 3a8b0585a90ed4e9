#include "core/formulation.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace billcap::core {

SiteModel make_site_model(const datacenter::DataCenter& site,
                          const market::PricingPolicy& policy,
                          double other_demand_mw,
                          bool model_cooling_network) {
  const datacenter::DataCenter::AffinePower affine =
      model_cooling_network ? site.affine_power()
                            : site.affine_server_power_only();

  SiteModel model;
  model.power_slope = affine.slope_mw_per_request_hour;
  model.power_intercept_mw = affine.intercept_mw;
  // A 0.1 % safety margin keeps the exact (integer-ceiling) power of the
  // chosen allocation from grazing past the supplier cap and triggering the
  // overage penalty.
  model.power_cap_mw = site.spec().power_cap_mw * 0.999;

  // The site can absorb requests up to server capacity, further limited by
  // the believed power cap.
  const double by_capacity = site.max_requests_per_hour();
  const double by_power =
      model.power_slope > 0.0
          ? std::max(0.0, (model.power_cap_mw - model.power_intercept_mw) /
                              model.power_slope)
          : by_capacity;
  model.lambda_max = std::min(by_capacity, by_power);

  const double max_power = std::min(
      model.power_cap_mw,
      model.power_slope * model.lambda_max + model.power_intercept_mw);
  model.cost_curve =
      policy.dc_cost_curve(other_demand_mw, std::max(max_power, 1e-6));
  return model;
}

AllocationFormulation build_allocation_formulation(
    std::span<const SiteModel> sites) {
  AllocationFormulation f;
  f.vars.reserve(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const SiteModel& site = sites[i];
    const std::string tag = "site" + std::to_string(i);
    SiteVars v;
    // lambda_i <= lambda_max is implied by the activation row with
    // y_i <= 1. power_i <= Ps_i is implied by cost_link, power_i = x_i <=
    // breaks.back(), because every cost curve ends at or below the cap
    // (a down site's power_link pins power_i to 0 instead). Each explicit
    // bound would cost a tableau row; the binaries keep theirs.
    v.lambda = f.problem.add_variable(tag + ".lambda", 0.0, lp::kInfinity);
    v.active = f.problem.add_binary(tag + ".active");
    v.power = f.problem.add_variable(tag + ".power", 0.0, lp::kInfinity);
    v.cost = lp::add_piecewise_cost(f.problem, site.cost_curve, tag + ".cost");

    // lambda_i <= lambda_max * y_i.
    f.problem.add_constraint(
        tag + ".activation",
        {{v.lambda, 1.0}, {v.active, -site.lambda_max / kLambdaScale}},
        lp::Relation::kLessEqual, 0.0);

    // p_i - slope*lambda_i - intercept*y_i = 0 (slope rescaled to
    // giga-requests).
    f.problem.add_constraint(
        tag + ".power_link",
        {{v.power, 1.0},
         {v.lambda, -site.power_slope * kLambdaScale},
         {v.active, -site.power_intercept_mw}},
        lp::Relation::kEqual, 0.0);

    // Tie the piecewise aggregate to the site power.
    f.problem.add_constraint(tag + ".cost_link",
                             {{v.cost.x, 1.0}, {v.power, -1.0}},
                             lp::Relation::kEqual, 0.0);
    f.vars.push_back(std::move(v));
  }
  return f;
}

std::vector<double> AllocationResult::lambda_vector() const {
  std::vector<double> out;
  out.reserve(sites.size());
  for (const SiteOutcome& s : sites) out.push_back(s.lambda);
  return out;
}

AllocationResult decode_solution(const AllocationFormulation& formulation,
                                 std::span<const SiteModel> sites,
                                 const lp::Solution& solution) {
  AllocationResult out;
  out.status = solution.status;
  out.nodes = solution.nodes;
  out.iterations = solution.iterations;
  // Decode a limit-terminated solve's best incumbent too: a feasible
  // integral allocation the degraded control loop can act on even though
  // optimality was never proven.
  if (!solution.has_incumbent()) return out;
  out.feasible = true;

  out.sites.resize(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const SiteVars& v = formulation.vars[i];
    SiteOutcome& site = out.sites[i];
    site.lambda =
        solution.x[static_cast<std::size_t>(v.lambda)] * kLambdaScale;
    // Clean up round-off: tiny negative or epsilon loads become zero.
    if (site.lambda < 1e-3) site.lambda = 0.0;
    site.active = solution.x[static_cast<std::size_t>(v.active)] > 0.5;
    site.power_mw = solution.x[static_cast<std::size_t>(v.power)];
    double cost = 0.0;
    for (std::size_t k = 0; k < v.cost.amounts.size(); ++k) {
      cost += sites[i].cost_curve.slopes[k] *
                  solution.x[static_cast<std::size_t>(v.cost.amounts[k])] +
              sites[i].cost_curve.intercepts[k] *
                  solution.x[static_cast<std::size_t>(v.cost.selectors[k])];
    }
    site.cost = cost;
    out.total_lambda += site.lambda;
    out.predicted_cost += cost;
  }
  return out;
}

double system_capacity(std::span<const SiteModel> sites) {
  double total = 0.0;
  for (const SiteModel& site : sites) total += site.lambda_max;
  return total;
}

}  // namespace billcap::core
