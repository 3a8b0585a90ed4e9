// Extension bench — scalability of the centralized architecture (Section
// IX: "the computational complexity ... may not scale well for much
// larger-scale data center networks"), and what the two-level
// hierarchical capper buys.
//
// The paper network is replicated to 3/6/9/12 sites; for each size the
// flat capper and the two-level FleetController (3 sites per region,
// chunks solved inline with no pool) allocate the same hour. Reported:
// wall time per invocation and the ground-truth cost gap of
// decentralization.

#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.hpp"
#include "core/cost_model.hpp"
#include "core/fleet.hpp"
#include "datacenter/catalog.hpp"
#include "market/pricing_policy.hpp"

namespace {

double now_solve_ms(const std::function<void()>& fn) {
  // billcap-lint: allow(wall-clock): bench harness measures real solver latency, not simulated time
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             // billcap-lint: allow(wall-clock): bench harness measures real solver latency, not simulated time
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  using namespace billcap;

  bench::heading("Extension: flat vs hierarchical capper at growing scale");
  util::Table table({"sites", "flat ms", "hier ms", "speedup",
                     "flat cost $", "hier cost $", "gap"});
  util::Csv csv({"sites", "flat_ms", "hier_ms", "flat_cost", "hier_cost"});

  const auto base_sites = datacenter::paper_datacenters();
  const auto base_policies = market::paper_policies(1);

  for (int replicas = 1; replicas <= 4; ++replicas) {
    std::vector<datacenter::DataCenter> sites;
    std::vector<market::PricingPolicy> policies;
    std::vector<double> demand;
    for (int rep = 0; rep < replicas; ++rep) {
      for (std::size_t i = 0; i < base_sites.size(); ++i) {
        sites.push_back(base_sites[i]);
        policies.push_back(base_policies[i]);
        demand.push_back(165.0 + 18.0 * rep + 11.0 * static_cast<double>(i));
      }
    }
    const double premium = 3.6e11 * replicas;
    const double ordinary = 0.9e11 * replicas;
    const double budget = 1e7;  // uncapped: isolate the step-1 MILP cost

    const core::BillCapper flat(sites, policies);
    core::CappingOutcome flat_out;
    const double flat_ms = now_solve_ms([&] {
      flat_out = flat.decide(premium, ordinary, demand, budget);
    });
    const double flat_cost =
        core::evaluate_allocation(sites, policies, demand,
                                  flat_out.allocation.lambda_vector())
            .total_cost;

    // No chunk node budget: each region solves under the same MILP
    // options as the flat capper.
    core::FleetOptions options;
    options.deadline.max_nodes = 0;
    core::FleetController hier(sites, policies,
                               core::contiguous_regions(sites.size(), 3),
                               options);
    core::FleetHourOutcome hier_out;
    const double hier_ms = now_solve_ms([&] {
      hier_out = hier.decide_hour(0, premium, ordinary, demand, budget);
    });
    const double hier_cost =
        core::evaluate_allocation(sites, policies, demand,
                                  hier_out.site_lambda)
            .total_cost;

    table.add_row({std::to_string(sites.size()),
                   util::format_fixed(flat_ms, 1),
                   util::format_fixed(hier_ms, 1),
                   util::format_fixed(flat_ms / hier_ms, 1) + "x",
                   util::format_fixed(flat_cost, 0),
                   util::format_fixed(hier_cost, 0),
                   util::format_fixed(
                       100.0 * (hier_cost - flat_cost) / flat_cost, 2) + "%"});
    csv.add_numeric_row({static_cast<double>(sites.size()), flat_ms, hier_ms,
                         flat_cost, hier_cost});
  }
  table.print(std::cout);
  std::printf(
      "\nThe flat MILP's cost is exponential in sites x price levels; the\n"
      "hierarchical capper stays near-linear at a small optimality gap —\n"
      "the trade Section IX anticipates.\n");
  bench::save_csv(csv, "hierarchical_scale");
  return 0;
}
