// capped_month — simulate a full budgeting period end to end.
//
// Demonstrates the closed loop the paper's architecture (Figure 2)
// describes: the budgeter turns a monthly budget into hourly budgets from
// hour-of-week history, the bill capper allocates each hour's workload,
// ground truth billing feeds the spend back, and the monthly aggregates
// show where ordinary traffic was traded for budget compliance.
//
// Usage: capped_month [monthly_budget_dollars] [policy_level]
//   defaults: 1.0e6, 1

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>

#include "core/exit_codes.hpp"
#include "core/simulator.hpp"
#include "util/calendar.hpp"
#include "util/table.hpp"

int run(int argc, char** argv) {
  using namespace billcap;

  core::SimulationConfig config;
  config.monthly_budget = argc > 1 ? std::atof(argv[1]) : 1.0e6;
  config.policy_level = argc > 2 ? std::atoi(argv[2]) : 1;

  std::printf("Simulating November under a $%.2fM budget, Policy %d...\n",
              config.monthly_budget / 1e6, config.policy_level);
  const core::Simulator sim(config);
  const core::MonthlyResult r = sim.run(core::Strategy::kCostCapping);

  // Daily digest.
  util::Table table({"day", "arrivals (G)", "served (G)", "ord served %",
                     "cost $", "budget $", "capped hrs", "prem-only hrs"});
  for (std::size_t day = 0; day < r.hours.size() / 24; ++day) {
    double arrivals = 0.0;
    double served = 0.0;
    double ord_in = 0.0;
    double ord_served = 0.0;
    double cost = 0.0;
    double budget = 0.0;
    int capped = 0;
    int prem_only = 0;
    for (std::size_t h = day * 24; h < (day + 1) * 24; ++h) {
      const auto& rec = r.hours[h];
      arrivals += rec.arrivals;
      served += rec.served_premium + rec.served_ordinary;
      ord_in += rec.ordinary_arrivals;
      ord_served += rec.served_ordinary;
      cost += rec.cost;
      budget += rec.hourly_budget;
      if (rec.mode == core::CappingOutcome::Mode::kCapped) ++capped;
      if (rec.mode == core::CappingOutcome::Mode::kPremiumOnly) ++prem_only;
    }
    table.add_row({std::to_string(day),
                   util::format_fixed(arrivals / 1e9, 0),
                   util::format_fixed(served / 1e9, 0),
                   util::format_fixed(100.0 * ord_served / ord_in, 1),
                   util::format_fixed(cost, 0),
                   util::format_fixed(budget, 0), std::to_string(capped),
                   std::to_string(prem_only)});
  }
  table.print(std::cout);

  std::printf(
      "\nMonth: cost $%.0f / budget $%.0f (%.1f%%) | premium %.2f%% | "
      "ordinary %.2f%%\n",
      r.total_cost, r.monthly_budget, 100.0 * r.budget_utilization(),
      100.0 * r.premium_throughput_ratio(),
      100.0 * r.ordinary_throughput_ratio());
  return billcap::core::kExitSuccess;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return billcap::core::kExitRuntimeError;
  }
}
