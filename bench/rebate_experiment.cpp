// Extension bench — Peak Power Rebate programs (Section II): what does a
// rebate-aware cost minimizer save during peak hours?
//
// One representative peak hour is allocated three ways:
//   * no program          — plain step-price minimization
//   * rebate, unaware     — the optimizer ignores the program; the bill is
//                           still credited for whatever curtailment happens
//   * rebate, aware       — the program's credit is folded into the
//                           believed cost curves, so the optimizer can
//                           deliberately curtail below the baselines
// swept over rebate rates.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/cost_minimizer.hpp"
#include "core/formulation.hpp"
#include "datacenter/catalog.hpp"
#include "rebate.hpp"

int main() {
  using namespace billcap;

  const auto sites = datacenter::paper_datacenters();
  const auto policies = market::paper_policies(1);
  const std::vector<double> demand = {252.0, 215.0, 205.0};  // peak-hour grid
  const double lambda = 9e11;

  auto models_with = [&](const market::RebateProgram* program) {
    std::vector<core::SiteModel> models;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      core::SiteModel m =
          core::make_site_model(sites[i], policies[i], demand[i], true);
      if (program != nullptr)
        m.cost_curve = market::apply_rebate(m.cost_curve, *program);
      models.push_back(std::move(m));
    }
    return models;
  };

  auto true_bill = [&](const core::AllocationResult& r,
                       const market::RebateProgram* program) {
    double total = 0.0;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      const double p = sites[i].power_mw(r.sites[i].lambda);
      if (program != nullptr) {
        total += market::rebated_cost(policies[i], *program,
                                      /*peak_hour=*/true, p, demand[i]);
      } else {
        total += policies[i].cost_for(p, demand[i]);
      }
    }
    return total;
  };

  bench::heading("Extension: Peak Power Rebate, one peak hour, 900 Greq");
  util::Table table({"rebate $/MWh", "no program $", "unaware bill $",
                     "aware bill $", "aware saves"});
  util::Csv csv({"rebate", "no_program", "unaware", "aware"});

  const core::AllocationResult plain =
      core::minimize_cost_over_models(models_with(nullptr), lambda);
  const double plain_bill = true_bill(plain, nullptr);

  for (double rebate : {2.0, 5.0, 10.0, 20.0}) {
    // Baseline commitment: ~80 % of each site's cap during peak hours.
    market::RebateProgram program{.baseline_mw = 30.0,
                                  .rebate_per_mwh = rebate};
    const double unaware_bill = true_bill(plain, &program);
    const core::AllocationResult aware =
        core::minimize_cost_over_models(models_with(&program), lambda);
    const double aware_bill = true_bill(aware, &program);

    table.add_row({util::format_fixed(rebate, 0),
                   util::format_fixed(plain_bill, 0),
                   util::format_fixed(unaware_bill, 0),
                   util::format_fixed(aware_bill, 0),
                   util::format_fixed(
                       100.0 * (unaware_bill - aware_bill) /
                           std::max(unaware_bill, 1.0), 2) + "%"});
    csv.add_numeric_row({rebate, plain_bill, unaware_bill, aware_bill});
  }
  table.print(std::cout);
  std::printf(
      "\nA rebate-aware allocator shifts load between sites so the most\n"
      "valuable curtailment credits are collected; the gap grows with the\n"
      "rebate rate (Ameren's Power Smart Pricing participants saved ~20%%).\n");
  bench::save_csv(csv, "rebate_experiment");
  return 0;
}
