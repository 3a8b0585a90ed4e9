#include "market/dcopf.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "lp/simplex.hpp"

namespace billcap::market {

DcOpfModel build_dcopf_model(const Grid& grid) {
  const int nb = grid.num_buses();
  const int nl = grid.num_lines();
  const int ng = grid.num_generators();
  if (nb == 0 || ng == 0)
    throw std::invalid_argument("solve_dcopf: need buses and generators");

  DcOpfModel model;
  lp::Problem& p = model.problem;
  p.set_sense(lp::Sense::kMinimize);

  // Generator dispatch variables.
  model.gen_var.resize(static_cast<std::size_t>(ng));
  for (int g = 0; g < ng; ++g) {
    const Generator& gen = grid.generator(g);
    model.gen_var[static_cast<std::size_t>(g)] = p.add_variable(
        "P." + gen.name, 0.0, gen.capacity_mw, gen.marginal_cost);
  }

  // Bus angles; the slack bus (0) is pinned at zero.
  model.theta_var.resize(static_cast<std::size_t>(nb));
  for (int b = 0; b < nb; ++b) {
    const bool slack = (b == 0);
    model.theta_var[static_cast<std::size_t>(b)] = p.add_variable(
        "theta." + grid.bus_name(b), slack ? 0.0 : -lp::kInfinity,
        slack ? 0.0 : lp::kInfinity);
  }

  // Line flows as explicit variables tied to the angle difference.
  model.flow_var.resize(static_cast<std::size_t>(nl));
  for (int l = 0; l < nl; ++l) {
    const Line& line = grid.line(l);
    const double cap =
        line.limit_mw > 0.0 ? line.limit_mw : lp::kInfinity;
    const int f = p.add_variable("f." + line.name,
                                 cap == lp::kInfinity ? -lp::kInfinity : -cap,
                                 cap);
    model.flow_var[static_cast<std::size_t>(l)] = f;
    const double b_susceptance = 1.0 / line.reactance;
    // f - (theta_from - theta_to)/x = 0.
    p.add_constraint(
        "flowdef." + line.name,
        {{f, 1.0},
         {model.theta_var[static_cast<std::size_t>(line.from_bus)], -b_susceptance},
         {model.theta_var[static_cast<std::size_t>(line.to_bus)], b_susceptance}},
        lp::Relation::kEqual, 0.0);
  }

  // Nodal balance per bus: generation - net outflow = load. The dual of
  // this row is the bus LMP.
  model.balance_row.resize(static_cast<std::size_t>(nb));
  for (int b = 0; b < nb; ++b) {
    std::vector<lp::Term> terms;
    for (int g = 0; g < ng; ++g)
      if (grid.generator(g).bus == b)
        terms.push_back({model.gen_var[static_cast<std::size_t>(g)], 1.0});
    for (int l = 0; l < nl; ++l) {
      const Line& line = grid.line(l);
      if (line.from_bus == b)
        terms.push_back({model.flow_var[static_cast<std::size_t>(l)], -1.0});
      else if (line.to_bus == b)
        terms.push_back({model.flow_var[static_cast<std::size_t>(l)], 1.0});
    }
    model.balance_row[static_cast<std::size_t>(b)] = p.add_constraint(
        "balance." + grid.bus_name(b), std::move(terms), lp::Relation::kEqual,
        0.0);
  }
  return model;
}

void set_dcopf_loads(DcOpfModel& model, const Grid& grid,
                     std::span<const double> load_mw) {
  if (load_mw.size() != model.balance_row.size())
    throw std::invalid_argument("solve_dcopf: one load per bus required");
  for (std::size_t b = 0; b < load_mw.size(); ++b) {
    const int row = model.balance_row[b];
    if (model.problem.constraint(row).terms.empty() && load_mw[b] != 0.0)
      throw std::invalid_argument("solve_dcopf: isolated loaded bus " +
                                  grid.bus_name(static_cast<int>(b)));
    model.problem.set_rhs(row, load_mw[b]);
  }
}

namespace {

/// Reads a solution of `model` back as dispatch, flows, angles and LMPs.
DcOpfResult read_dcopf(const DcOpfModel& model, const lp::Solution& sol) {
  DcOpfResult out;
  out.status = sol.status;
  if (!sol.ok()) return out;

  const auto value = [&sol](int var) {
    return sol.x[static_cast<std::size_t>(var)];
  };
  out.total_cost = sol.objective;
  for (const int g : model.gen_var) out.dispatch_mw.push_back(value(g));
  for (const int f : model.flow_var) out.flow_mw.push_back(value(f));
  for (const int t : model.theta_var) out.theta.push_back(value(t));
  for (const int row : model.balance_row)
    out.lmp.push_back(sol.duals[static_cast<std::size_t>(row)]);
  return out;
}

}  // namespace

DcOpfResult solve_dcopf(const Grid& grid, std::span<const double> load_mw) {
  if (static_cast<int>(load_mw.size()) != grid.num_buses())
    throw std::invalid_argument("solve_dcopf: one load per bus required");
  DcOpfModel model = build_dcopf_model(grid);
  set_dcopf_loads(model, grid, load_mw);
  return read_dcopf(model, lp::solve_lp(model.problem));
}

DcOpfReport analyze_opf(const Grid& grid, const DcOpfResult& result,
                        double tol) {
  if (!result.ok())
    throw std::invalid_argument("analyze_opf: result is not optimal");
  DcOpfReport report;
  report.reference_price = result.lmp.empty() ? 0.0 : result.lmp.front();
  report.congestion_component.reserve(result.lmp.size());
  for (double lmp : result.lmp)
    report.congestion_component.push_back(lmp - report.reference_price);

  for (int g = 0; g < grid.num_generators(); ++g) {
    const Generator& gen = grid.generator(g);
    const double dispatch = result.dispatch_mw[static_cast<std::size_t>(g)];
    if (dispatch >= gen.capacity_mw - tol && dispatch > tol) {
      report.binding.push_back({BindingConstraint::Kind::kGeneratorLimit, g,
                                dispatch});
    }
  }
  for (int l = 0; l < grid.num_lines(); ++l) {
    const Line& line = grid.line(l);
    if (line.limit_mw <= 0.0) continue;
    const double flow =
        std::abs(result.flow_mw[static_cast<std::size_t>(l)]);
    if (flow >= line.limit_mw - tol) {
      report.binding.push_back({BindingConstraint::Kind::kLineLimit, l, flow});
    }
  }
  return report;
}

}  // namespace billcap::market
