#pragma once

#include <span>
#include <vector>

#include "lp/problem.hpp"
#include "market/grid.hpp"

namespace billcap::market {

/// Result of a DC optimal power flow.
struct DcOpfResult {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  double total_cost = 0.0;              ///< $/h at the optimum
  std::vector<double> dispatch_mw;      ///< per generator
  std::vector<double> flow_mw;          ///< per line (from -> to positive)
  std::vector<double> lmp;              ///< per bus, $/MWh
  std::vector<double> theta;            ///< per bus voltage angle (bus 0 = 0)

  bool ok() const noexcept { return status == lp::SolveStatus::kOptimal; }
};

/// Solves the DC optimal power flow
///   min  sum_g c_g P_g
///   s.t. per-bus balance:  sum_{g at b} P_g - sum_l A_{bl} f_l = load_b
///        f_l = (theta_from - theta_to) / x_l,   |f_l| <= limit_l,
///        0 <= P_g <= cap_g,  theta_slack = 0
/// with the B-theta formulation, using the repository's own simplex. The
/// locational marginal price at each bus is read directly from the dual of
/// that bus's balance constraint — the mechanism behind the step pricing
/// policies of Section II: every time an additional generator or line limit
/// becomes binding as load grows, the LMP vector jumps.
DcOpfResult solve_dcopf(const Grid& grid, std::span<const double> load_mw);

/// The LP behind solve_dcopf and where each grid element sits in it.
struct DcOpfModel {
  lp::Problem problem;
  std::vector<int> gen_var;      ///< per generator: dispatch P_g
  std::vector<int> theta_var;    ///< per bus: voltage angle
  std::vector<int> flow_var;     ///< per line: flow f_l
  std::vector<int> balance_row;  ///< per bus: nodal balance (its dual = LMP)
};

/// Builds the DC-OPF LP of `grid` with every balance rhs at zero. Throws
/// std::invalid_argument for a grid without buses or generators.
DcOpfModel build_dcopf_model(const Grid& grid);

/// Sets each bus's balance rhs to its load. Throws std::invalid_argument
/// unless there is one load per bus, or when a loaded bus has no generator
/// and no line.
void set_dcopf_loads(DcOpfModel& model, const Grid& grid,
                     std::span<const double> load_mw);

/// A constraint that is binding at the OPF optimum — the events that
/// create new price levels as load grows (Section II: "a step change
/// happens when a new constraint, either transmission or generation,
/// becomes binding").
struct BindingConstraint {
  enum class Kind { kGeneratorLimit, kLineLimit };
  Kind kind = Kind::kGeneratorLimit;
  int index = -1;      ///< generator or line index in the grid
  double value = 0.0;  ///< dispatch or |flow| at the limit
};

/// Post-solution analysis of an OPF: the locational price decomposition
/// (energy reference = slack-bus LMP, congestion = per-bus deviation) and
/// the set of binding constraints.
struct DcOpfReport {
  double reference_price = 0.0;              ///< LMP at the slack bus
  std::vector<double> congestion_component;  ///< lmp_b - reference, per bus
  std::vector<BindingConstraint> binding;
};

/// Builds the report from a solved OPF; `tol` (MW) decides bindingness.
/// Throws std::invalid_argument if the result is not optimal.
DcOpfReport analyze_opf(const Grid& grid, const DcOpfResult& result,
                        double tol = 1e-4);

}  // namespace billcap::market
