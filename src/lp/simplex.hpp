#pragma once

#include "lp/problem.hpp"

namespace billcap::lp {

/// Tuning knobs for the simplex solver. Defaults are appropriate for the
/// dense, small-to-medium problems this repository generates (tens to a few
/// hundred rows).
struct SimplexOptions {
  long max_iterations = 50'000;   ///< pivot limit before kIterationLimit
  double pivot_tol = 1e-9;        ///< minimum |pivot| accepted
  double feasibility_tol = 1e-7;  ///< phase-1 residual treated as zero
  double optimality_tol = 1e-9;   ///< reduced cost treated as nonnegative
  /// Pivots without objective improvement before switching to Bland's rule
  /// (guaranteed anti-cycling).
  long stall_threshold = 200;
};

/// Solves the LP relaxation of `problem` (integrality marks are ignored)
/// on a one-call lp::ArenaSolver: the cold two-phase tableau root that
/// every MILP starts from. Defined in milp.cpp.
///
/// The status is the root's own: kOptimal, kInfeasible, kUnbounded or
/// kIterationLimit when `max_iterations` pivots did not finish. On
/// kOptimal the solution carries primal values for every variable and a
/// dual value per original constraint, oriented so that duals[i] is the
/// sensitivity d(objective)/d(rhs_i) in the problem's own sense. For the
/// DC-OPF substrate these duals ARE the locational marginal prices.
/// tests/lp/solver_differential_test.cpp holds the answer (status,
/// objective, x, duals and pivot count) bitwise to the dense reference
/// simplex kept with the tests.
Solution solve_lp(const Problem& problem, const SimplexOptions& options = {});

}  // namespace billcap::lp
