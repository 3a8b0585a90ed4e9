#include "lp/milp_solve.hpp"

#include "lp/arena_solver.hpp"

namespace billcap::lp {

Solution solve_milp(const Problem& problem, const MilpOptions& options) {
  ArenaSolver solver;
  return solver.solve(problem, options);
}

}  // namespace billcap::lp
