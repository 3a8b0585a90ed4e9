#include "lp/milp.hpp"

#include "lp/arena_solver.hpp"

namespace billcap::lp {

Solution solve_lp(const Problem& problem, const SimplexOptions& options) {
  MilpOptions milp;
  milp.lp = options;
  ArenaSolver solver;
  if (!problem.has_integers()) return solver.solve(problem, milp);
  // The relaxation ignores integrality marks.
  Problem relaxed = problem;
  for (int j = 0; j < relaxed.num_variables(); ++j)
    relaxed.set_integer(j, false);
  return solver.solve(relaxed, milp);
}

}  // namespace billcap::lp
