#pragma once

#include "lp/milp.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace billcap::lp {

/// The dense two-phase tableau simplex that solved every LP before the
/// arena did. No production code calls it: it is the independent oracle
/// the differential tests hold lp::solve_lp and lp::ArenaSolver to. Its
/// header keeps the lp/ include path ("lp/reference.hpp").
///
/// Solves the LP relaxation of `problem` (integrality marks are ignored).
/// On kOptimal the solution carries primal values for every variable and
/// a dual value per original constraint, oriented so that duals[i] is
/// d(objective)/d(rhs_i) in the problem's own sense.
Solution solve_lp_reference(const Problem& problem,
                            const SimplexOptions& options = {});

/// The pre-arena branch-and-bound engine: a depth-first stack of bound
/// sets, each node a fresh solve_lp_reference of a copy of the problem.
/// Same status semantics as lp::solve_milp, without kArenaExhausted.
Solution solve_milp_reference(const Problem& problem,
                              const MilpOptions& options = {});

}  // namespace billcap::lp
