#pragma once

// The one-call MILP entry point the lp tests solve through. Production
// holds its own lp::ArenaSolver (the capper and every fleet chunk keep
// one hour over hour), so no shipped binary needs this wrapper. Its header
// keeps the lp/ include path ("lp/milp_solve.hpp").

#include "lp/milp.hpp"

namespace billcap::lp {

/// Solves a mixed-integer linear program by LP-based branch-and-bound on a
/// fresh lp::ArenaSolver: depth-first on a best-bound-ordered stack,
/// branching on the most fractional integer variable, pruning nodes whose
/// relaxation bound cannot beat the incumbent.
///
/// This plays the role lp_solve plays in the paper (Section IV-C). On
/// kOptimal the solution is integral within `integrality_tol` (values are
/// snapped to exact integers), `best_bound` proves optimality within the
/// gap, and `nodes`/`iterations` report search effort. Duals are not
/// populated for MILPs. A long-lived solver gives the same answer.
Solution solve_milp(const Problem& problem, const MilpOptions& options = {});

}  // namespace billcap::lp
