#pragma once

#include <cstddef>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace billcap::lp {

/// Tuning knobs for branch-and-bound. Defaults comfortably cover the paper's
/// problems (3 data centers x 5 price levels => ~20 binaries).
struct MilpOptions {
  long max_nodes = 200'000;        ///< node limit before kNodeLimit
  double integrality_tol = 1e-6;   ///< |x - round(x)| treated as integral
  double relative_gap = 1e-9;      ///< stop when bound and incumbent close
  double absolute_gap = 1e-9;
  /// Arena byte cap for this solve (tableau + node pool); 0 = unlimited.
  /// It binds this call only — the fleet layer uses it to squeeze one
  /// chunk's solve on an arena it reuses across hours. An arena that an
  /// earlier solve grew past the cap is exhausted up front. Exhaustion
  /// surfaces as SolveStatus::kArenaExhausted, never a throw.
  std::size_t max_arena_bytes = 0;
  SimplexOptions lp;               ///< options for each relaxation solve
};

/// Solves a mixed-integer linear program by LP-based branch-and-bound:
/// depth-first on a best-bound-ordered stack, branching on the most
/// fractional integer variable, pruning nodes whose relaxation bound cannot
/// beat the incumbent.
///
/// This plays the role lp_solve plays in the paper (Section IV-C). On
/// kOptimal the solution is integral within `integrality_tol` (values are
/// snapped to exact integers), `best_bound` proves optimality within the
/// gap, and `nodes`/`iterations` report search effort. Duals are not
/// populated for MILPs.
///
/// This entry point runs lp::ArenaSolver (one solve-local instance: B&B
/// children warm start from the parent basis via dual simplex; every root
/// is solved cold, so results stay a pure function of the inputs).
/// tests/lp/solver_differential_test.cpp holds it to the pre-arena
/// engine, kept with the tests as the oracle (tests/lp/reference.hpp).
Solution solve_milp(const Problem& problem, const MilpOptions& options = {});

}  // namespace billcap::lp
