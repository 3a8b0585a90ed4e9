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
  /// Wall-clock deadline for the whole branch-and-bound search in
  /// milliseconds; <= 0 disables the deadline. On expiry the best incumbent
  /// found so far is returned with SolveStatus::kTimeLimit (an hourly
  /// control loop must never block on one stubborn solve).
  double time_limit_ms = 0.0;
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
/// Since the arena-solver rewrite this entry point runs lp::ArenaSolver
/// (one solve-local instance: B&B children warm start from the parent
/// basis via dual simplex; every root is solved cold, so results stay a
/// pure function of the inputs). The original stack-of-Problem-copies
/// engine remains available as solve_milp_reference and is held equal to
/// the arena path by tests/lp/solver_differential_test.cpp.
Solution solve_milp(const Problem& problem, const MilpOptions& options = {});

/// The pre-arena branch-and-bound engine (a fresh two-phase simplex per
/// node). Kept as the independent oracle for the differential test harness
/// and as a fallback reference for debugging; production callers use
/// solve_milp.
Solution solve_milp_reference(const Problem& problem,
                              const MilpOptions& options = {});

}  // namespace billcap::lp
