#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "lp/milp.hpp"
#include "lp/problem.hpp"

namespace billcap::lp {

/// Counters describing how solves were served. Monotonic over the solver's
/// lifetime; read them before/after a block to attribute a window.
struct ArenaStats {
  long cold_solves = 0;       ///< root solved by two-phase from scratch
  long warm_solves = 0;       ///< always 0: every root is solved cold
  long warm_fallbacks = 0;    ///< always 0: no root is ever warm started
  long node_warm_solves = 0;  ///< B&B children re-solved by dual simplex
  long node_cold_solves = 0;  ///< B&B children that needed a cold rebuild
  long primal_iterations = 0; ///< primal simplex pivots (phases 1+2)
  long dual_iterations = 0;   ///< dual simplex pivots (warm re-solves)
  long nodes_explored = 0;    ///< branch-and-bound nodes across all solves
  long range_refusals = 0;    ///< rhs walks cut short by a refused pivot
};

/// One basis change met by ArenaSolver::range_rhs.
struct RhsBreakpoint {
  double t = 0.0;     ///< parameter at which the basis changed
  double dual = 0.0;  ///< the ranged row's dual from t on (Solution::duals sign)
};

/// What ArenaSolver::range_rhs found along b_row(t) = b_row + t * direction.
struct RhsRange {
  /// How the walk stopped.
  enum class End : unsigned char {
    kReachedMax,  ///< every basis change in [0, t_max] is listed
    kInfeasible,  ///< the LP has no feasible point for any t > end_t
    kRefused,     ///< a pivot was refused at end_t: nothing past it is known
  };
  /// The cold solve at t = 0, bitwise solve()'s answer (duals filled).
  Solution start;
  /// In ascending t, one per dual-simplex pivot (several may share a t).
  std::vector<RhsBreakpoint> breakpoints;
  End end = End::kReachedMax;
  double end_t = 0.0;  ///< t_max, or where the walk stopped
};

/// Arena-backed MILP/LP solver: one flat preallocated tableau plus basis
/// index arrays and a pooled branch-and-bound node stack, sized once per
/// shape so the solve loops never allocate.
///
/// Every solve() builds its root cold (two-phase; for a problem without
/// integer marks, the pivot sequence of the reference simplex the tests
/// keep, solve_lp_reference). An integer variable's finite bounds are
/// column bounds of a bounded-variable simplex, not tableau rows, so a
/// branch only moves a column's bound. Branch-and-bound children re-solve
/// from the resident basis with a dual simplex (the moved bounds keep the
/// tableau dual-feasible); each child costs a handful of pivots instead
/// of a full two-phase solve, and falls back to a cold rebuild when basis
/// repair fails. range_rhs() walks an LP root's basis within the
/// same call. No basis survives a call: a long-lived solver only keeps its
/// allocations, so each result is a pure function of the problem and
/// options (tests/lp/solver_differential_test.cpp pins this bitwise and
/// holds statuses and objectives to the reference branch-and-bound in
/// tests/lp/reference.hpp to 1e-9).
///
/// Not thread-safe: one ArenaSolver per thread.
class ArenaSolver {
 public:
  ArenaSolver();
  ~ArenaSolver();
  ArenaSolver(const ArenaSolver&) = delete;
  ArenaSolver& operator=(const ArenaSolver&) = delete;
  // Move-constructible so long-lived owners (BillCapper, region capper
  // vectors) can be moved without losing their reserved arenas.
  ArenaSolver(ArenaSolver&&) noexcept;

  /// Solves `problem` (MILP via branch-and-bound; a problem without
  /// integer marks is solved at the root only and returns the root's own
  /// status, kIterationLimit included). Status semantics mirror the test
  /// oracle's branch-and-bound: kOptimal/kInfeasible/kUnbounded,
  /// kNodeLimit with the best incumbent, plus
  /// kArenaExhausted when MilpOptions::max_arena_bytes would be exceeded.
  /// An optimal LP (no integer marks) carries its duals, bitwise
  /// solve_lp_reference's; a MILP carries none.
  Solution solve(const Problem& problem, const MilpOptions& options = {});

  /// RHS ranging on one row: solves the LP `problem` cold as solve() does,
  /// then raises row `row`'s rhs along b_row + t * direction from t = 0 to
  /// t_max on the resident tableau. The basic values move along the row's
  /// B^-1 column (its identity column); where one reaches its bound, one
  /// dual-simplex pivot changes the basis and the row's dual may step.
  /// A pivot is refused (End::kRefused, counted in range_refusals) when no
  /// entering column has |pivot| above the absolute stability floor
  /// (1e-7), when a basic artificial would go positive, or past the dual
  /// pivot budget.
  /// When the start is not optimal nothing is walked (End::kRefused at 0).
  /// Throws std::invalid_argument for a MILP or an out-of-range row.
  void range_rhs(const Problem& problem, int row, double direction,
                 double t_max, RhsRange& out);

  const ArenaStats& stats() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace billcap::lp
