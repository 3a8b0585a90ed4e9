#pragma once

#include <cstddef>
#include <memory>

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
};

/// Arena-backed MILP/LP solver: one flat preallocated tableau plus basis
/// index arrays and a pooled branch-and-bound node stack, sized once per
/// shape so the solve loops never allocate.
///
/// Every solve() builds its root cold (two-phase, the legacy engine's pivot
/// sequence). Branch-and-bound children re-solve from the parent's basis
/// with a dual simplex (bound branching only moves the rhs, so the resident
/// tableau stays dual-feasible); each child costs a handful of pivots
/// instead of a full two-phase solve, and falls back to a cold rebuild when
/// basis repair fails. No basis survives a solve(): a long-lived solver
/// only keeps its allocations, so each result is a pure function of the
/// problem and options (tests/lp/solver_differential_test.cpp pins this
/// bitwise and holds statuses and objectives to the legacy engine to 1e-9).
///
/// Not thread-safe: one ArenaSolver per thread.
class ArenaSolver {
 public:
  ArenaSolver();
  ~ArenaSolver();
  ArenaSolver(const ArenaSolver&) = delete;
  ArenaSolver& operator=(const ArenaSolver&) = delete;
  // Movable so long-lived owners (BillCapper, region capper vectors) can be
  // moved without losing their reserved arenas.
  ArenaSolver(ArenaSolver&&) noexcept;
  ArenaSolver& operator=(ArenaSolver&&) noexcept;

  /// Solves `problem` (MILP via branch-and-bound; a problem without
  /// integer marks is solved at the root only). Status semantics mirror
  /// lp::solve_milp_reference: kOptimal/kInfeasible/kUnbounded, kNodeLimit
  /// and kTimeLimit with the best incumbent, plus kArenaExhausted when
  /// MilpOptions::max_arena_bytes would be exceeded. Duals are not
  /// populated.
  Solution solve(const Problem& problem, const MilpOptions& options = {});

  const ArenaStats& stats() const noexcept;

  /// Current arena footprint in bytes (tableau + cost row + node pool).
  std::size_t arena_bytes() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace billcap::lp
