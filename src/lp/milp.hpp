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

}  // namespace billcap::lp
