#pragma once

#include <string>
#include <vector>

#include "lp/problem.hpp"

namespace billcap::lp {

/// A piecewise-affine cost of a scalar quantity x >= 0:
///   cost(x) = intercepts[k] + slopes[k] * x   when   breaks[k] <= x <= breaks[k+1]
/// with breaks strictly increasing, breaks.front() == 0 and breaks.back()
/// the (finite) cap on x. Segments may be discontinuous at the breakpoints —
/// exactly the shape of the paper's step electricity prices, where
/// cost(p) = price_k * p and price_k jumps when total load crosses a
/// threshold (Section IV-C, following Trecate et al. [22]).
struct PiecewiseAffine {
  std::vector<double> breaks;      ///< size m+1
  std::vector<double> slopes;      ///< size m
  std::vector<double> intercepts;  ///< size m (zeros for pure step prices)

  /// Number of segments.
  std::size_t num_segments() const noexcept { return slopes.size(); }

  /// Index of the segment containing x (clamped into [breaks.front(),
  /// breaks.back()]). At an interior breakpoint the *right* segment
  /// applies, matching the "price steps up when load reaches the
  /// threshold" semantics.
  std::size_t segment_of(double x) const;

  /// Validates shape invariants; throws std::invalid_argument on violation.
  void validate() const;
};

/// Handle to the variables created by add_piecewise_cost.
struct PiecewiseVars {
  int x = -1;                  ///< aggregated quantity, equals sum of amounts
  std::vector<int> selectors;  ///< one binary per segment (sum == 1)
  std::vector<int> amounts;    ///< per-segment amount, 0 unless selected
};

/// Encodes `scale * cost(x)` into `problem` using the standard
/// segment-selection MILP construction:
///   sum_k z_k = 1,  lo_k z_k <= q_k <= hi_k z_k,  x = sum_k q_k,
///   objective += scale * sum_k (intercepts[k] z_k + slopes[k] q_k).
/// Returns the created variables; the caller ties `x` to the rest of the
/// model (e.g. "x equals data-center power draw") with its own constraint.
/// `prefix` namespaces the generated variable/constraint names.
PiecewiseVars add_piecewise_cost(Problem& problem, const PiecewiseAffine& pw,
                                 const std::string& prefix,
                                 double scale = 1.0);

}  // namespace billcap::lp
