#pragma once

#include "lp/piecewise.hpp"

namespace billcap::lp {

/// Evaluates `pw` at x directly (x clamped into [breaks.front(),
/// breaks.back()]). At an interior breakpoint the *right* segment applies,
/// matching the "price steps up when load reaches the threshold"
/// semantics of PiecewiseAffine::segment_of. The reference the tests hold
/// the segment-selection MILP encoding and the derived cost curves to.
double piecewise_value(const PiecewiseAffine& pw, double x);

}  // namespace billcap::lp
