#include "lp/piecewise_value.hpp"

#include <algorithm>

namespace billcap::lp {

double piecewise_value(const PiecewiseAffine& pw, double x) {
  const double clamped = std::clamp(x, pw.breaks.front(), pw.breaks.back());
  const std::size_t k = pw.segment_of(clamped);
  return pw.intercepts[k] + pw.slopes[k] * clamped;
}

}  // namespace billcap::lp
