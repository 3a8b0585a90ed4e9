#include "util/stats.hpp"

#include <algorithm>

namespace billcap::util {

void RunningStats::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double squared_cv(std::span<const double> xs) noexcept {
  RunningStats s;
  for (double x : xs) s.add(x);
  if (s.count() < 2 || s.mean() == 0.0) return 0.0;
  return s.variance() / (s.mean() * s.mean());
}

}  // namespace billcap::util
