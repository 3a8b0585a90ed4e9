#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

double sum(std::span<const double> xs) noexcept {
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc;
}

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return sum(xs) / static_cast<double>(xs.size());
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q outside [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double squared_cv(std::span<const double> xs) noexcept {
  RunningStats s;
  for (double x : xs) s.add(x);
  if (s.count() < 2 || s.mean() == 0.0) return 0.0;
  return s.variance() / (s.mean() * s.mean());
}

std::vector<double> relative_error(std::span<const double> a,
                                   std::span<const double> b, double eps) {
  if (a.size() != b.size())
    throw std::invalid_argument("relative_error: size mismatch");
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = std::abs(a[i] - b[i]) / std::max(std::abs(b[i]), eps);
  return out;
}

}  // namespace billcap::util
