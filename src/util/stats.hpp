#pragma once

#include <cstddef>
#include <span>

namespace billcap::util {

/// Streaming summary statistics (Welford's online algorithm). Numerically
/// stable for long series such as a month of hourly costs.
class RunningStats {
 public:
  /// Incorporates one observation.
  void add(double x) noexcept;

  /// Number of observations so far.
  std::size_t count() const noexcept { return n_; }
  /// Arithmetic mean; 0 when empty.
  double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const noexcept;
  /// Smallest observation; +inf when empty.
  double min() const noexcept { return min_; }
  /// Largest observation; -inf when empty.
  double max() const noexcept { return max_; }
  /// Sum of all observations.
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

/// Squared coefficient of variation (variance / mean^2) of a series; this is
/// the C_A^2 / C_B^2 statistic of the Allen-Cunneen formula. Returns 0 when
/// the mean is 0 or there are fewer than two observations.
double squared_cv(std::span<const double> xs) noexcept;

}  // namespace billcap::util
