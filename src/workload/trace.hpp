#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace billcap::workload {

/// An hourly request-arrival series (requests/hour). Hour 0 is Monday 00:00
/// by repository convention (util/calendar.hpp).
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<double> arrivals_per_hour);

  std::size_t hours() const noexcept { return arrivals_.size(); }
  bool empty() const noexcept { return arrivals_.empty(); }

  /// Arrivals in hour h; throws std::out_of_range beyond the series.
  double at(std::size_t hour) const { return arrivals_.at(hour); }

  std::span<const double> series() const noexcept { return arrivals_; }

  /// Sub-trace of `length` hours starting at `start`; throws on overrun.
  Trace slice(std::size_t start, std::size_t length) const;

  double total() const noexcept;
  double mean() const noexcept;

 private:
  std::vector<double> arrivals_;
};

/// Premium/ordinary customer mix (Section VII-C: 80 % premium, 20 %
/// ordinary). The split is a fixed proportion of each hour's arrivals.
class PremiumSplit {
 public:
  /// `premium_share` in [0, 1].
  explicit PremiumSplit(double premium_share = 0.8);

  double premium_share() const noexcept { return share_; }
  double premium(double arrivals) const noexcept { return share_ * arrivals; }
  double ordinary(double arrivals) const noexcept {
    return (1.0 - share_) * arrivals;
  }

 private:
  double share_;
};

}  // namespace billcap::workload
