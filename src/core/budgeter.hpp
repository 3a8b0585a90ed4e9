#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace billcap::core {

/// The budgeter (Section III / VI-B): breaks a monthly electricity budget
/// into hourly budgets. At the start of every invocation period it takes
/// what is left of the monthly budget (so unused budget from earlier hours
/// carries over, and overruns shrink later budgets) and assigns this hour
/// the share given by the workload's historical hour-of-week weight
/// relative to all remaining hours of the month:
///
///   budget_h = remaining * w(h) / sum_{h' = h..H-1} w(h')
///
/// where w(.) is the hour-of-week weight learned from the previous weeks'
/// trace (workload::hour_of_week_weights). Within a week this reproduces
/// the paper's carry-over behaviour (Figure 6's growing hourly budget).
class Budgeter {
 public:
  /// `monthly_budget` in $; `hour_of_week_weights` must have 168 entries
  /// summing to ~1; `horizon_hours` is the number of invocation periods in
  /// the budgeting period (720 for the November evaluation).
  /// `phase_offset_hours` is the hour-of-week of the budgeting period's
  /// first hour (the weight table is slotted on the global calendar, while
  /// hour indices here are month-local): November starting on a Thursday
  /// has offset 72.
  Budgeter(double monthly_budget, std::vector<double> hour_of_week_weights,
           std::size_t horizon_hours, std::size_t phase_offset_hours = 0);

  double monthly_budget() const noexcept { return monthly_budget_; }
  std::size_t horizon_hours() const noexcept { return horizon_; }

  /// Budget for hour `hour_index` (0-based within the month) given the
  /// electricity cost already spent in hours [0, hour_index). Never
  /// negative; returns 0 once the month is overspent.
  double hourly_budget(std::size_t hour_index, double spent_so_far) const;

 private:
  double monthly_budget_;
  std::vector<double> weights_;       // 168 hour-of-week weights
  std::vector<double> suffix_weight_; // sum of weights for hours >= h
  std::size_t horizon_;
  std::size_t phase_offset_;
};

}  // namespace billcap::core
