#include "core/budgeter.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/calendar.hpp"

namespace billcap::core {

Budgeter::Budgeter(double monthly_budget,
                   std::vector<double> hour_of_week_weights,
                   std::size_t horizon_hours, std::size_t phase_offset_hours)
    : monthly_budget_(monthly_budget),
      weights_(std::move(hour_of_week_weights)),
      horizon_(horizon_hours),
      phase_offset_(phase_offset_hours % util::kHoursPerWeek) {
  if (!(monthly_budget > 0.0))
    throw std::invalid_argument("Budgeter: monthly budget must be > 0");
  if (weights_.size() != util::kHoursPerWeek)
    throw std::invalid_argument("Budgeter: need 168 hour-of-week weights");
  if (horizon_ == 0)
    throw std::invalid_argument("Budgeter: horizon must be >= 1 hour");
  for (double w : weights_)
    if (w < 0.0)
      throw std::invalid_argument("Budgeter: negative weight");

  // Precompute suffix sums of the per-hour weights over the whole horizon.
  suffix_weight_.assign(horizon_ + 1, 0.0);
  for (std::size_t h = horizon_; h-- > 0;) {
    suffix_weight_[h] =
        suffix_weight_[h + 1] +
        weights_[util::hour_of_week(phase_offset_ + h)];
  }
  if (suffix_weight_.front() <= 0.0)
    throw std::invalid_argument("Budgeter: weights sum to zero over horizon");
}

double Budgeter::hourly_budget(std::size_t hour_index,
                               double spent_so_far) const {
  if (hour_index >= horizon_)
    throw std::out_of_range("Budgeter: hour beyond horizon");
  const double remaining = std::max(0.0, monthly_budget_ - spent_so_far);
  const double weight =
      weights_[util::hour_of_week(phase_offset_ + hour_index)];
  const double future = suffix_weight_[hour_index];
  if (future <= 0.0) return remaining;  // degenerate: all-zero tail weights
  return remaining * weight / future;
}

}  // namespace billcap::core
