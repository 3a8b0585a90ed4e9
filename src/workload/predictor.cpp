#include "workload/predictor.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/calendar.hpp"

namespace billcap::workload {

std::vector<double> hour_of_week_weights(std::span<const double> history,
                                         std::size_t weeks) {
  if (weeks == 0)
    throw std::invalid_argument("hour_of_week_weights: weeks must be >= 1");
  const std::size_t full_weeks =
      std::min(weeks, history.size() / util::kHoursPerWeek);
  if (full_weeks == 0) {
    return std::vector<double>(util::kHoursPerWeek,
                               1.0 / static_cast<double>(util::kHoursPerWeek));
  }

  // Use the most recent `full_weeks` complete weeks, aligned so that the
  // hour-of-week phase is preserved.
  std::vector<double> sums(util::kHoursPerWeek, 0.0);
  const std::size_t used_hours = full_weeks * util::kHoursPerWeek;
  const std::size_t start = history.size() - used_hours;
  for (std::size_t i = 0; i < used_hours; ++i) {
    const std::size_t absolute_hour = start + i;
    sums[util::hour_of_week(absolute_hour)] += history[absolute_hour];
  }

  const double total = std::accumulate(sums.begin(), sums.end(), 0.0);
  if (total <= 0.0) {
    return std::vector<double>(util::kHoursPerWeek,
                               1.0 / static_cast<double>(util::kHoursPerWeek));
  }
  for (double& s : sums) s /= total;
  return sums;
}

}  // namespace billcap::workload
