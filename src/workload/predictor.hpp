#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace billcap::workload {

/// Hour-of-week workload weights from trailing history (Section VI-B): the
/// average arrival rate seen in each of the 168 hours of the week over the
/// last `weeks` full weeks, normalized to sum to 1 across the week. The
/// budgeter splits the monthly budget along these weights.
///
/// Uses the most recent `weeks` complete weeks of `history`; if fewer than
/// one full week is available, returns uniform weights (1/168 each).
std::vector<double> hour_of_week_weights(std::span<const double> history,
                                         std::size_t weeks = 2);

}  // namespace billcap::workload
