#include "workload/trace.hpp"

#include <stdexcept>

namespace billcap::workload {

Trace::Trace(std::vector<double> arrivals_per_hour)
    : arrivals_(std::move(arrivals_per_hour)) {
  for (double a : arrivals_) {
    if (a < 0.0)
      throw std::invalid_argument("Trace: negative arrival rate");
  }
}

Trace Trace::slice(std::size_t start, std::size_t length) const {
  if (start + length > arrivals_.size())
    throw std::out_of_range("Trace::slice: range exceeds series");
  return Trace(std::vector<double>(arrivals_.begin() + static_cast<std::ptrdiff_t>(start),
                                   arrivals_.begin() + static_cast<std::ptrdiff_t>(start + length)));
}

double Trace::total() const noexcept {
  double t = 0.0;
  for (double a : arrivals_) t += a;
  return t;
}

double Trace::mean() const noexcept {
  return arrivals_.empty() ? 0.0 : total() / static_cast<double>(hours());
}

PremiumSplit::PremiumSplit(double premium_share) : share_(premium_share) {
  if (share_ < 0.0 || share_ > 1.0)
    throw std::invalid_argument("PremiumSplit: share must be in [0, 1]");
}

}  // namespace billcap::workload
