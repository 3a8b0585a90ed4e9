#include "queueing/mmm.hpp"

namespace billcap::queueing {

double erlang_c(std::uint64_t m_servers, double arrival_rate,
                double service_rate) noexcept {
  if (m_servers == 0) return 1.0;
  const double a = arrival_rate / service_rate;  // offered load (Erlangs)
  const double m = static_cast<double>(m_servers);
  if (a >= m) return 1.0;
  if (a == 0.0) return 0.0;

  // Stable recurrence on the Erlang-B blocking probability:
  //   B(0) = 1;  B(k) = a B(k-1) / (k + a B(k-1)).
  double b = 1.0;
  for (std::uint64_t k = 1; k <= m_servers; ++k) {
    const double kd = static_cast<double>(k);
    b = a * b / (kd + a * b);
  }
  const double rho = a / m;
  return b / (1.0 - rho * (1.0 - b));
}

}  // namespace billcap::queueing
