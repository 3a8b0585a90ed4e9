#include "queueing/closed_forms.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace billcap::queueing {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double variability(const GgmParams& params) noexcept {
  return 0.5 * (params.ca2 + params.cb2);
}

}  // namespace

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

double mmm_response_time(std::uint64_t m_servers, double arrival_rate,
                         double service_rate) noexcept {
  const double capacity = static_cast<double>(m_servers) * service_rate;
  if (arrival_rate < 0.0 || capacity <= arrival_rate) return kInf;
  if (arrival_rate == 0.0) return 1.0 / service_rate;
  const double c = erlang_c(m_servers, arrival_rate, service_rate);
  return 1.0 / service_rate + c / (capacity - arrival_rate);
}

double mm1_response_time(double arrival_rate, double service_rate) noexcept {
  if (arrival_rate < 0.0 || service_rate <= arrival_rate) return kInf;
  return 1.0 / (service_rate - arrival_rate);
}

std::uint64_t mmm_min_servers(double arrival_rate, double service_rate,
                              double target_response) {
  if (!(target_response > 1.0 / service_rate))
    throw std::invalid_argument(
        "mmm_min_servers: target must exceed the service time");
  if (arrival_rate == 0.0) return 0;
  auto m = static_cast<std::uint64_t>(
      std::floor(arrival_rate / service_rate));  // below stability floor
  for (;;) {
    ++m;
    if (mmm_response_time(m, arrival_rate, service_rate) <= target_response)
      return m;
  }
}

double allen_cunneen_response_time(const GgmParams& params, double n_servers,
                                   double arrival_rate) noexcept {
  const double mu = params.service_rate;
  const double capacity = n_servers * mu;
  if (arrival_rate < 0.0 || capacity <= arrival_rate) return kInf;
  if (arrival_rate == 0.0) return 1.0 / mu;
  return 1.0 / mu + variability(params) / (capacity - arrival_rate);
}

double allen_cunneen_full_response_time(const GgmParams& params,
                                        std::uint64_t m_servers,
                                        double arrival_rate) noexcept {
  const double mu = params.service_rate;
  const double m = static_cast<double>(m_servers);
  const double capacity = m * mu;
  if (arrival_rate < 0.0 || capacity <= arrival_rate) return kInf;
  if (arrival_rate == 0.0) return 1.0 / mu;
  const double rho = arrival_rate / capacity;
  const double exponent = std::sqrt(2.0 * (m + 1.0)) - 1.0;
  const double wq = variability(params) * std::pow(rho, exponent) /
                    (m * (1.0 - rho) * mu);
  return 1.0 / mu + wq;
}

}  // namespace billcap::queueing
