#include "queueing/ggm.hpp"

#include <cmath>
#include <stdexcept>

namespace billcap::queueing {

namespace {

void check_params(const GgmParams& params) {
  if (!(params.service_rate > 0.0))
    throw std::invalid_argument("GgmParams: service_rate must be > 0");
  if (params.ca2 < 0.0 || params.cb2 < 0.0)
    throw std::invalid_argument("GgmParams: squared CVs must be >= 0");
}

double variability(const GgmParams& params) noexcept {
  return 0.5 * (params.ca2 + params.cb2);
}

}  // namespace

double fractional_servers_for_response_time(const GgmParams& params,
                                            double arrival_rate,
                                            double target_response) {
  check_params(params);
  if (arrival_rate < 0.0)
    throw std::invalid_argument("arrival_rate must be >= 0");
  const auto coefs = server_requirement_coefficients(params, target_response);
  if (arrival_rate == 0.0) return 0.0;
  return coefs.slope * arrival_rate + coefs.intercept;
}

std::uint64_t min_servers_for_response_time(const GgmParams& params,
                                            double arrival_rate,
                                            double target_response) {
  const double fractional =
      fractional_servers_for_response_time(params, arrival_rate, target_response);
  if (fractional == 0.0) return 0;
  const double ceiled = std::ceil(fractional - 1e-9);
  return static_cast<std::uint64_t>(ceiled);
}

ServerRequirementCoefficients server_requirement_coefficients(
    const GgmParams& params, double target_response) {
  check_params(params);
  const double mu = params.service_rate;
  const double slack = target_response - 1.0 / mu;
  if (!(slack > 0.0))
    throw std::invalid_argument(
        "target_response must exceed the service time 1/mu");
  ServerRequirementCoefficients coefs;
  coefs.slope = 1.0 / mu;
  coefs.intercept = variability(params) / (mu * slack);
  return coefs;
}

}  // namespace billcap::queueing
