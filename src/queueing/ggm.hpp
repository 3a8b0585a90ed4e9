#pragma once

#include <cstdint>

namespace billcap::queueing {

/// Parameters of a G/G/m data-center queue in the paper's model (eq. 3).
/// Rates are per hour to match the invocation period; a server with service
/// rate mu serves mu requests per hour on average.
struct GgmParams {
  double service_rate = 1.0;  ///< mu: requests/hour per server, > 0
  double ca2 = 1.0;           ///< squared CV of inter-arrival times (C_A^2)
  double cb2 = 1.0;           ///< squared CV of request sizes (C_B^2)
};

/// Minimum number of servers n (integer) such that the simplified
/// Allen-Cunneen response time is <= `target_response`. This is the paper's
/// per-site "local optimizer" (Section IV-B): it keeps just enough servers
/// active to meet the response-time set point Rs.
///
/// Requires target_response > 1/mu (otherwise no finite n works; throws
/// std::invalid_argument). Returns 0 when arrival_rate == 0.
std::uint64_t min_servers_for_response_time(const GgmParams& params,
                                            double arrival_rate,
                                            double target_response);

/// The continuous (un-ceiled) server requirement:
///   n*(lambda) = (lambda + K / (Rs - 1/mu)) / mu,  K = (C_A^2 + C_B^2)/2.
/// This affine function of lambda is what the MILP formulations embed; the
/// integer requirement is its ceiling.
double fractional_servers_for_response_time(const GgmParams& params,
                                            double arrival_rate,
                                            double target_response);

/// Slope (d n*/d lambda = 1/mu) and intercept (K / (mu (Rs - 1/mu))) of the
/// affine server requirement, exposed so model-building code documents its
/// provenance instead of re-deriving the algebra.
struct ServerRequirementCoefficients {
  double slope = 0.0;      ///< servers per (request/hour)
  double intercept = 0.0;  ///< servers required as lambda -> 0+
};
ServerRequirementCoefficients server_requirement_coefficients(
    const GgmParams& params, double target_response);

}  // namespace billcap::queueing
