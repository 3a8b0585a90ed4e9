#pragma once

#include <cstdint>

#include "queueing/ggm.hpp"

namespace billcap::queueing {

/// Closed-form queueing results the tests hold the models to. No
/// production code evaluates them: the capper sizes sites through the
/// affine server requirement in ggm.hpp, whose provenance these check.

/// Erlang-C probability that an arriving job must wait in an M/M/m queue
/// with arrival rate lambda and per-server service rate mu. Requires
/// stability (lambda < m*mu); returns 1.0 at or beyond saturation.
/// Computed with a numerically-stable recurrence (no factorials).
double erlang_c(std::uint64_t m_servers, double arrival_rate,
                double service_rate) noexcept;

/// Exact mean response time of an M/M/m queue:
///   R = 1/mu + C(m, lambda/mu) / (m*mu - lambda),
/// with C the Erlang-C delay probability above. Returns +inf when
/// unstable.
double mmm_response_time(std::uint64_t m_servers, double arrival_rate,
                         double service_rate) noexcept;

/// Exact mean response time of an M/M/1 queue: 1 / (mu - lambda).
/// Returns +inf when unstable.
double mm1_response_time(double arrival_rate, double service_rate) noexcept;

/// Smallest m with exact M/M/m response time <= target. Linear scan from
/// the stability floor. Throws std::invalid_argument when target <= 1/mu.
std::uint64_t mmm_min_servers(double arrival_rate, double service_rate,
                              double target_response);

/// Allen-Cunneen response time of a G/G/m queue with n busy servers and
/// arrival rate lambda, using the paper's rho -> 1 simplification (eq. 3):
///   R = 1/mu + ((C_A^2 + C_B^2)/2) * 1/(n*mu - lambda).
/// The affine server requirement (min_servers_for_response_time,
/// server_requirement_coefficients) inverts this. Requires n*mu > lambda
/// (stability); returns +inf otherwise.
double allen_cunneen_response_time(const GgmParams& params, double n_servers,
                                   double arrival_rate) noexcept;

/// Full Allen-Cunneen approximation (without the rho -> 1 shortcut), with
/// Sakasegawa's approximation of the Erlang-C delay probability:
///   Wq ~= (C_A^2 + C_B^2)/2 * rho^(sqrt(2(m+1)) - 1) / (m (1 - rho) mu).
/// The sensitivity reference for the simplified model. Returns +inf when
/// unstable.
double allen_cunneen_full_response_time(const GgmParams& params,
                                        std::uint64_t m_servers,
                                        double arrival_rate) noexcept;

}  // namespace billcap::queueing
