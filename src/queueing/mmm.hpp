#pragma once

#include <cstdint>

namespace billcap::queueing {

/// Erlang-C probability that an arriving request must wait, for m servers,
/// arrival rate lambda and per-server service rate mu. Requires stability
/// (lambda < m*mu); returns 1.0 at or beyond saturation. Computed with a
/// numerically-stable recurrence (no factorials).
double erlang_c(std::uint64_t m_servers, double arrival_rate,
                double service_rate) noexcept;

}  // namespace billcap::queueing
