#include "datacenter/datacenter.hpp"

#include <algorithm>
#include <stdexcept>

namespace billcap::datacenter {

namespace {
constexpr double kWattsPerMw = 1e6;
}

DataCenter::DataCenter(DataCenterSpec spec)
    : spec_(std::move(spec)),
      server_coefs_(queueing::server_requirement_coefficients(
          spec_.queue, spec_.response_target_hours)) {
  if (spec_.max_servers == 0)
    throw std::invalid_argument("DataCenter: max_servers must be > 0");
  if (spec_.max_servers > spec_.topology.total_hosts())
    throw std::invalid_argument(
        "DataCenter: fat-tree cannot host max_servers (" + spec_.name + ")");
  if (!(spec_.power_cap_mw > 0.0))
    throw std::invalid_argument("DataCenter: power cap must be > 0");
  if (spec_.operating_utilization <= 0.0 || spec_.operating_utilization > 1.0)
    throw std::invalid_argument(
        "DataCenter: operating_utilization must be in (0, 1]");
}

double DataCenter::active_server_watts() const noexcept {
  return spec_.server.power_watts(spec_.operating_utilization);
}

std::uint64_t DataCenter::servers_for(double lambda_per_hour) const {
  const std::uint64_t n = queueing::min_servers_for_response_time(
      spec_.queue, lambda_per_hour, spec_.response_target_hours);
  if (n > spec_.max_servers)
    throw std::invalid_argument("DataCenter " + spec_.name +
                                ": load exceeds server capacity");
  return n;
}

double DataCenter::max_requests_per_hour() const noexcept {
  // n_frac(lambda) = slope * lambda + intercept <= max_servers.
  const double head =
      static_cast<double>(spec_.max_servers) - server_coefs_.intercept;
  return std::max(0.0, head / server_coefs_.slope);
}

double DataCenter::max_requests_within_power_cap() const noexcept {
  const AffinePower p = affine_power();
  const double by_power =
      p.slope_mw_per_request_hour > 0.0
          ? std::max(0.0, (spec_.power_cap_mw - p.intercept_mw) /
                              p.slope_mw_per_request_hour)
          : max_requests_per_hour();
  return std::min(max_requests_per_hour(), by_power);
}

DataCenter::PowerBreakdown DataCenter::power_breakdown(
    double lambda_per_hour) const {
  PowerBreakdown out;
  const std::uint64_t n = servers_for(lambda_per_hour);
  if (n == 0) return out;
  out.server_mw =
      static_cast<double>(n) * active_server_watts() / kWattsPerMw;
  out.network_mw =
      network_power_watts(spec_.topology, spec_.switch_powers, n) / kWattsPerMw;
  out.cooling_mw = spec_.cooling.power_watts(
                       (out.server_mw + out.network_mw) * kWattsPerMw) /
                   kWattsPerMw;
  return out;
}

double DataCenter::power_mw(double lambda_per_hour) const {
  return power_breakdown(lambda_per_hour).total_mw();
}

DataCenter::AffinePower DataCenter::affine_power() const noexcept {
  // Watts per active server: server itself + its continuous network share,
  // grossed up by the cooling overhead (eq. 4-7 combined).
  const double per_server_watts =
      (active_server_watts() +
       network_watts_per_server(spec_.topology, spec_.switch_powers)) *
      spec_.cooling.overhead_factor();
  AffinePower out;
  out.slope_mw_per_request_hour =
      server_coefs_.slope * per_server_watts / kWattsPerMw;
  out.intercept_mw = server_coefs_.intercept * per_server_watts / kWattsPerMw;
  return out;
}

DataCenter::AffinePower DataCenter::affine_server_power_only() const noexcept {
  AffinePower out;
  out.slope_mw_per_request_hour =
      server_coefs_.slope * active_server_watts() / kWattsPerMw;
  out.intercept_mw =
      server_coefs_.intercept * active_server_watts() / kWattsPerMw;
  return out;
}

}  // namespace billcap::datacenter
