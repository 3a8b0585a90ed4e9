#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datacenter/cooling.hpp"
#include "datacenter/fat_tree.hpp"
#include "datacenter/server.hpp"
#include "queueing/ggm.hpp"

namespace billcap::datacenter {

/// Static description of one data-center site (Section VI-A). All rates are
/// per hour (the paper's invocation period), all power figures in watts at
/// device level; aggregate power is reported in MW to match the $/MWh
/// electricity prices.
struct DataCenterSpec {
  std::string name;
  queueing::GgmParams queue;     ///< service_rate = requests/hour per server
  double response_target_hours;  ///< Rs_i, the per-site QoS set point
  ServerModel server;            ///< per-server power model
  double operating_utilization;  ///< utilization the local optimizer runs at
  std::uint64_t max_servers;     ///< hosted servers (up to 300,000)
  FatTree topology;              ///< k-ary fat-tree network
  SwitchPowers switch_powers;    ///< esp/asp/csp averages (eq. 6)
  CoolingModel cooling;          ///< coe_i (eq. 7)
  double power_cap_mw;           ///< Ps_i, supplier-imposed draw cap
};

/// One data-center site: combines the queueing-based local optimizer
/// (minimum active servers for the response-time set point) with the
/// three-part power model p = p_server + p_networking + p_cooling
/// (eq. 4-7). This is both the ground-truth cost model's physics and, via
/// affine_power(), the linear coefficients the MILP formulations embed.
class DataCenter {
 public:
  explicit DataCenter(DataCenterSpec spec);

  const DataCenterSpec& spec() const noexcept { return spec_; }
  const std::string& name() const noexcept { return spec_.name; }

  /// Minimum active servers meeting Rs for the given arrival rate — the
  /// paper's per-site local optimizer. Throws if the site cannot serve
  /// `lambda_per_hour` within max_servers.
  std::uint64_t servers_for(double lambda_per_hour) const;

  /// Largest arrival rate the site can serve within max_servers and Rs.
  double max_requests_per_hour() const noexcept;

  /// Largest arrival rate that also respects the power cap Ps (the tighter
  /// of the capacity and power limits); this is the lambda upper bound the
  /// optimizers use.
  double max_requests_within_power_cap() const noexcept;

  /// Exact power breakdown at a given load, using integer server and switch
  /// counts (ground truth for billing).
  struct PowerBreakdown {
    double server_mw = 0.0;
    double network_mw = 0.0;
    double cooling_mw = 0.0;
    double total_mw() const noexcept {
      return server_mw + network_mw + cooling_mw;
    }
  };
  PowerBreakdown power_breakdown(double lambda_per_hour) const;

  /// Total site power (MW) at a given load.
  double power_mw(double lambda_per_hour) const;

  /// Continuous affine approximation  power_mw ~= slope * lambda + intercept
  /// valid for lambda > 0 (at lambda = 0 the site powers off entirely).
  /// This is what the MILP embeds; it differs from the exact model only by
  /// the server/switch count ceilings (sub-0.1 % at cloud scale).
  struct AffinePower {
    double slope_mw_per_request_hour = 0.0;
    double intercept_mw = 0.0;
  };
  AffinePower affine_power() const noexcept;

  /// Affine model with servers only — what the Min-Only baseline believes
  /// the site consumes (its first limitation: no cooling, no networking).
  AffinePower affine_server_power_only() const noexcept;

  /// Watts drawn by one active server at the operating utilization.
  double active_server_watts() const noexcept;

 private:
  DataCenterSpec spec_;
  queueing::ServerRequirementCoefficients server_coefs_;
};

}  // namespace billcap::datacenter
