#pragma once

#include <cstdint>

namespace billcap::datacenter {

/// A k-ary fat-tree data-center network (Al-Fares et al. [18], the topology
/// the paper assumes for its networking power model, eq. 6). For even k:
///   * k pods, each with k/2 edge and k/2 aggregation switches;
///   * each edge switch connects k/2 hosts, so a pod hosts (k/2)^2 servers
///     and the fabric supports k^3/4 hosts total;
///   * (k/2)^2 core switches.
///
/// Active switch counts scale with the number of active servers, servers
/// being packed pod-by-pod (ElasticTree-style consolidation [4]): an edge
/// switch is on when any of its hosts is active, aggregation and core
/// switches in proportion to the active fraction of the fabric they serve.
class FatTree {
 public:
  /// Builds a k-ary fat-tree. Requires k even and >= 2.
  explicit FatTree(unsigned k);

  unsigned k() const noexcept { return k_; }
  std::uint64_t total_hosts() const noexcept;
  std::uint64_t hosts_per_edge_switch() const noexcept { return k_ / 2; }
  std::uint64_t hosts_per_pod() const noexcept;
  std::uint64_t core_switches_total() const noexcept;

  /// Counts of switches that must be powered with `active_servers` servers
  /// on (packed). Throws std::invalid_argument beyond total_hosts().
  struct ActiveSwitches {
    std::uint64_t edge = 0;
    std::uint64_t aggregation = 0;
    std::uint64_t core = 0;
  };
  ActiveSwitches active_switches(std::uint64_t active_servers) const;

  /// Continuous (un-ceiled) switches-per-server ratios; these are the
  /// proportionality constants A_i, B_i, C_i of eq. 6 that the MILP's affine
  /// power model uses.
  struct SwitchRatios {
    double edge_per_server = 0.0;
    double aggregation_per_server = 0.0;
    double core_per_server = 0.0;
  };
  SwitchRatios switch_ratios() const noexcept;

 private:
  unsigned k_;
};

/// Per-class average switch powers (watts), constant regardless of traffic:
/// today's network elements are not energy proportional (a switch from zero
/// to full traffic gains < 8 % [4]).
struct SwitchPowers {
  double edge_watts = 0.0;
  double aggregation_watts = 0.0;
  double core_watts = 0.0;
};

/// Total network power (watts) for a packed set of active servers.
double network_power_watts(const FatTree& topology, const SwitchPowers& power,
                           std::uint64_t active_servers);

/// Continuous network watts per active server (the affine-model slope).
double network_watts_per_server(const FatTree& topology,
                                const SwitchPowers& power) noexcept;

}  // namespace billcap::datacenter
