#include "datacenter/fat_tree.hpp"

#include <cmath>
#include <stdexcept>

namespace billcap::datacenter {

FatTree::FatTree(unsigned k) : k_(k) {
  if (k < 2 || k % 2 != 0)
    throw std::invalid_argument("FatTree: k must be even and >= 2");
}

std::uint64_t FatTree::total_hosts() const noexcept {
  const std::uint64_t k = k_;
  return k * k * k / 4;
}

std::uint64_t FatTree::hosts_per_pod() const noexcept {
  const std::uint64_t half = k_ / 2;
  return half * half;
}

std::uint64_t FatTree::core_switches_total() const noexcept {
  const std::uint64_t half = k_ / 2;
  return half * half;
}

FatTree::ActiveSwitches FatTree::active_switches(
    std::uint64_t active_servers) const {
  if (active_servers > total_hosts())
    throw std::invalid_argument("FatTree: more active servers than hosts");
  ActiveSwitches out;
  if (active_servers == 0) return out;

  const std::uint64_t per_edge = hosts_per_edge_switch();
  out.edge = (active_servers + per_edge - 1) / per_edge;

  // Packed pods: every active pod keeps its k/2 aggregation switches on so
  // intra-pod bandwidth is preserved.
  const std::uint64_t per_pod = hosts_per_pod();
  const std::uint64_t active_pods = (active_servers + per_pod - 1) / per_pod;
  out.aggregation = active_pods * (k_ / 2);

  // Core layer scales with the active fraction of the fabric.
  const double fraction = static_cast<double>(active_servers) /
                          static_cast<double>(total_hosts());
  out.core = static_cast<std::uint64_t>(
      std::ceil(fraction * static_cast<double>(core_switches_total())));
  if (out.core == 0) out.core = 1;  // at least one core path
  return out;
}

FatTree::SwitchRatios FatTree::switch_ratios() const noexcept {
  SwitchRatios r;
  r.edge_per_server = 1.0 / static_cast<double>(hosts_per_edge_switch());
  r.aggregation_per_server = 1.0 / static_cast<double>(hosts_per_edge_switch());
  r.core_per_server = static_cast<double>(core_switches_total()) /
                      static_cast<double>(total_hosts());
  return r;
}

double network_power_watts(const FatTree& topology, const SwitchPowers& power,
                           std::uint64_t active_servers) {
  const auto active = topology.active_switches(active_servers);
  if (active_servers == 0) return 0.0;
  return static_cast<double>(active.edge) * power.edge_watts +
         static_cast<double>(active.aggregation) * power.aggregation_watts +
         static_cast<double>(active.core) * power.core_watts;
}

double network_watts_per_server(const FatTree& topology,
                                const SwitchPowers& power) noexcept {
  const auto r = topology.switch_ratios();
  return r.edge_per_server * power.edge_watts +
         r.aggregation_per_server * power.aggregation_watts +
         r.core_per_server * power.core_watts;
}

}  // namespace billcap::datacenter
