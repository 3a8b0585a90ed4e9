#pragma once

namespace billcap::datacenter {

/// Cooling power model (eq. 7, after Ahmad et al. [3]): the cooling system
/// removes the heat produced by the IT equipment at a given efficiency
///   coe = heat removed / power consumed by the cooling system,
/// so  p_cooling = (p_server + p_networking) / coe.
/// A lower external air temperature yields a higher coe (more efficient
/// outside-air cooling).
class CoolingModel {
 public:
  /// Requires coe > 0. The paper's per-site values are 1.94, 1.39, 1.74.
  explicit CoolingModel(double coe);

  double coe() const noexcept { return coe_; }

  /// Cooling power (watts) needed to remove `it_power_watts` of heat.
  double power_watts(double it_power_watts) const;

  /// Total multiplier applied to IT power: total = IT * overhead_factor().
  double overhead_factor() const noexcept { return 1.0 + 1.0 / coe_; }

 private:
  double coe_;
};

}  // namespace billcap::datacenter
