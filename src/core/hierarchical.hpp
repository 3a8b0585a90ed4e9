#pragma once

#include <array>
#include <span>
#include <vector>

#include "core/bill_capper.hpp"

namespace billcap::core {

/// A group of sites managed by one regional capper.
struct Region {
  std::string name;
  std::vector<std::size_t> site_indices;  ///< into the global site catalog
};

/// Outcome of one hierarchical invocation: the merged global view plus the
/// per-region decisions.
struct HierarchicalOutcome {
  CappingOutcome::Mode mode = CappingOutcome::Mode::kUncapped;  ///< worst mode
  double served_premium = 0.0;
  double served_ordinary = 0.0;
  double predicted_cost = 0.0;
  double dropped_capacity = 0.0;
  std::vector<double> site_lambda;           ///< global site order
  std::vector<CappingOutcome> region_outcomes;

  /// Per-region failure surfacing: which regions degraded and why, so the
  /// merge does not reduce a region-local solver failure to just the worst
  /// Mode. `failure` is the first degraded region's root cause (region
  /// order — deterministic), `failure_tally` counts every degraded region
  /// by reason, `degraded_regions` lists their indices.
  bool degraded = false;
  FailureReason failure = FailureReason::kNone;
  std::vector<std::size_t> degraded_regions;
  std::array<std::size_t, kFailureReasonCount> failure_tally{};
};

/// The two-level bill capping architecture sketched in Section IX: a thin
/// coordinator splits each hour's workload and budget across regions in
/// proportion to regional believed capacity, and every region runs the
/// full two-step algorithm on its own (small) site set. Complexity per
/// region stays exponential only in that region's sites x price levels, so
/// the network scales by adding regions.
///
/// The price of decentralization is coordination loss: a region cannot
/// shift load or budget to another region mid-hour. The hierarchical_scale
/// bench quantifies both the speedup and the optimality gap against the
/// flat capper.
class HierarchicalCapper {
 public:
  /// Every site must belong to exactly one region; throws otherwise.
  HierarchicalCapper(const std::vector<datacenter::DataCenter>& sites,
                     const std::vector<market::PricingPolicy>& policies,
                     std::vector<Region> regions,
                     OptimizerOptions options = {});

  std::size_t num_regions() const noexcept { return regions_.size(); }

  const Region& region(std::size_t r) const { return regions_.at(r); }

  /// The persistent per-region capper (its solver arenas keep their
  /// allocations hour over hour). Not thread-safe: at most one thread may drive a given
  /// region's capper at a time — the FleetController shards exactly one
  /// task per region per hour for this reason.
  const BillCapper& region_capper(std::size_t r) const {
    return region_cappers_.at(r);
  }

  /// Splits and decides. Arguments mirror BillCapper::decide.
  HierarchicalOutcome decide(double lambda_premium, double lambda_ordinary,
                             std::span<const double> other_demand_mw,
                             double hourly_budget) const;

 private:
  const std::vector<datacenter::DataCenter>& sites_;
  const std::vector<market::PricingPolicy>& policies_;
  std::vector<Region> regions_;
  OptimizerOptions options_;
  // Per-region materialized catalogs (BillCapper holds references), then
  // one persistent capper per region so each region's solver arenas keep
  // their allocations hour over hour.
  // Built strictly after the catalogs are fully populated: the cappers
  // reference catalog elements, which must not move again.
  std::vector<std::vector<datacenter::DataCenter>> region_sites_;
  std::vector<std::vector<market::PricingPolicy>> region_policies_;
  std::vector<BillCapper> region_cappers_;
};

/// Convenience: partitions sites into contiguous regions of at most
/// `max_sites_per_region` sites.
std::vector<Region> contiguous_regions(std::size_t num_sites,
                                       std::size_t max_sites_per_region);

}  // namespace billcap::core
