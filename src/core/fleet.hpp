#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/bill_capper.hpp"
#include "core/fault_injector.hpp"
#include "core/simulator.hpp"
#include "util/thread_pool.hpp"

namespace billcap::core {

/// A group of sites managed by one regional capper.
struct Region {
  std::string name;
  std::vector<std::size_t> site_indices;  ///< into the global site catalog
};

/// Partitions sites into contiguous regions of at most
/// `max_sites_per_region` sites.
std::vector<Region> contiguous_regions(std::size_t num_sites,
                                       std::size_t max_sites_per_region);

/// How a region's chunk solve ended this fleet hour.
enum class ChunkStatus {
  kOk,           ///< clean solve on the top rung
  kDegraded,     ///< deadline / arena / throw — fell down the ladder locally
  kQuarantined,  ///< region pinned to premium-only standby by the ladder
  kRegionDown,   ///< RegionOutage: the whole region served nothing
};

/// Per-chunk solve deadline: a node budget. It is deterministic (the same
/// solve always burns the same nodes), so results stay bitwise-identical
/// across hosts and thread counts.
struct ChunkDeadline {
  long max_nodes = 20'000;  ///< per-solve B&B budget; <= 0 keeps the
                            ///< OptimizerOptions' own
};

/// Sliding-window quarantine, mirroring SupervisorPolicy's restart budget:
/// `trip_failures` degraded chunks within the last `window_hours` pin the
/// region to premium-only standby for `quarantine_hours`, after which it
/// gets a clean probation window.
struct QuarantineOptions {
  std::size_t window_hours = 8;
  std::size_t trip_failures = 3;
  std::size_t quarantine_hours = 4;
};

struct FleetOptions {
  OptimizerOptions optimizer;
  ChunkDeadline deadline;
  QuarantineOptions quarantine;
};

/// One region's contribution to a fleet hour.
struct ChunkOutcome {
  std::size_t region = 0;
  ChunkStatus status = ChunkStatus::kOk;
  FailureReason failure = FailureReason::kNone;
  CappingOutcome outcome;
};

/// The merged fleet hour: the global view (worst mode, summed service and
/// cost, site rates in global order) plus the per-chunk fault accounting.
struct FleetHourOutcome {
  CappingOutcome::Mode mode = CappingOutcome::Mode::kUncapped;
  double served_premium = 0.0;
  double served_ordinary = 0.0;
  double predicted_cost = 0.0;
  double dropped_capacity = 0.0;
  std::vector<double> site_lambda;  ///< global site order
  std::vector<ChunkOutcome> chunks;
  std::size_t degraded_chunks = 0;
  std::size_t quarantined_chunks = 0;
  std::size_t region_down_chunks = 0;
};

/// A synthetic scenario-month for the fleet: deterministic in `seed`, with
/// sinusoidal-plus-noise arrivals and per-site background demand. All
/// random draws happen serially in hour order before any chunk dispatch,
/// so the month is a pure function of this config regardless of threads.
struct FleetMonthConfig {
  std::size_t hours = 24;
  std::uint64_t seed = 0;
  double base_premium = 0.0;     ///< mean premium arrivals/hour
  double base_ordinary = 0.0;    ///< mean ordinary arrivals/hour
  double base_demand_mw = 5.0;   ///< mean per-site background demand
  double hourly_budget = 0.0;    ///< flat per-hour budget
  FaultPlan faults;              ///< region-scoped kinds welcome
};

/// The two-level bill capping architecture sketched in Section IX, made
/// fault-isolated and parallel for a 100-site fleet. Each hour a thin
/// coordinator splits workload and budget across regions in proportion to
/// regional believed capacity, and every region runs the full two-step
/// algorithm on its own small site set: complexity stays exponential only
/// in one region's sites x price levels, so the fleet scales by adding
/// regions. The price of decentralization is coordination loss (a region
/// cannot shift load or budget to another mid-hour); the
/// hierarchical_scale bench measures both the speedup and the optimality
/// gap against the flat capper.
///
/// The chunk solves (one per region) shard across a util::ThreadPool, or
/// run inline with no pool. Every chunk solve runs inside a fault envelope:
///
///   - a per-chunk deadline (a deterministic node budget),
///   - typed failure classification (node limit / infeasible / arena-exhausted
///     / thrown),
///   - automatic degradation to the greedy fallback (BillCapper's ladder)
///     or, when the chunk's own envelope trips, premium-only standby —
///     a failed region sheds locally and never poisons the fleet hour,
///   - a sliding-window quarantine that pins repeatedly-failing regions to
///     premium-only standby until they recover.
///
/// Determinism: chunk results are reduced in region-index order, each
/// region's solver arena is touched by exactly one task per hour, and no
/// accumulation happens under locks — decide_hour is bitwise-identical for
/// any thread count, including none.
class FleetController {
 public:
  /// Every site must belong to exactly one region (throws
  /// std::invalid_argument otherwise). `pool` may be null (chunks solve
  /// inline, serially). The caller keeps sites/policies/pool alive for the
  /// controller's lifetime.
  FleetController(const std::vector<datacenter::DataCenter>& sites,
                  const std::vector<market::PricingPolicy>& policies,
                  std::vector<Region> regions, FleetOptions options = {},
                  util::ThreadPool* pool = nullptr);

  std::size_t num_regions() const noexcept { return regions_.size(); }
  std::size_t num_sites() const noexcept { return num_sites_; }

  /// Decides one fleet hour. `injector` may be null (no faults); pass one
  /// built with the region-aware constructor to exercise RegionOutage /
  /// ChunkSolverStall / ChunkArenaSqueeze. Never throws on chunk trouble —
  /// only on caller bugs (size mismatches).
  FleetHourOutcome decide_hour(std::size_t hour, double lambda_premium,
                               double lambda_ordinary,
                               std::span<const double> other_demand_mw,
                               double hourly_budget,
                               const FaultInjector* injector = nullptr);

  /// Runs a synthetic scenario-month through decide_hour and folds the
  /// hours with MonthlyResult::accumulate (chunk counters filled in; `cost`
  /// is the coordinator's predicted cost — the fleet bench compares months,
  /// not billing).
  MonthlyResult run_month(const FleetMonthConfig& config);

  /// Test seam: called inside each chunk's fault envelope, before the
  /// solve; may throw to exercise the kThrown classification
  /// deterministically. Null in production.
  std::function<void(std::size_t region, std::size_t hour)> chunk_fault_hook;

 private:
  struct ChunkInput;
  struct QuarantineState {
    std::vector<std::size_t> recent_failures;  ///< hour stamps, pruned
    std::size_t quarantined_until = 0;         ///< hour < this => standby
  };

  ChunkOutcome run_chunk(const ChunkInput& input) const;

  const std::vector<datacenter::DataCenter>& sites_;
  const std::vector<market::PricingPolicy>& policies_;
  FleetOptions options_;
  util::ThreadPool* pool_ = nullptr;
  std::size_t num_sites_ = 0;
  std::vector<Region> regions_;
  // Per-region materialized catalogs (BillCapper holds references), then
  // one persistent capper per region so each region's solver arenas keep
  // their allocations hour over hour. The cappers are built strictly after
  // the catalogs stop moving, and each is driven by at most one chunk task
  // per hour (a capper is not thread-safe).
  std::vector<std::vector<datacenter::DataCenter>> region_sites_;
  std::vector<std::vector<market::PricingPolicy>> region_policies_;
  std::vector<BillCapper> region_cappers_;
  std::vector<QuarantineState> quarantine_;
};

/// Bitwise-stable CSV rendering of a fleet month: one row per hour with
/// shortest-round-trip doubles and an FNV-1a hash of the hour's site_lambda
/// double bits. Two runs are bitwise-identical iff their CSVs are equal —
/// the thread-count invariance test and the bench digest both key on this.
std::string fleet_month_csv(const MonthlyResult& result);

}  // namespace billcap::core
