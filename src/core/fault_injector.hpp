#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace billcap::core {

/// A deterministic schedule of operational hazards injected into the
/// closed-loop month: site outages, stale market-data feeds, background
/// demand shocks and solver node-budget squeezes. Hours are month-local
/// (0 = first evaluation hour); intervals are [start, start + duration).
/// The plan is plain data — build it by hand for targeted scenarios or via
/// generate_fault_plan for rate-driven sweeps.
struct FaultPlan {
  /// A site's capacity is forced to zero for the interval; surviving sites
  /// absorb what they can and the rest is shed.
  struct SiteOutage {
    std::size_t site = 0;
    std::size_t start_hour = 0;
    std::size_t duration_hours = 0;
  };
  /// The market feed freezes: the optimizer plans every hour of the
  /// interval against the background demand last seen before it started,
  /// while ground-truth billing uses the real demand.
  struct StaleInterval {
    std::size_t start_hour = 0;
    std::size_t duration_hours = 0;
  };
  /// Background demand at one site is multiplied for the interval (a
  /// heat-wave or industrial surge at that location).
  struct DemandShock {
    std::size_t site = 0;
    std::size_t start_hour = 0;
    std::size_t duration_hours = 0;
    double multiplier = 1.0;
  };
  /// Every MILP solve in the interval gets a tight branch-and-bound node
  /// budget (an overloaded control node must still produce an allocation
  /// on time). Deterministic, unlike a wall-clock deadline, so a squeezed
  /// month resumes and replays bit for bit.
  struct DeadlineSqueeze {
    std::size_t start_hour = 0;
    std::size_t duration_hours = 0;
    long node_budget = 0;  ///< per-solve max_nodes; <= 0 = no squeeze
  };

  /// The controller process dies. Consumed by Simulator::run_resumable,
  /// not by the per-hour injector: the run aborts at `hour` and must be
  /// resumed from its durable checkpoint. `before_checkpoint` chooses the
  /// kill instant — false models dying right after hour `hour`'s
  /// checkpoint committed (the hour survives), true models dying after the
  /// hour was computed but *before* its checkpoint was written (the resume
  /// must recompute it). Each entry fires once; the checkpoint records how
  /// many have fired so a resumed run does not re-crash on the same entry.
  struct ControllerCrash {
    std::size_t hour = 0;
    bool before_checkpoint = false;
  };

  /// A repeated-death defect: the controller dies `count` times in a row at
  /// `hour`, always *before* that hour's checkpoint commits, so each restart
  /// makes zero forward progress. Consumed by Simulator::run_resumable; the
  /// checkpoint records how many deaths have been consumed. This is the
  /// scenario a supervisor's escalation logic exists for — a per-crash
  /// restart never gets past the hour, only standby mode (which bypasses
  /// the primary decide path where the defect lives) does.
  struct ExitStorm {
    std::size_t hour = 0;
    std::size_t count = 0;
  };

  /// A flash crowd: interactive arrivals across the whole fleet are
  /// multiplied for the interval (a viral event, not a single-site surge —
  /// contrast DemandShock, which scales one site's *background* demand).
  /// Consumed by the serve-mode ingest plane, which scales per-tick request
  /// arrivals; the hourly batch loop ignores it.
  struct FlashCrowd {
    std::size_t start_hour = 0;
    std::size_t duration_hours = 0;
    double multiplier = 1.0;
  };

  /// A feed burst: the market feed emits `updates_per_tick` mid-hour price
  /// revisions every serve tick of the interval (normally it emits at hour
  /// boundaries only). Stresses the bounded FeedUpdateQueue and the re-plan
  /// circuit breaker; the hourly batch loop ignores it.
  struct FeedBurst {
    std::size_t start_hour = 0;
    std::size_t duration_hours = 0;
    std::size_t updates_per_tick = 0;
  };

  /// The newest checkpoint generation is corrupted (bit rot, torn device
  /// write below the filesystem) right after hour `hour` commits, and the
  /// controller dies. A resume must fall back to an older generation and
  /// replay at most one hour. Fires once; the *fallback* generation carries
  /// the advanced cursor so the replay cannot re-corrupt itself forever.
  struct CheckpointCorruption {
    std::size_t hour = 0;
  };

  /// A whole region drops off the fleet for the interval (shared substation
  /// or backbone failure — every site in the region is down at once, so a
  /// per-site outage draw would essentially never produce it). Region
  /// indices follow the FleetController's region catalog.
  struct RegionOutage {
    std::size_t region = 0;
    std::size_t start_hour = 0;
    std::size_t duration_hours = 0;
  };

  /// One region's chunk solver stalls: every MILP solve for that chunk gets
  /// a crushing branch-and-bound node budget for the interval (a sick
  /// control node grinding through swap). The chunk's deadline envelope
  /// must degrade it locally — the fleet hour still completes.
  struct ChunkSolverStall {
    std::size_t region = 0;
    std::size_t start_hour = 0;
    std::size_t duration_hours = 0;
    long node_budget = 1;  ///< per-solve max_nodes while stalled
  };

  /// One region's solver arena is squeezed to `arena_bytes` for the
  /// interval (memory pressure on that chunk's control node). Solves hit
  /// lp::SolveStatus::kArenaExhausted and the chunk degrades with
  /// FailureReason::kArenaExhausted.
  struct ChunkArenaSqueeze {
    std::size_t region = 0;
    std::size_t start_hour = 0;
    std::size_t duration_hours = 0;
    std::size_t arena_bytes = 1;
  };

  /// A transmission line drops out of the grid for the interval (storm
  /// damage, protection trip). The closed-loop market coupler re-solves the
  /// DC-OPF on the reduced network, so LMPs — and the re-derived step
  /// curves — jump; open-loop runs keep their static curves and simply do
  /// not see it. Line indices follow the coupled grid's line catalog.
  struct TransmissionLineOutage {
    std::size_t line = 0;
    std::size_t start_hour = 0;
    std::size_t duration_hours = 0;
  };

  /// The *grid-side* background demand at one bus is multiplied for the
  /// interval (a regional heat wave seen by the ISO). Contrast DemandShock,
  /// which scales one site's billing-base demand: this kind moves the
  /// coupled OPF's nodal load — and therefore the LMPs the coupler derives
  /// curves from — without touching the billing base.
  struct BackgroundDemandShock {
    std::size_t bus = 0;
    std::size_t start_hour = 0;
    std::size_t duration_hours = 0;
    double multiplier = 1.0;
  };

  /// A line's thermal limit is derated for the interval (ambient heat,
  /// conservative re-rating after a near-trip). Congestion binds earlier,
  /// so price steps appear at lower load. Only lines with a finite nominal
  /// limit are affected. Overlapping spikes: the tightest factor wins.
  struct CongestionSpike {
    std::size_t line = 0;
    std::size_t start_hour = 0;
    std::size_t duration_hours = 0;
    double limit_factor = 1.0;  ///< limit is multiplied by this (< 1 derates)
  };

  std::vector<SiteOutage> outages;
  std::vector<StaleInterval> stale_intervals;
  std::vector<DemandShock> demand_shocks;
  std::vector<DeadlineSqueeze> deadline_squeezes;
  std::vector<ControllerCrash> crashes;
  std::vector<ExitStorm> exit_storms;
  std::vector<CheckpointCorruption> checkpoint_corruptions;
  std::vector<FlashCrowd> flash_crowds;
  std::vector<FeedBurst> feed_bursts;
  std::vector<RegionOutage> region_outages;
  std::vector<ChunkSolverStall> chunk_stalls;
  std::vector<ChunkArenaSqueeze> chunk_squeezes;
  std::vector<TransmissionLineOutage> line_outages;
  std::vector<BackgroundDemandShock> grid_demand_shocks;
  std::vector<CongestionSpike> congestion_spikes;

  bool empty() const noexcept {
    return outages.empty() && stale_intervals.empty() &&
           demand_shocks.empty() && deadline_squeezes.empty() &&
           crashes.empty() && exit_storms.empty() &&
           checkpoint_corruptions.empty() && flash_crowds.empty() &&
           feed_bursts.empty() && region_outages.empty() &&
           chunk_stalls.empty() && chunk_squeezes.empty() &&
           line_outages.empty() && grid_demand_shocks.empty() &&
           congestion_spikes.empty();
  }
};

/// Node budget of a rate-drawn squeeze: tight enough that the capper's
/// branch-and-bound stops short and falls down the degradation ladder.
inline constexpr long kDrawnSqueezeNodes = 3;

/// Per-hour fault *rates* for randomized resilience sweeps. A fault of each
/// kind starts independently each hour with the given probability;
/// durations are drawn uniformly in [1, 2 * mean - 1] so the mean holds.
struct FaultRates {
  double outage_rate = 0.0;        ///< per site-hour
  std::size_t outage_mean_hours = 6;
  double stale_rate = 0.0;         ///< per hour
  std::size_t stale_mean_hours = 4;
  double shock_rate = 0.0;         ///< per site-hour
  std::size_t shock_mean_hours = 3;
  double shock_multiplier = 1.5;
  double squeeze_rate = 0.0;       ///< per hour
  std::size_t squeeze_mean_hours = 2;  ///< each draws kDrawnSqueezeNodes
  double crash_rate = 0.0;         ///< controller death per hour

  bool any() const noexcept {
    return outage_rate > 0.0 || stale_rate > 0.0 || shock_rate > 0.0 ||
           squeeze_rate > 0.0 || crash_rate > 0.0;
  }
};

/// Draws a FaultPlan from the rates, deterministically in `seed`: the same
/// (rates, horizon, num_sites, seed) quadruple always yields the same plan.
FaultPlan generate_fault_plan(const FaultRates& rates,
                              std::size_t horizon_hours,
                              std::size_t num_sites, std::uint64_t seed);

/// Precomputed per-hour view of a FaultPlan, the object the simulator
/// queries inside the hourly loop. Hours at or beyond the horizon report
/// "no fault" (multi-month runs outlive a month-scoped plan).
class FaultInjector {
 public:
  /// No faults at all (default-constructed injector is free to query).
  FaultInjector() = default;

  FaultInjector(const FaultPlan& plan, std::size_t num_sites,
                std::size_t horizon_hours);

  /// Fleet-aware injector: also precomputes the region-scoped kinds
  /// (RegionOutage / ChunkSolverStall / ChunkArenaSqueeze) against
  /// `num_regions` chunk slots. The 3-argument constructor leaves those
  /// kinds inert (queries report "no fault").
  FaultInjector(const FaultPlan& plan, std::size_t num_sites,
                std::size_t num_regions, std::size_t horizon_hours);

  bool enabled() const noexcept { return enabled_; }

  bool site_available(std::size_t site, std::size_t hour) const noexcept;
  /// Number of sites down this hour.
  std::size_t sites_down(std::size_t hour) const noexcept;

  bool prices_stale(std::size_t hour) const noexcept;
  /// The hour whose market data the optimizer actually observes: `hour`
  /// when the feed is fresh, the last pre-interval hour when stale.
  std::size_t observed_market_hour(std::size_t hour) const noexcept;

  double demand_multiplier(std::size_t site, std::size_t hour) const noexcept;

  /// Per-solve MILP node budget for the hour; 0 = no squeeze. When
  /// several squeezes overlap, the tightest (smallest) budget wins.
  long solver_node_budget(std::size_t hour) const noexcept;

  /// Fleet-wide interactive-arrival multiplier for the hour (flash crowds;
  /// overlapping crowds compound). 1.0 when calm.
  double arrival_multiplier(std::size_t hour) const noexcept;

  /// Mid-hour price revisions the feed emits per serve tick this hour
  /// (feed bursts; overlapping bursts add). 0 when calm.
  std::size_t feed_burst_updates(std::size_t hour) const noexcept;

  /// True when the whole region is down this hour (RegionOutage).
  bool region_down(std::size_t region, std::size_t hour) const noexcept;
  /// Stalled chunk's per-solve node budget; 0 = no stall. Overlapping
  /// stalls: the tightest (smallest) budget wins.
  long chunk_node_budget(std::size_t region, std::size_t hour) const noexcept;
  /// Squeezed chunk's per-solve arena byte cap; 0 = no squeeze.
  /// Overlapping squeezes: the tightest cap wins.
  std::size_t chunk_arena_bytes(std::size_t region,
                                std::size_t hour) const noexcept;

  /// True when the transmission line is out this hour
  /// (TransmissionLineOutage). Line indices beyond the plan report false.
  bool line_out(std::size_t line, std::size_t hour) const noexcept;
  /// Thermal-limit derate factor for the line this hour (CongestionSpike;
  /// overlapping spikes take the tightest). 1.0 when nominal.
  double line_limit_factor(std::size_t line, std::size_t hour) const noexcept;
  /// Grid-side background multiplier at the bus this hour
  /// (BackgroundDemandShock; overlapping shocks compound). 1.0 when calm.
  double bus_demand_multiplier(std::size_t bus,
                               std::size_t hour) const noexcept;
  /// True when any grid-side fault (line outage, congestion spike, bus
  /// demand shock) is active this hour — lets the coupler skip building a
  /// per-hour fault view on calm hours.
  bool grid_faulted(std::size_t hour) const noexcept;
  /// Extents of the precomputed grid-fault arrays (max plan index + 1).
  std::size_t grid_lines() const noexcept { return num_lines_; }
  std::size_t grid_buses() const noexcept { return num_buses_; }

 private:
  bool enabled_ = false;
  std::size_t num_sites_ = 0;
  std::size_t num_regions_ = 0;
  std::size_t horizon_ = 0;
  std::vector<std::uint8_t> down_;          // [site * horizon + hour]
  std::vector<std::size_t> observed_hour_;  // [hour]
  std::vector<double> multiplier_;          // [site * horizon + hour]
  std::vector<long> squeeze_nodes_;         // [hour]
  std::vector<double> arrival_mult_;        // [hour]
  std::vector<std::size_t> burst_updates_;  // [hour]
  std::vector<std::uint8_t> region_down_;   // [region * horizon + hour]
  std::vector<long> stall_nodes_;           // [region * horizon + hour]
  std::vector<std::size_t> squeeze_bytes_;  // [region * horizon + hour]
  std::size_t num_lines_ = 0;               // grid-fault array extents
  std::size_t num_buses_ = 0;
  std::vector<std::uint8_t> line_out_;      // [line * horizon + hour]
  std::vector<double> line_factor_;         // [line * horizon + hour]
  std::vector<double> bus_mult_;            // [bus * horizon + hour]
  std::vector<std::uint8_t> grid_faulted_;  // [hour]
};

}  // namespace billcap::core
