#pragma once

#include <csignal>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "serve/admission.hpp"
#include "serve/health.hpp"
#include "serve/ingest.hpp"
#include "serve/replan.hpp"

namespace billcap::serve {

/// Knobs of the serving daemon. Everything that changes decisions is mixed
/// into the serve checkpoint digest; `standby` and `die_on_kill` are
/// deliberately excluded (a standby attempt must be able to pick up the
/// primary's checkpoint, exactly like the batch loop).
struct ServeConfig {
  /// Sub-hour reaction granularity: the hour is split into this many
  /// ticks; arrivals, service, billing and checkpoints are per tick.
  std::size_t ticks_per_hour = 6;
  /// Hours to serve (0 = the whole evaluation month).
  std::size_t horizon_hours = 0;

  /// Queue capacities, in units of the trace's crowd-free mean tick
  /// arrivals of each class. 4.0 = the queue absorbs four average ticks of
  /// backlog before the door drops.
  double premium_queue_ticks = 4.0;
  double ordinary_queue_ticks = 4.0;

  /// Bounded mid-hour price-revision queue and its per-tick drain rate.
  std::size_t feed_queue_capacity = 16;
  std::size_t feed_updates_per_tick = 1;

  AdmissionConfig admission;
  core::BreakerConfig breaker;

  /// Per-tick re-plan deadline: a branch-and-bound node cap (<= 0 keeps
  /// the configured MILP limit). It is deterministic, so breaker
  /// trajectories replay bitwise across kill/resume.
  long replan_node_budget = 20000;

  /// Injected daemon deaths: the process dies at these ticks, before the
  /// tick's checkpoint commits (zero forward progress for that tick; the
  /// resume recomputes it). Each entry fires once — the checkpoint records
  /// how many were consumed. Requires a checkpoint path.
  std::vector<std::size_t> kill_at_ticks;

  /// Standby rung (the supervisor's escalation target): admission pinned
  /// to premium-only, no MILP re-plans, injected kills do not fire.
  bool standby = false;
};

/// Everything recorded about one tick.
struct TickRecord {
  std::size_t tick = 0;
  std::size_t hour = 0;
  double premium_arrivals = 0.0;
  double ordinary_arrivals = 0.0;
  double dropped_premium = 0.0;   ///< at the door, this tick
  double dropped_ordinary = 0.0;
  double served_premium = 0.0;
  double served_ordinary = 0.0;
  double premium_depth = 0.0;     ///< backlog after serving
  double ordinary_depth = 0.0;
  double cost = 0.0;              ///< ground-truth $ billed this tick
  double hour_budget = 0.0;
  double crowd_multiplier = 1.0;
  std::size_t feed_updates = 0;   ///< revisions processed this tick
  bool replanned = false;
  bool replan_degraded = false;
  bool plan_held = false;         ///< a wanted re-plan was breaker-blocked
  bool stale = false;             ///< hour planned on a stale market feed
  AdmissionLevel admission = AdmissionLevel::kAdmitAll;
  core::BreakerState breaker = core::BreakerState::kClosed;
  ServeHealth health = ServeHealth::kOk;
};

/// Aggregates plus the bounded health transition log. The aggregate fields
/// are checkpoint-persisted bitwise, so a killed-and-resumed serve run
/// finishes with byte-identical numbers; `ticks_this_attempt` holds only
/// the current attempt's records (memory stays bounded by attempt length,
/// not by uptime).
struct ServeReport {
  std::size_t ticks_committed = 0;  ///< total, across all attempts
  std::size_t ticks_per_hour = 0;

  double total_premium_arrivals = 0.0;
  double total_ordinary_arrivals = 0.0;
  double total_served_premium = 0.0;
  double total_served_ordinary = 0.0;
  double dropped_premium = 0.0;
  double dropped_ordinary = 0.0;
  double total_cost = 0.0;
  double max_premium_depth = 0.0;
  double max_ordinary_depth = 0.0;
  double final_premium_depth = 0.0;
  double final_ordinary_depth = 0.0;
  double premium_queue_capacity = 0.0;
  double ordinary_queue_capacity = 0.0;

  std::size_t feed_updates_seen = 0;
  std::size_t feed_updates_dropped = 0;
  std::size_t replans = 0;
  std::size_t degraded_replans = 0;
  /// Hour boundaries whose coupled planning curves actually derived (an
  /// infeasible grid sweep falls back to static curves and is not counted).
  /// Always 0 when closed-loop coupling is off.
  std::size_t coupled_refreshes = 0;
  std::size_t breaker_trips = 0;
  std::size_t shed_ticks = 0;
  std::size_t standby_ticks = 0;
  std::size_t degraded_ticks = 0;

  ServeHealth final_health = ServeHealth::kOk;
  std::vector<HealthTransition> health_history;  ///< bounded tail
  std::size_t health_transitions = 0;            ///< total incl. evicted

  std::vector<TickRecord> ticks_this_attempt;

  /// The QoS contract the soak asserts: nothing premium was dropped at the
  /// door and no premium backlog was left stranded at the end.
  bool premium_qos_ok() const noexcept;
  double premium_throughput_ratio() const noexcept;
  double ordinary_throughput_ratio() const noexcept;
};

/// One serve attempt's outcome (mirrors Simulator::ResumableOutcome).
struct ServeOutcome {
  ServeReport report;
  bool crashed = false;  ///< an injected kill fired (resume to continue)
  std::size_t crash_tick = 0;
  bool stopped = false;  ///< stop flag / max_ticks: checkpoint consistent
  std::size_t resumed_from_tick = 0;
  std::size_t resumed_generation = 0;
  std::vector<std::string> resume_skipped;
};

/// The serving daemon's deterministic core: a tick loop over the bounded
/// ingest plane, the admission ladder, the breaker-guarded re-plan engine
/// and tick-granular durable checkpoints. Built on a Simulator for the
/// world model (sites, policies, trace, demand, budgeter, fault plan) —
/// the daemon is the batch loop's production-shaped sibling, not a fork.
class ServeLoop {
 public:
  ServeLoop(const core::Simulator& sim, ServeConfig config);

  const ServeConfig& config() const noexcept { return config_; }
  std::size_t total_ticks() const noexcept { return total_ticks_; }
  double premium_queue_capacity() const noexcept { return premium_cap_; }
  double ordinary_queue_capacity() const noexcept { return ordinary_cap_; }
  /// Digest guarding serve checkpoints against config/plan drift.
  std::uint64_t digest() const noexcept { return digest_; }

  struct Controls {
    std::size_t keep_generations = 1;
    /// Stop gracefully after committing this many ticks this attempt
    /// (0 = no limit). The supervisor bounds standby attempts with this.
    std::size_t max_ticks = 0;
    const volatile std::sig_atomic_t* stop_flag = nullptr;
  };

  /// Runs (or resumes) the daemon. An empty `checkpoint_path` runs purely
  /// in memory — no durability, and injected kills are rejected (they
  /// would be unrecoverable). `on_tick` fires just BEFORE each tick's
  /// checkpoint commits, so a streamed CSV can never end up one committed
  /// row short (an uncommitted extra row is truncated on resume).
  ServeOutcome run(const std::string& checkpoint_path, bool resume,
                   const std::function<void(const TickRecord&)>& on_tick = {})
      const;
  ServeOutcome run(const std::string& checkpoint_path, bool resume,
                   const std::function<void(const TickRecord&)>& on_tick,
                   const Controls& controls) const;

 private:
  const core::Simulator& sim_;
  ServeConfig config_;
  std::size_t horizon_hours_ = 0;
  std::size_t total_ticks_ = 0;
  double premium_cap_ = 0.0;
  double ordinary_cap_ = 0.0;
  std::uint64_t digest_ = 0;
};

}  // namespace billcap::serve
