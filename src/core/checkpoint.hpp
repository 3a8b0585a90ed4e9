#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/market_feed.hpp"
#include "core/simulator.hpp"

namespace billcap::core {

/// Everything the hourly control loop needs to continue a month after the
/// controller process dies: how far it got, the budget ledger's spent
/// total, the partial MonthlyResult (aggregates, FailureReason tallies and
/// every committed HourRecord), the market-feed client's stream state, and
/// the crash-plan cursor. Doubles are persisted bitwise, so a resumed
/// month finishes with a result bit-identical to the uninterrupted run.
///
/// On disk the hourly commit splits it in two (format v2): a small head
/// journal with everything but the HourRecords, and an append-only hour
/// log beside it (hour_log_path) that gains one fixed-width record per
/// committed hour. The head names the log prefix it covers.
struct CheckpointState {
  /// Digest of the (config, strategy) pair that wrote the checkpoint;
  /// loading under a different configuration is refused rather than
  /// silently mixing two months.
  std::uint64_t config_digest = 0;
  Strategy strategy = Strategy::kCostCapping;
  std::size_t next_hour = 0;      ///< first hour not yet committed
  double spent = 0.0;             ///< budget ledger: $ billed so far
  std::size_t crashes_fired = 0;  ///< FaultPlan::ControllerCrash cursor
  std::size_t storms_fired = 0;   ///< FaultPlan::ExitStorm deaths consumed
  /// FaultPlan::CheckpointCorruption cursor. Persisted into the fallback
  /// generation *before* the corrupted one is written, so a resume that
  /// falls back a generation does not re-fire the same corruption.
  std::size_t corruptions_fired = 0;
  MarketFeed::State feed;         ///< retrying feed client's RNG + cursor
  /// Closed-loop market coupler trajectory (breaker clock, damping ladder,
  /// last executed fixed point). All defaults for open-loop months and
  /// when loading pre-coupler checkpoint files.
  MarketCoupler::State coupler;
  MonthlyResult partial;          ///< committed hours + aggregates
  /// HourRecords already durable in the hour log: 0 on a fresh start, the
  /// head's count after a load. A commit appends only the records past it,
  /// so its owner advances it to partial.hours.size() after each commit.
  std::size_t logged_hours = 0;
};

/// Digest of the simulation configuration fields that determine a month's
/// trajectory (seed, budget, workload shape, fault schedule, feed policy,
/// strategy...). Two configs with equal digests produce the same month.
std::uint64_t checkpoint_digest(const SimulationConfig& config,
                                Strategy strategy);

/// True if a checkpoint file exists at `path` (it may still fail to load).
bool checkpoint_exists(const std::string& path) noexcept;

/// Loads and verifies a checkpoint of either format: a v1 file with its
/// hours inline, or a v2 head plus the log prefix it names. Throws
/// std::runtime_error when the head or the log is missing, truncated,
/// corrupted (checksum mismatch), from an unsupported format version, or
/// structurally inconsistent.
CheckpointState load_checkpoint(const std::string& path);

/// Loads and verifies only the head at `path`: every field but
/// partial.hours, which stays empty; the hour log is not opened. O(1) in
/// the month's length for a v2 head. Throws like load_checkpoint.
CheckpointState load_checkpoint_head(const std::string& path);

/// The append-only hour log beside the checkpoint at `path`
/// ("<path>.hours"; never a Journal::generation_path of it).
std::string hour_log_path(const std::string& path);

/// The hourly commit (format v2). Appends the HourRecords past
/// state.logged_hours to hour_log_path(path), after truncating the log to
/// that many records, and fsyncs it; then shifts the head generations down
/// one slot (`path` -> "<path>.1" -> ... -> "<path>.<K-1>", oldest
/// dropped) so the last `keep_generations` heads survive, and atomically
/// writes the new head naming the log prefix it covers. Writes O(1) bytes
/// per committed hour; with no new records (a re-save of the same hours)
/// only the head is written. Throws std::runtime_error on I/O failure and
/// std::invalid_argument when state.logged_hours exceeds the hours held.
void save_checkpoint_rotated(const std::string& path,
                             const CheckpointState& state,
                             std::size_t keep_generations);

/// What load_checkpoint_fallback actually recovered, and what it had to
/// step over to get there.
struct CheckpointLoadReport {
  CheckpointState state;
  std::size_t generation = 0;  ///< 0 = newest; g came from "<path>.<g>"
  /// One line per rejected newer generation: its path and why it was
  /// unusable (missing, corrupted, digest mismatch...).
  std::vector<std::string> skipped;
};

/// True if any generation of the rotated set exists at `path` (the newest
/// or any of "<path>.1" ... "<path>.<K-1>").
bool any_checkpoint_generation_exists(const std::string& path,
                                      std::size_t keep_generations) noexcept;

/// The newest-first generation scan shared by every rotated checkpoint:
/// calls `load` on each generation of `path` that exists ("<path>", then
/// "<path>.1" ... "<path>.<K-1>") and returns the index of the first one
/// it loads without throwing. Each missing or throwing generation adds
/// "<generation path>: <why>" to `skipped`. When none loads, throws
/// std::runtime_error("<what>: no viable generation among the newest K")
/// with the skipped lines appended.
std::size_t scan_generations(
    const std::string& path, std::size_t keep_generations,
    const std::string& what, std::vector<std::string>& skipped,
    const std::function<void(const std::string& generation_path)>& load);

/// Scans generations newest-first and returns the first one that loads
/// cleanly AND matches `expected_digest`; corrupted, truncated, missing or
/// digest-mismatched generations — and those naming a log prefix the hour
/// log no longer holds intact — are recorded in `skipped` and passed
/// over. Each generation the scan falls back costs at most the hours
/// between the two saves (one simulated hour for a per-hour checkpointer).
/// Throws std::runtime_error when no viable generation exists.
CheckpointLoadReport load_checkpoint_fallback(const std::string& path,
                                              std::size_t keep_generations,
                                              std::uint64_t expected_digest);

}  // namespace billcap::core
