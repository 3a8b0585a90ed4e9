#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/market_feed.hpp"
#include "core/simulator.hpp"
#include "util/record_log.hpp"

namespace billcap::core {

/// Everything the hourly control loop needs to continue a month after the
/// controller process dies: how far it got, the budget ledger's spent
/// total, the partial MonthlyResult (aggregates, FailureReason tallies and
/// every committed HourRecord), the market-feed client's stream state, the
/// coupler's trajectory and the fault-plan cursors. Doubles are persisted
/// bitwise, so a resumed month finishes with a result bit-identical to the
/// uninterrupted run.
///
/// On disk (format v3) a small head journal at the checkpoint path names
/// the run (config digest, strategy, budget) and the state log beside it
/// (state_log_path). Every commit appends one fixed-width record to that
/// log carrying everything that changes per commit: the cursors, the feed
/// and coupler state, and the hour it committed, if any. Aggregates are
/// not stored: a load folds the logged hours through
/// MonthlyResult::accumulate in order, which gives the bits the month
/// accumulated.
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
  /// FaultPlan::CheckpointCorruption cursor. Committed in a record *before*
  /// the one the corruption hits, so a resume that falls back a record
  /// does not re-fire the same corruption.
  std::size_t corruptions_fired = 0;
  MarketFeed::State feed;         ///< retrying feed client's RNG + cursor
  /// Closed-loop market coupler trajectory (breaker clock, damping ladder,
  /// last executed fixed point). All defaults for open-loop months.
  MarketCoupler::State coupler;
  MonthlyResult partial;          ///< committed hours + aggregates
  /// Length of the per-site arrays the state log sizes its records for
  /// (the month's site count). The first commit of a log takes the larger
  /// of this and the longest per-site array the state holds, so a state
  /// built by hand with its hours in place can leave it 0.
  std::size_t sites = 0;

  /// Where the state log stands: the writer's cursor (record width,
  /// records durable, chain word after them) and how many HourRecords
  /// those records carry. save_checkpoint_rotated advances it (mutable:
  /// the commit takes the state const); a load sets it to the record it
  /// resumed from, marking the tail past it for cutting. A cursor with no
  /// records means no log yet: the next commit starts one and writes the
  /// head.
  struct LogPosition {
    util::RecordLog::Cursor cursor;
    std::size_t hours = 0;
  };
  mutable LogPosition log;
};

/// Digest of the simulation configuration fields that determine a month's
/// trajectory (seed, budget, workload shape, fault schedule, feed policy,
/// strategy...). Two configs with equal digests produce the same month.
std::uint64_t checkpoint_digest(const SimulationConfig& config,
                                Strategy strategy);

/// True if a checkpoint head exists at `path` (it may still fail to load).
bool checkpoint_exists(const std::string& path) noexcept;

/// The state log beside the checkpoint head at `path` ("<path>.log").
std::string state_log_path(const std::string& path);

/// Removes every file a checkpoint at `path` may have left: the head, its
/// temp file and the state log.
void remove_checkpoint(const std::string& path) noexcept;

/// The fixed-width little-endian words of one HourRecord: 20 words, then
/// its per-site λ and power arrays. State-log records carry them.
std::string encode_hour_record(const HourRecord& rec);

/// Loads and verifies the newest committed state: a v3 head and the last
/// record of its state log (every record before it must verify too).
/// Throws std::runtime_error when a file is missing, truncated, corrupted
/// (checksum mismatch) or structurally inconsistent, and when the head is
/// of another format version; a v1 or v2 head (a month begun before the
/// state log) is refused with a message naming its format.
CheckpointState load_checkpoint(const std::string& path);

/// The hourly commit. Appends one record to the state log with one
/// positioned write and one fsync: the hour committed since the last
/// commit with the state after it, or the state alone when no hour was
/// added (a cursor-only re-persist). The first commit of a month starts
/// the log and writes the head (config digest, strategy, budget, log name
/// and record width) through util::Journal::save_atomic; nothing else
/// writes the head. More than one new hour (a state built with its hours
/// in place) logs the earlier ones as hour-only records, which a load
/// replays but never resumes from. `keep_generations` does
/// not change the commit: every record stays in the log, and the load
/// decides how far back it may walk. Throws std::runtime_error on I/O
/// failure or a record wider than the log, and std::invalid_argument when
/// the state holds fewer hours than its log already carries.
void save_checkpoint_rotated(const std::string& path,
                             const CheckpointState& state,
                             std::size_t keep_generations);

/// What load_checkpoint_fallback actually recovered, and what it had to
/// step over to get there.
struct CheckpointLoadReport {
  CheckpointState state;
  /// Records the load walked back past: 0 = the newest commit.
  std::size_t generation = 0;
  /// One line per record stepped over: the log, the record and why it was
  /// unusable (corrupted, after a damaged record...).
  std::vector<std::string> skipped;
};

/// True if any generation of the rotated set exists at `path` (the newest
/// or any of "<path>.1" ... "<path>.<K-1>"). The serving daemon's rotated
/// journal uses it; batch checkpoints have a single head.
bool any_checkpoint_generation_exists(const std::string& path,
                                      std::size_t keep_generations) noexcept;

/// The newest-first generation scan of the serving daemon's rotated
/// journal: calls `load` on each generation of `path` that exists
/// ("<path>", then "<path>.1" ... "<path>.<K-1>") and returns the index of
/// the first one it loads without throwing. Each missing or throwing
/// generation adds "<generation path>: <why>" to `skipped`. When none
/// loads, throws std::runtime_error("<what>: no viable generation among
/// the newest K") with the skipped lines appended.
std::size_t scan_generations(
    const std::string& path, std::size_t keep_generations,
    const std::string& what, std::vector<std::string>& skipped,
    const std::function<void(const std::string& generation_path)>& load);

/// Loads the newest commit that verifies, walking back along the state
/// log at most keep_generations - 1 records: a record that fails its
/// checksum, follows one that does, or carries no committed state is
/// listed in `skipped` and passed over. Each record walked back costs at
/// most one simulated hour. Throws std::runtime_error when the head is
/// missing or damaged, of an older format (as load_checkpoint), its digest
/// differs from `expected_digest`, or no record within reach verifies.
CheckpointLoadReport load_checkpoint_fallback(const std::string& path,
                                              std::size_t keep_generations,
                                              std::uint64_t expected_digest);

/// The supervisor's progress probe: next_hour of the newest of the last
/// keep_generations records of the state log that verifies against the
/// chain word stored just before it, reading only that tail. Throws
/// std::runtime_error when the head is missing, damaged or of an older
/// format (as load_checkpoint), or no record within reach verifies.
std::size_t checkpoint_next_hour(const std::string& path,
                                 std::size_t keep_generations);

}  // namespace billcap::core
