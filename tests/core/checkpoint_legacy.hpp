#pragma once

#include <string>

#include "core/checkpoint.hpp"

namespace billcap::core {

// Writers of the checkpoint formats production no longer commits but still
// loads, for the "older formats load and continue" fixtures. Both write
// every CheckpointState field the format held, aggregates included, and
// throw std::runtime_error on I/O failure.

/// Format v1: one self-contained journal at `path` with every HourRecord
/// inline as a text token record, written temp-then-rename.
void save_checkpoint_v1(const std::string& path, const CheckpointState& state);

/// Format v2: the append-only hour log "<path>.hours" (one fixed-width
/// record per HourRecord) written from scratch, then a head journal at
/// `path` with every other field, naming the log prefix it covers.
void save_checkpoint_v2(const std::string& path, const CheckpointState& state);

}  // namespace billcap::core
