#pragma once

#include <string>

#include "core/checkpoint.hpp"

namespace billcap::core {

/// Writes `state` as a format-v1 checkpoint: one self-contained journal
/// with every HourRecord inline as a text token record, written
/// temp-then-rename. Production commits format v2 (save_checkpoint_rotated)
/// and only still loads v1, so this writer lives with the tests: it makes
/// the "v1 still loads and continues" fixtures. Throws
/// std::runtime_error on I/O failure.
void save_checkpoint_v1(const std::string& path, const CheckpointState& state);

}  // namespace billcap::core
