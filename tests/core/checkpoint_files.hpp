#pragma once

// Removes everything a rotated checkpoint leaves on disk: the head and its
// older generations ("<path>", "<path>.1" ...) and the append-only hour
// log beside them (core::hour_log_path). Tests that checkpoint into the
// temp directory call it before and after a run, so repeated runs leave
// no files behind. Its header keeps the core/ include path
// ("core/checkpoint_files.hpp").

#include <cstddef>
#include <cstdio>
#include <string>

#include "core/checkpoint.hpp"
#include "util/journal.hpp"

namespace billcap::core {

inline void remove_checkpoint_files(const std::string& path,
                                    std::size_t generations = 3) {
  for (std::size_t g = 0; g < generations; ++g)
    std::remove(util::Journal::generation_path(path, g).c_str());
  std::remove(hour_log_path(path).c_str());
}

}  // namespace billcap::core
