#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace billcap::util {

/// What mutate_bytes did to a file's bytes.
struct Mutation {
  enum class Kind { kFlip, kCut, kAppend };
  Kind kind = Kind::kFlip;
  /// Offset of the first byte that no longer holds its pristine value: the
  /// lowest flip, the new length of a cut, the old length for an append.
  std::size_t first_changed = 0;
  std::string what;  ///< "flip@12 flip@40", "truncate to 17", "append 5"
};

/// One seeded mutation of a file's bytes, the damage a resume may meet:
/// one to three byte flips, a cut to a shorter length (a torn write) or
/// 1..64 appended garbage bytes, each kind one draw in three.
inline Mutation mutate_bytes(Rng& rng, std::string& bytes) {
  Mutation m;
  const std::uint64_t kind = rng.below(3);
  if (kind == 0) {
    m.kind = Mutation::Kind::kFlip;
    m.first_changed = bytes.size();
    const std::uint64_t flips = 1 + rng.below(3);
    for (std::uint64_t k = 0; k < flips; ++k) {
      const std::size_t at = rng.below(bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.below(255)));
      if (at < m.first_changed) m.first_changed = at;
      m.what += " flip@" + std::to_string(at);
    }
  } else if (kind == 1) {
    m.kind = Mutation::Kind::kCut;
    bytes.resize(rng.below(bytes.size()));
    m.first_changed = bytes.size();
    m.what = " truncate to " + std::to_string(bytes.size());
  } else {
    m.kind = Mutation::Kind::kAppend;
    m.first_changed = bytes.size();
    const std::uint64_t extra = 1 + rng.below(64);
    for (std::uint64_t k = 0; k < extra; ++k)
      bytes.push_back(static_cast<char>(rng.below(256)));
    m.what = " append " + std::to_string(extra);
  }
  return m;
}

}  // namespace billcap::util
