#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace billcap::util {

/// 64-bit FNV-1a: the one hash behind every checksum and digest billcap
/// writes (journal checksums, the state-log chain, config digests, month
/// digests). Cheap and stable; an integrity check, not authentication.
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// Continues the hash `hash` over `bytes`; start from kFnv1aOffset.
constexpr std::uint64_t fnv1a(std::uint64_t hash,
                              std::string_view bytes) noexcept {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnv1aPrime;
  }
  return hash;
}

/// Folds values into an FNV-1a hash, each as its 8 little-endian bytes, so
/// a digest is the same on every host. Seed `hash` to continue another
/// digest.
struct Fnv1a {
  std::uint64_t hash = kFnv1aOffset;

  void mix_u64(std::uint64_t value) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xffu;
      hash *= kFnv1aPrime;
    }
  }
  void mix_size(std::size_t value) noexcept {
    mix_u64(static_cast<std::uint64_t>(value));
  }
  void mix_double(double value) noexcept {
    mix_u64(std::bit_cast<std::uint64_t>(value));
  }
  void mix_bool(bool value) noexcept { mix_u64(value ? 1 : 0); }
};

}  // namespace billcap::util
