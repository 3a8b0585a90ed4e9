#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace billcap::util {

/// fsyncs the directory holding `path`, so a file created or renamed there
/// survives power loss, not just process death. Best effort: a mount that
/// refuses a directory fsync is not an error. No-op off POSIX.
void fsync_parent_directory(const std::string& path) noexcept;

/// A small versioned key/value journal for durable state (checkpoints).
/// The on-disk form is line-oriented text:
///
///   <magic> v<version>
///   <key>=<value>
///   ...
///   checksum <16 hex digits>
///
/// Doubles are stored as the hex of their bit pattern so a load reproduces
/// the written value *bitwise* (no shortest-round-trip subtleties). The
/// trailing FNV-1a checksum covers everything before it, so a truncated or
/// corrupted file is rejected at parse time rather than silently resuming
/// from garbage. save_atomic() writes to "<path>.tmp" and renames, so a
/// crash at any instant leaves either the old journal or the new one,
/// never a torn mix.
class Journal {
 public:
  /// Starts an empty journal with the given magic word and format version.
  Journal(std::string magic, int version);

  const std::string& magic() const noexcept { return magic_; }
  int version() const noexcept { return version_; }

  /// Appends a key/value pair. Keys must be non-empty, unique and free of
  /// '=' and newlines; values must be free of newlines. Violations throw
  /// std::invalid_argument.
  void set(const std::string& key, std::string value);
  void set_u64(const std::string& key, std::uint64_t value);
  void set_size(const std::string& key, std::size_t value);
  /// Stores the double's bit pattern as 16 hex digits (exact round-trip).
  void set_double_bits(const std::string& key, double value);
  /// Space-separated list of bit-pattern doubles.
  void set_double_list(const std::string& key,
                       const std::vector<double>& values);

  bool has(const std::string& key) const noexcept;

  /// Getters throw std::runtime_error when the key is missing or the value
  /// does not parse as the requested type.
  const std::string& get(const std::string& key) const;
  std::uint64_t get_u64(const std::string& key) const;
  std::size_t get_size(const std::string& key) const;
  double get_double_bits(const std::string& key) const;
  std::vector<double> get_double_list(const std::string& key) const;

  /// Full text including header and checksum line.
  std::string serialize() const;

  /// Parses and verifies a serialized journal. Throws std::runtime_error on
  /// a wrong magic, a version newer than `max_version`, a missing or
  /// mismatched checksum (truncation/corruption), or malformed lines.
  static Journal parse(std::string_view text, std::string_view expected_magic,
                       int max_version);

  /// Durable write: serialize to "<path>.tmp", fsync the file, rename over
  /// `path`, then fsync the containing directory so the rename itself
  /// survives power loss (not just process death). Throws
  /// std::runtime_error on I/O failure.
  void save_atomic(const std::string& path) const;

  /// Path of generation `g` of a rotated journal set: generation 0 is
  /// `path` itself (the newest), older generations are "<path>.1",
  /// "<path>.2", ... up to "<path>.<K-1>".
  static std::string generation_path(const std::string& path,
                                     std::size_t generation);

  /// Shifts the existing generations down one slot via renames
  /// ("<path>.<K-2>" -> "<path>.<K-1>", ..., "<path>" -> "<path>.1"; the
  /// oldest is dropped), making room for a fresh save_atomic(path) on top.
  /// Each rename is atomic, so a kill mid-rotation leaves every surviving
  /// generation intact (at worst one is duplicated, never torn). Missing
  /// generations are skipped; keep_generations <= 1 is a no-op.
  static void rotate_generations(const std::string& path,
                                 std::size_t keep_generations);

  /// Loads and verifies a journal file; throws std::runtime_error on I/O
  /// or verification failure.
  static Journal load(const std::string& path, std::string_view expected_magic,
                      int max_version);

 private:
  std::string magic_;
  int version_ = 1;
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace billcap::util
