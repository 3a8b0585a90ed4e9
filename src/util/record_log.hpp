#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/fnv1a.hpp"

namespace billcap::util {

/// An append-only file of fixed-width, checksummed records: durable state
/// that only grows (a month's committed hours) written at O(1) bytes per
/// commit, beside a small util::Journal head that names how much of it
/// counts. The on-disk form is binary, little-endian:
///
///   header   magic "BCRLOG01" | tag u64 | record_bytes u64 | header FNV u64
///   record   payload (record_bytes, zero-padded) | chain u64
///
/// A record's chain value is the FNV-1a of every payload byte from the
/// first record through its own, so it both checks the record and names
/// the whole prefix ending there: a head that stores (count, chain) pins
/// exactly that prefix, and a rewritten or foreign log cannot pass for it.
/// The tag (the writer's config digest) only says who wrote the file; the
/// chain alone decides whether a prefix matches.
///
/// Bytes past the prefix a head names are never read, so a record torn by
/// a kill mid-append, or one whose head never landed, is invisible until
/// the next append truncates it — the rule util::CsvWriter applies to its
/// rows.
class RecordLog {
 public:
  /// FNV-1a offset basis: the chain value of the empty prefix.
  static constexpr std::uint64_t kEmptyChain = kFnv1aOffset;

  /// The first `count` records of a log and the chain value after them.
  struct Prefix {
    std::size_t count = 0;
    std::uint64_t chain = kEmptyChain;
  };

  /// A prefix read back: the header's tag and record width, and the
  /// records' payloads back to back (count * record_bytes bytes).
  struct Contents {
    std::uint64_t tag = 0;
    std::size_t record_bytes = 0;
    std::string payloads;
  };

  /// Durable append: keeps the first `keep` records of the log at `path`,
  /// drops whatever follows them (a torn tail, or records no head named),
  /// appends `records`, then fsyncs the file before returning the prefix it
  /// now holds. Shorter records are zero-padded to the log's width; with
  /// keep == 0 the file starts over, its header carrying `tag` and the
  /// width of the longest record. An empty `records` writes nothing and
  /// only reads back the chain value that ends the kept prefix. Throws
  /// std::runtime_error naming `path` on I/O failure, when fewer than
  /// `keep` records are on disk, or when a record is wider than the log.
  static Prefix append(const std::string& path, std::uint64_t tag,
                       std::size_t keep,
                       const std::vector<std::string>& records);

  /// Reads exactly `prefix` from the log at `path`, verifying the header
  /// and every record's chain value. Throws std::runtime_error naming
  /// `path` when the file is missing, its header is damaged, it holds fewer
  /// than prefix.count records, a record fails its check, or the prefix
  /// ends on a different chain value than `prefix.chain`.
  static Contents read(const std::string& path, const Prefix& prefix);
};

/// Little-endian u64 at `out` / from `in`: the byte order of every binary
/// field in a record log, whatever the host's.
inline void store_le64(char* out, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i)
    out[i] = static_cast<char>((value >> (8 * i)) & 0xffu);
}
inline std::uint64_t load_le64(const char* in) noexcept {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i)
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[i]))
             << (8 * i);
  return value;
}

}  // namespace billcap::util
