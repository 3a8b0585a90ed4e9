#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/fnv1a.hpp"

namespace billcap::util {

/// An append-only file of fixed-width, checksummed records: durable state
/// written at O(1) bytes per commit (the checkpoint's state log). The
/// on-disk form is binary, little-endian:
///
///   header   magic "BCRLOG01" | tag u64 | record_bytes u64 | header FNV u64
///   record   payload (record_bytes, zero-padded) | chain u64
///
/// A record's chain word is the FNV-1a of the chain word stored just
/// before it (kEmptyChain before the first record) continued over its own
/// payload. So a record verifies locally, from the 8 bytes before it, and
/// a run of records that all verify is the whole chain from the first
/// record: a reader can check the tail alone or the log front to back.
/// The tag (the writer's config digest) says who wrote the file.
///
/// A commit is one pwrite and one fsync at an offset the writer already
/// knows (a Cursor); nothing is read back. Bytes past the last whole
/// record — a record torn by a kill mid-append — are never read, and the
/// next append after a reload cuts them, the rule util::CsvWriter applies
/// to its rows.
class RecordLog {
 public:
  /// FNV-1a offset basis: the chain word before the first record.
  static constexpr std::uint64_t kEmptyChain = kFnv1aOffset;

  /// Where a writer stands in a log: its record width, the records it
  /// holds and the chain word after the last of them.
  struct Cursor {
    std::size_t record_bytes = 0;
    std::size_t count = 0;
    std::uint64_t chain = kEmptyChain;
    /// The next append first drops whatever follows `count` records: set
    /// when the cursor comes from a reader, whose log may end in a torn or
    /// corrupted tail.
    bool cut_tail = false;
  };

  /// Starts the log at `path` over: a header carrying `tag` and the width
  /// of the longest of `records`, then the records, zero-padded to it. The
  /// file and its directory are fsynced before the cursor after the
  /// records is returned. Throws std::runtime_error naming `path` on I/O
  /// failure, and std::invalid_argument when `records` is empty.
  static Cursor create(const std::string& path, std::uint64_t tag,
                       const std::vector<std::string>& records);

  /// Durable append at `at`: writes `records` (zero-padded to the log's
  /// width) right after at.count records with one positioned write, first
  /// cutting the file there when at.cut_tail, then fsyncs the file and
  /// returns the cursor after them. Reads nothing. Throws
  /// std::runtime_error naming `path` on I/O failure or when a record is
  /// wider than the log.
  static Cursor append(const std::string& path, const Cursor& at,
                       const std::vector<std::string>& records);

  /// Reads a log forward, checking each record against the chain word
  /// stored just before it.
  class Reader {
   public:
    /// Opens the log at `path`, verifies its header and positions before
    /// the first record. Throws std::runtime_error naming `path` when the
    /// file is missing or its header is damaged.
    explicit Reader(const std::string& path);

    /// Positions before record `record` (at most records()), reading the
    /// chain word stored just before it. Throws std::runtime_error naming
    /// the log on a read failure.
    void seek(std::size_t record);

    std::uint64_t tag() const noexcept { return tag_; }
    std::size_t record_bytes() const noexcept { return record_bytes_; }
    /// Whole records on disk; a torn tail past them is not counted.
    std::size_t records() const noexcept { return records_; }
    /// Index of the record the next call to next() reads.
    std::size_t position() const noexcept { return position_; }

    /// Reads the next record's payload into `payload` and returns whether
    /// it verifies. Throws std::runtime_error naming the log past the last
    /// whole record or on a read failure.
    bool next(std::string& payload);

    /// A cursor for appending after the record next() read last,
    /// dropping every byte past it.
    Cursor cursor() const noexcept {
      return {record_bytes_, position_, chain_, true};
    }

   private:
    std::string path_;
    std::ifstream in_;
    std::uint64_t tag_ = 0;
    std::size_t record_bytes_ = 0;
    std::size_t records_ = 0;
    std::size_t position_ = 0;
    std::uint64_t chain_ = kEmptyChain;
    std::string slot_;  ///< payload plus chain word of the record in hand
  };
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
