#include "util/record_log.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "util/fnv1a.hpp"
#include "util/journal.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace billcap::util {

namespace {

constexpr char kMagic[8] = {'B', 'C', 'R', 'L', 'O', 'G', '0', '1'};
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kChainBytes = 8;
/// A damaged header must not make a reader allocate gigabytes.
constexpr std::uint64_t kMaxRecordBytes = 1u << 20;

std::runtime_error log_error(const std::string& path, const std::string& what) {
  return std::runtime_error("record log " + path + ": " + what);
}

std::string encode_header(std::uint64_t tag, std::size_t record_bytes) {
  std::string out(kHeaderBytes, '\0');
  std::memcpy(out.data(), kMagic, sizeof kMagic);
  store_le64(out.data() + 8, tag);
  store_le64(out.data() + 16, record_bytes);
  store_le64(out.data() + 24, fnv1a(RecordLog::kEmptyChain, {out.data(), 24}));
  return out;
}

/// Appends `records` to `bytes`, each zero-padded to `cursor.record_bytes`
/// and followed by its chain word, advancing `cursor` past them.
void encode_records(const std::string& path, RecordLog::Cursor& cursor,
                    const std::vector<std::string>& records,
                    std::string& bytes) {
  bytes.reserve(bytes.size() +
                records.size() * (cursor.record_bytes + kChainBytes));
  for (const std::string& r : records) {
    if (r.size() > cursor.record_bytes)
      throw log_error(path, "a " + std::to_string(r.size()) +
                                "-byte record does not fit the log's " +
                                std::to_string(cursor.record_bytes) +
                                "-byte width");
    const std::size_t start = bytes.size();
    bytes += r;
    bytes.resize(start + cursor.record_bytes, '\0');
    cursor.chain = fnv1a(cursor.chain, {bytes.data() + start,
                                        cursor.record_bytes});
    ++cursor.count;
    char chain[kChainBytes];
    store_le64(chain, cursor.chain);
    bytes.append(chain, kChainBytes);
  }
}

/// Writes `bytes` at byte `offset` of the log and makes them durable.
/// `create` starts the file over (and fsyncs its directory, since the
/// file may be a new entry there); `cut` first drops everything from
/// `offset` on.
void write_at(const std::string& path, std::uint64_t offset,
              const std::string& bytes, bool create, bool cut) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(),
                        O_WRONLY | (create ? O_CREAT | O_TRUNC : 0), 0644);
  if (fd < 0) throw log_error(path, "cannot open for append");
  if (cut && ::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
    ::close(fd);
    throw log_error(path, "truncate failed");
  }
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::pwrite(fd, bytes.data() + written, bytes.size() - written,
                 static_cast<off_t>(offset + written));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw log_error(path, "write failed");
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw log_error(path, "fsync failed");
  }
  if (::close(fd) != 0) throw log_error(path, "close failed");
  if (create) fsync_parent_directory(path);
#else
  std::error_code ec;
  if (cut) std::filesystem::resize_file(path, offset, ec);
  if (ec) throw log_error(path, "truncate failed");
  // The append half of the log commit: a torn append is a partial record
  // no reader counts, so it is never resumed from.
  // billcap-lint: allow(raw-write): append past the last whole record, torn tail ignored
  std::ofstream out(path, std::ios::binary |
                              (create ? std::ios::trunc : std::ios::app));
  if (!out) throw log_error(path, "cannot open for append");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw log_error(path, "write failed");
#endif
}

}  // namespace

RecordLog::Cursor RecordLog::create(const std::string& path, std::uint64_t tag,
                                    const std::vector<std::string>& records) {
  if (records.empty())
    throw std::invalid_argument("RecordLog::create: no records for " + path);
  Cursor cursor;
  for (const std::string& r : records)
    cursor.record_bytes = std::max(cursor.record_bytes, r.size());
  if (cursor.record_bytes > kMaxRecordBytes)
    throw log_error(path, "record wider than " +
                              std::to_string(kMaxRecordBytes) + " bytes");
  std::string bytes = encode_header(tag, cursor.record_bytes);
  encode_records(path, cursor, records, bytes);
  write_at(path, 0, bytes, /*create=*/true, /*cut=*/false);
  return cursor;
}

RecordLog::Cursor RecordLog::append(const std::string& path, const Cursor& at,
                                    const std::vector<std::string>& records) {
  Cursor cursor = at;
  cursor.cut_tail = false;
  std::string bytes;
  encode_records(path, cursor, records, bytes);
  write_at(path, kHeaderBytes + at.count * (at.record_bytes + kChainBytes),
           bytes, /*create=*/false, at.cut_tail);
  return cursor;
}

RecordLog::Reader::Reader(const std::string& path) : path_(path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) throw log_error(path, "missing (" + ec.message() + ")");
  in_.open(path, std::ios::binary);
  if (!in_) throw log_error(path, "cannot open");
  char h[kHeaderBytes];
  if (size < kHeaderBytes ||
      !in_.read(h, static_cast<std::streamsize>(kHeaderBytes)) ||
      std::memcmp(h, kMagic, sizeof kMagic) != 0)
    throw log_error(path, "bad header");
  if (load_le64(h + 24) != fnv1a(kEmptyChain, {h, 24}))
    throw log_error(path, "header checksum mismatch (corrupted file)");
  const std::uint64_t width = load_le64(h + 16);
  if (width > kMaxRecordBytes)
    throw log_error(path, "record width " + std::to_string(width) +
                              " out of range");
  tag_ = load_le64(h + 8);
  record_bytes_ = static_cast<std::size_t>(width);
  const std::size_t stride = record_bytes_ + kChainBytes;
  records_ = static_cast<std::size_t>((size - kHeaderBytes) / stride);
  slot_.resize(stride);
}

void RecordLog::Reader::seek(std::size_t record) {
  position_ = std::min(record, records_);
  const std::size_t stride = slot_.size();
  in_.clear();
  if (position_ == 0) {
    in_.seekg(static_cast<std::streamoff>(kHeaderBytes));
    chain_ = kEmptyChain;
    return;
  }
  in_.seekg(static_cast<std::streamoff>(kHeaderBytes + position_ * stride -
                                        kChainBytes));
  char word[kChainBytes];
  if (!in_.read(word, kChainBytes)) throw log_error(path_, "read failed");
  chain_ = load_le64(word);
}

bool RecordLog::Reader::next(std::string& payload) {
  if (position_ >= records_)
    throw log_error(path_, "no record " + std::to_string(position_) +
                               " (it holds " + std::to_string(records_) + ")");
  if (!in_.read(slot_.data(), static_cast<std::streamsize>(slot_.size())))
    throw log_error(path_, "read failed");
  payload.assign(slot_.data(), record_bytes_);
  const std::uint64_t stored = load_le64(slot_.data() + record_bytes_);
  const bool verifies = fnv1a(chain_, payload) == stored;
  chain_ = stored;
  ++position_;
  return verifies;
}

}  // namespace billcap::util
