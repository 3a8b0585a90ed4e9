#include "util/record_log.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/fnv1a.hpp"
#include "util/journal.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
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

struct Header {
  std::uint64_t tag = 0;
  std::size_t record_bytes = 0;
};

std::string encode_header(const Header& h) {
  std::string out(kHeaderBytes, '\0');
  std::memcpy(out.data(), kMagic, sizeof kMagic);
  store_le64(out.data() + 8, h.tag);
  store_le64(out.data() + 16, h.record_bytes);
  store_le64(out.data() + 24, fnv1a(RecordLog::kEmptyChain, {out.data(), 24}));
  return out;
}

/// Reads `n` bytes at `offset`; fewer come back when the file is shorter.
std::string read_at(std::ifstream& in, std::uint64_t offset, std::size_t n) {
  std::string out(n, '\0');
  in.clear();
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(out.data(), static_cast<std::streamsize>(n));
  out.resize(in ? n : static_cast<std::size_t>(std::max<std::streamsize>(
                          in.gcount(), 0)));
  return out;
}

/// An open log with its verified header and its size on disk.
struct Opened {
  std::ifstream in;
  Header header;
  std::uint64_t size = 0;

  std::uint64_t stride() const { return header.record_bytes + kChainBytes; }
  /// Whole records on disk past the header.
  std::uint64_t records_on_disk() const {
    return (size - kHeaderBytes) / stride();
  }
};

Opened open_log(const std::string& path) {
  Opened log;
  std::error_code ec;
  log.size = std::filesystem::file_size(path, ec);
  if (ec) throw log_error(path, "missing (" + ec.message() + ")");
  log.in.open(path, std::ios::binary);
  if (!log.in) throw log_error(path, "cannot open");
  const std::string h = read_at(log.in, 0, kHeaderBytes);
  if (h.size() != kHeaderBytes || std::memcmp(h.data(), kMagic, 8) != 0)
    throw log_error(path, "bad header");
  if (load_le64(h.data() + 24) != fnv1a(RecordLog::kEmptyChain, {h.data(), 24}))
    throw log_error(path, "header checksum mismatch (corrupted file)");
  const std::uint64_t width = load_le64(h.data() + 16);
  if (width > kMaxRecordBytes)
    throw log_error(path, "record width " + std::to_string(width) +
                              " out of range");
  log.header = {load_le64(h.data() + 8), static_cast<std::size_t>(width)};
  return log;
}

/// Writes `bytes` at byte `offset` of the log, first cutting the file
/// there (offset 0 creates or empties it), and makes it durable.
void write_tail(const std::string& path, std::uint64_t offset,
                const std::string& bytes) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_WRONLY | (offset == 0 ? O_CREAT : 0),
                        0644);
  if (fd < 0) throw log_error(path, "cannot open for append");
  struct stat st {};
  const bool cut = ::fstat(fd, &st) == 0 &&
                   static_cast<std::uint64_t>(st.st_size) > offset;
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
  // A log started over may be a new directory entry; appends only need
  // the data.
  if (offset == 0) fsync_parent_directory(path);
#else
  std::error_code ec;
  if (offset > 0) std::filesystem::resize_file(path, offset, ec);
  if (ec) throw log_error(path, "truncate failed");
  // The append half of the log commit: bytes past the prefix a head names
  // are invisible to readers, so a torn append is never resumed from.
  // billcap-lint: allow(raw-write): append past the named prefix, torn tail ignored
  std::ofstream out(path, std::ios::binary |
                              (offset == 0 ? std::ios::trunc : std::ios::app));
  if (!out) throw log_error(path, "cannot open for append");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw log_error(path, "write failed");
#endif
}

}  // namespace

RecordLog::Prefix RecordLog::append(const std::string& path, std::uint64_t tag,
                                    std::size_t keep,
                                    const std::vector<std::string>& records) {
  Prefix prefix;
  Header header{tag, 0};
  std::string bytes;
  if (keep == 0) {
    if (records.empty()) return prefix;
    for (const std::string& r : records)
      header.record_bytes = std::max(header.record_bytes, r.size());
    if (header.record_bytes > kMaxRecordBytes)
      throw log_error(path, "record wider than " +
                                std::to_string(kMaxRecordBytes) + " bytes");
    bytes = encode_header(header);
  } else {
    Opened log = open_log(path);
    header = log.header;
    if (log.records_on_disk() < keep)
      throw log_error(path, "holds fewer than the " + std::to_string(keep) +
                                " records to keep");
    const std::uint64_t end = kHeaderBytes + keep * log.stride();
    const std::string chain = read_at(log.in, end - kChainBytes, kChainBytes);
    if (chain.size() != kChainBytes) throw log_error(path, "read failed");
    prefix = {keep, load_le64(chain.data())};
    if (records.empty()) return prefix;
  }

  const std::uint64_t offset =
      keep == 0 ? 0 : kHeaderBytes + keep * (header.record_bytes + kChainBytes);
  bytes.reserve(bytes.size() +
                records.size() * (header.record_bytes + kChainBytes));
  for (const std::string& r : records) {
    if (r.size() > header.record_bytes)
      throw log_error(path, "a " + std::to_string(r.size()) +
                                "-byte record does not fit the log's " +
                                std::to_string(header.record_bytes) +
                                "-byte width");
    std::string slot = r;
    slot.resize(header.record_bytes, '\0');
    prefix.chain = fnv1a(prefix.chain, slot);
    ++prefix.count;
    bytes += slot;
    char chain[kChainBytes];
    store_le64(chain, prefix.chain);
    bytes.append(chain, kChainBytes);
  }
  write_tail(path, offset, bytes);
  return prefix;
}

RecordLog::Contents RecordLog::read(const std::string& path,
                                    const Prefix& prefix) {
  Contents out;
  if (prefix.count == 0) {
    if (prefix.chain != kEmptyChain)
      throw log_error(path, "an empty prefix with a non-empty checksum");
    return out;
  }
  Opened log = open_log(path);
  out.tag = log.header.tag;
  out.record_bytes = log.header.record_bytes;
  if (log.records_on_disk() < prefix.count)
    throw log_error(path, "holds " + std::to_string(log.records_on_disk()) +
                              " records, the head names " +
                              std::to_string(prefix.count));
  const std::string body = read_at(log.in, kHeaderBytes,
                                   static_cast<std::size_t>(prefix.count *
                                                            log.stride()));
  if (body.size() != prefix.count * log.stride())
    throw log_error(path, "read failed");
  out.payloads.reserve(prefix.count * out.record_bytes);
  std::uint64_t chain = kEmptyChain;
  for (std::size_t i = 0; i < prefix.count; ++i) {
    const char* rec = body.data() + i * log.stride();
    chain = fnv1a(chain, {rec, out.record_bytes});
    if (load_le64(rec + out.record_bytes) != chain)
      throw log_error(path, "record " + std::to_string(i) +
                                " fails its checksum (corrupted file)");
    out.payloads.append(rec, out.record_bytes);
  }
  if (chain != prefix.chain)
    throw log_error(path, "its first " + std::to_string(prefix.count) +
                              " records do not match the head's checksum "
                              "(rewritten or foreign log)");
  return out;
}

}  // namespace billcap::util
