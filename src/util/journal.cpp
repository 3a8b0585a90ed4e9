#include "util/journal.hpp"

#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/fnv1a.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace billcap::util {

namespace {

/// FNV-1a over the journal payload; plenty to catch truncation and bit rot.
std::uint64_t checksum(std::string_view payload) noexcept {
  return fnv1a(kFnv1aOffset, payload);
}

std::string hex_u64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf, 16);
}

std::uint64_t parse_hex_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto res =
      std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (res.ec != std::errc{} || res.ptr != text.data() + text.size())
    throw std::runtime_error("Journal: bad hex value '" + std::string(text) +
                             "'");
  return value;
}

}  // namespace

void fsync_parent_directory(const std::string& path) noexcept {
#if defined(__unix__) || defined(__APPLE__)
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    // Some filesystems refuse fsync on a directory handle (EINVAL); that
    // is a property of the mount, not an I/O error worth aborting for.
    ::fsync(dfd);
    ::close(dfd);
  }
#else
  (void)path;
#endif
}

Journal::Journal(std::string magic, int version)
    : magic_(std::move(magic)), version_(version) {
  if (magic_.empty() || magic_.find_first_of(" \n") != std::string::npos)
    throw std::invalid_argument("Journal: bad magic word");
  if (version_ < 1) throw std::invalid_argument("Journal: version >= 1");
}

void Journal::set(const std::string& key, std::string value) {
  if (key.empty() || key.find_first_of("=\n") != std::string::npos)
    throw std::invalid_argument("Journal: bad key '" + key + "'");
  if (value.find('\n') != std::string::npos)
    throw std::invalid_argument("Journal: value for '" + key +
                                "' contains newline");
  if (has(key))
    throw std::invalid_argument("Journal: duplicate key '" + key + "'");
  entries_.emplace_back(key, std::move(value));
}

void Journal::set_u64(const std::string& key, std::uint64_t value) {
  set(key, std::to_string(value));
}

void Journal::set_size(const std::string& key, std::size_t value) {
  set_u64(key, static_cast<std::uint64_t>(value));
}

void Journal::set_double_bits(const std::string& key, double value) {
  set(key, hex_u64(std::bit_cast<std::uint64_t>(value)));
}

void Journal::set_double_list(const std::string& key,
                              const std::vector<double>& values) {
  std::string joined;
  joined.reserve(values.size() * 17);
  for (double v : values) {
    if (!joined.empty()) joined.push_back(' ');
    joined += hex_u64(std::bit_cast<std::uint64_t>(v));
  }
  set(key, std::move(joined));
}

bool Journal::has(const std::string& key) const noexcept {
  for (const auto& [k, v] : entries_)
    if (k == key) return true;
  return false;
}

const std::string& Journal::get(const std::string& key) const {
  for (const auto& [k, v] : entries_)
    if (k == key) return v;
  throw std::runtime_error("Journal: missing key '" + key + "'");
}

std::uint64_t Journal::get_u64(const std::string& key) const {
  const std::string& s = get(key);
  std::uint64_t value = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), value);
  if (res.ec != std::errc{} || res.ptr != s.data() + s.size())
    throw std::runtime_error("Journal: key '" + key + "' is not an integer: " +
                             s);
  return value;
}

std::size_t Journal::get_size(const std::string& key) const {
  return static_cast<std::size_t>(get_u64(key));
}

double Journal::get_double_bits(const std::string& key) const {
  return std::bit_cast<double>(parse_hex_u64(get(key)));
}

std::vector<double> Journal::get_double_list(const std::string& key) const {
  const std::string& s = get(key);
  std::vector<double> out;
  std::stringstream tokens(s);
  std::string token;
  while (tokens >> token)
    out.push_back(std::bit_cast<double>(parse_hex_u64(token)));
  return out;
}

std::string Journal::serialize() const {
  std::string payload = magic_ + " v" + std::to_string(version_) + "\n";
  for (const auto& [k, v] : entries_) {
    payload += k;
    payload += '=';
    payload += v;
    payload += '\n';
  }
  return payload + "checksum " + hex_u64(checksum(payload)) + "\n";
}

Journal Journal::parse(std::string_view text, std::string_view expected_magic,
                       int max_version) {
  // The checksum line is the last non-empty line; everything before it is
  // the covered payload.
  const std::size_t marker = text.rfind("checksum ");
  if (marker == std::string_view::npos)
    throw std::runtime_error("Journal: no checksum (truncated file?)");
  if (marker == 0 || text[marker - 1] != '\n')
    throw std::runtime_error("Journal: malformed checksum line");
  std::string_view checksum_line = text.substr(marker);
  if (!checksum_line.empty() && checksum_line.back() == '\n')
    checksum_line.remove_suffix(1);
  const std::string_view payload = text.substr(0, marker);
  const std::uint64_t stated =
      parse_hex_u64(checksum_line.substr(std::string_view("checksum ").size()));
  if (stated != checksum(payload))
    throw std::runtime_error("Journal: checksum mismatch (corrupted file)");

  // Header: "<magic> v<version>".
  const std::size_t eol = payload.find('\n');
  if (eol == std::string_view::npos)
    throw std::runtime_error("Journal: missing header");
  const std::string_view header = payload.substr(0, eol);
  const std::size_t space = header.rfind(" v");
  if (space == std::string_view::npos)
    throw std::runtime_error("Journal: malformed header");
  const std::string_view magic = header.substr(0, space);
  if (magic != expected_magic)
    throw std::runtime_error("Journal: magic '" + std::string(magic) +
                             "' != expected '" + std::string(expected_magic) +
                             "'");
  int version = 0;
  const std::string_view vtext = header.substr(space + 2);
  const auto vres =
      std::from_chars(vtext.data(), vtext.data() + vtext.size(), version);
  if (vres.ec != std::errc{} || vres.ptr != vtext.data() + vtext.size())
    throw std::runtime_error("Journal: malformed version");
  if (version < 1 || version > max_version)
    throw std::runtime_error("Journal: version " + std::to_string(version) +
                             " not supported (max " +
                             std::to_string(max_version) + ")");

  Journal journal(std::string(magic), version);
  std::size_t pos = eol + 1;
  while (pos < payload.size()) {
    std::size_t next = payload.find('\n', pos);
    if (next == std::string_view::npos) next = payload.size();
    const std::string_view line = payload.substr(pos, next - pos);
    pos = next + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos)
      throw std::runtime_error("Journal: malformed line '" +
                               std::string(line) + "'");
    journal.set(std::string(line.substr(0, eq)),
                std::string(line.substr(eq + 1)));
  }
  return journal;
}

void Journal::save_atomic(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  const std::string text = serialize();
#if defined(__unix__) || defined(__APPLE__)
  // POSIX path: fsync the data before the rename and the directory after
  // it. Without the directory fsync the rename lives only in the page
  // cache — a power cut could resurrect the *old* journal (process-death
  // durability but not power-loss durability).
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("Journal: cannot open " + tmp);
  std::size_t written = 0;
  while (written < text.size()) {
    const ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("Journal: write failed: " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw std::runtime_error("Journal: fsync failed: " + tmp);
  }
  if (::close(fd) != 0)
    throw std::runtime_error("Journal: close failed: " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("Journal: rename " + tmp + " -> " + path +
                             " failed");
  fsync_parent_directory(path);
#else
  {
    // This IS the atomic path — the non-POSIX half of save_atomic writes
    // the temp file that the rename below commits.
    // billcap-lint: allow(raw-write): temp half of the temp+rename commit
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("Journal: cannot open " + tmp);
    out << text;
    out.flush();
    if (!out) throw std::runtime_error("Journal: write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("Journal: rename " + tmp + " -> " + path +
                             " failed");
#endif
}

std::string Journal::generation_path(const std::string& path,
                                     std::size_t generation) {
  return generation == 0 ? path : path + "." + std::to_string(generation);
}

void Journal::rotate_generations(const std::string& path,
                                 std::size_t keep_generations) {
  for (std::size_t g = keep_generations; g-- > 1;) {
    // A failed rename (usually ENOENT: that generation does not exist yet)
    // leaves the older generation in place; the fallback scan on load
    // copes with gaps and duplicates.
    std::rename(generation_path(path, g - 1).c_str(),
                generation_path(path, g).c_str());
  }
}

Journal Journal::load(const std::string& path, std::string_view expected_magic,
                      int max_version) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("Journal: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), expected_magic, max_version);
}

}  // namespace billcap::util
