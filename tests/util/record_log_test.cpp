#include "util/record_log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace billcap::util {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>{});
}

/// Every whole record of the log at `path`, in order, with whether each
/// verifies.
std::vector<std::pair<std::string, bool>> read_all(const std::string& path) {
  RecordLog::Reader log(path);
  std::vector<std::pair<std::string, bool>> out;
  std::string payload;
  while (log.position() < log.records()) {
    const bool ok = log.next(payload);
    out.emplace_back(payload, ok);
  }
  return out;
}

TEST(RecordLogTest, AppendsReadBackPaddedToTheWidestRecord) {
  const std::string path = temp_path("billcap_record_log_roundtrip.log");
  std::remove(path.c_str());
  const RecordLog::Cursor two = RecordLog::create(path, 42, {"alpha", "be"});
  EXPECT_EQ(two.count, 2u);
  EXPECT_EQ(two.record_bytes, 5u);
  const RecordLog::Cursor three = RecordLog::append(path, two, {"gamma"});
  EXPECT_EQ(three.count, 3u);

  RecordLog::Reader log(path);
  EXPECT_EQ(log.tag(), 42u);
  EXPECT_EQ(log.record_bytes(), 5u);
  EXPECT_EQ(log.records(), 3u);
  const auto all = read_all(path);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].first, "alpha");
  EXPECT_EQ(all[1].first, std::string("be\0\0\0", 5));
  EXPECT_EQ(all[2].first, "gamma");
  for (const auto& [payload, ok] : all) EXPECT_TRUE(ok) << payload;

  // A reader that walks the log ends on the writer's chain, and a reader
  // positioned mid-log checks the rest against the word stored before it.
  for (std::string payload; log.position() < log.records();)
    log.next(payload);
  EXPECT_EQ(log.cursor().chain, three.chain);
  log.seek(1);
  std::string payload;
  EXPECT_TRUE(log.next(payload));
  EXPECT_EQ(log.cursor().chain,
            fnv1a(fnv1a(RecordLog::kEmptyChain, "alpha"),
                  std::string_view("be\0\0\0", 5)));
  EXPECT_THROW(RecordLog::append(path, three, {"too wide"}),
               std::runtime_error);
  EXPECT_THROW(RecordLog::create(path, 42, {}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(RecordLogTest, TornTailIsIgnoredThenTruncatedByTheNextAppend) {
  const std::string path = temp_path("billcap_record_log_torn.log");
  std::remove(path.c_str());
  RecordLog::create(path, 7, {"aaaa"});
  const std::uintmax_t committed = std::filesystem::file_size(path);
  {
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    torn << "bbb";  // a kill mid-append
  }
  RecordLog::Reader log(path);
  EXPECT_EQ(log.records(), 1u);
  std::string payload;
  EXPECT_TRUE(log.next(payload));
  EXPECT_EQ(payload, "aaaa");
  // The reader's cursor cuts the torn bytes before appending.
  const RecordLog::Cursor two = RecordLog::append(path, log.cursor(), {"cccc"});
  EXPECT_EQ(two.count, 2u);
  EXPECT_FALSE(two.cut_tail);
  // A 32-byte header, then 4-byte payloads with an 8-byte chain each.
  EXPECT_EQ(committed, 32u + 12u);
  EXPECT_EQ(std::filesystem::file_size(path), committed + 12u);
  const auto all = read_all(path);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].first, "cccc");
  EXPECT_TRUE(all[0].second && all[1].second);
  std::remove(path.c_str());
}

TEST(RecordLogTest, ReadRefusesWhatThePrefixDoesNotMatch) {
  const std::string path = temp_path("billcap_record_log_damage.log");
  std::remove(path.c_str());
  EXPECT_THROW(RecordLog::Reader{path}, std::runtime_error);  // missing
  RecordLog::create(path, 7, {"ab", "cd"});
  {
    RecordLog::Reader log(path);
    std::string payload;
    log.next(payload);
    log.next(payload);
    EXPECT_THROW(log.next(payload), std::runtime_error);  // past the end
  }

  // Every flipped byte is seen: in the header the reader refuses the log;
  // in a record, that record (or, for its chain word, also the next) fails
  // its check and the others still verify.
  const std::string pristine = read_bytes(path);
  for (std::size_t at = 0; at < pristine.size(); ++at) {
    std::string bytes = pristine;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x20);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    if (at < 32) {
      try {
        RecordLog::Reader log(path);
        ADD_FAILURE() << "header flip at " << at << " went unseen";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
      }
      continue;
    }
    const std::size_t record = (at - 32) / 10;
    const bool chain_word = (at - 32) % 10 >= 2;
    const auto all = read_all(path);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_FALSE(all[record].second) << "flip at " << at << " went unseen";
    const bool next_fails = chain_word && record == 0;
    EXPECT_EQ(all[1 - record].second, record == 1 || !next_fails)
        << "flip at " << at;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace billcap::util
