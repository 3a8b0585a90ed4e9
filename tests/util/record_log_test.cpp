#include "util/record_log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
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

TEST(RecordLogTest, AppendsReadBackPaddedToTheWidestRecord) {
  const std::string path = temp_path("billcap_record_log_roundtrip.log");
  std::remove(path.c_str());
  const RecordLog::Prefix two =
      RecordLog::append(path, 42, 0, {"alpha", "be"});
  EXPECT_EQ(two.count, 2u);
  const RecordLog::Prefix three = RecordLog::append(path, 42, 2, {"gamma"});
  EXPECT_EQ(three.count, 3u);

  const RecordLog::Contents all = RecordLog::read(path, three);
  EXPECT_EQ(all.tag, 42u);
  EXPECT_EQ(all.record_bytes, 5u);
  EXPECT_EQ(all.payloads, std::string("alphabe\0\0\0gamma", 15));
  // An older prefix still reads: appends never touch what they keep.
  EXPECT_EQ(RecordLog::read(path, two).payloads.size(), 10u);
  // An empty append only reports the kept prefix's chain.
  const RecordLog::Prefix kept = RecordLog::append(path, 42, 2, {});
  EXPECT_EQ(kept.count, two.count);
  EXPECT_EQ(kept.chain, two.chain);
  EXPECT_THROW(RecordLog::append(path, 42, 3, {"too wide"}),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(RecordLogTest, TornTailIsIgnoredThenTruncatedByTheNextAppend) {
  const std::string path = temp_path("billcap_record_log_torn.log");
  std::remove(path.c_str());
  const RecordLog::Prefix one = RecordLog::append(path, 7, 0, {"aaaa"});
  const std::uintmax_t committed = std::filesystem::file_size(path);
  {
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    torn << "bbb";  // a kill mid-append
  }
  EXPECT_EQ(RecordLog::read(path, one).payloads, "aaaa");
  const RecordLog::Prefix two = RecordLog::append(path, 7, 1, {"cccc"});
  // A 32-byte header, then 4-byte payloads with an 8-byte chain each.
  EXPECT_EQ(committed, 32u + 12u);
  EXPECT_EQ(std::filesystem::file_size(path), committed + 12u);
  EXPECT_EQ(RecordLog::read(path, two).payloads, "aaaacccc");
  std::remove(path.c_str());
}

TEST(RecordLogTest, ReadRefusesWhatThePrefixDoesNotMatch) {
  const std::string path = temp_path("billcap_record_log_damage.log");
  std::remove(path.c_str());
  EXPECT_THROW(RecordLog::read(path, {1, 0}), std::runtime_error);  // missing
  const RecordLog::Prefix two = RecordLog::append(path, 7, 0, {"ab", "cd"});
  EXPECT_THROW(RecordLog::read(path, {3, two.chain}), std::runtime_error);
  EXPECT_THROW(RecordLog::read(path, {2, two.chain ^ 1}), std::runtime_error);

  const std::string pristine = read_bytes(path);
  for (std::size_t at = 0; at < pristine.size(); ++at) {
    std::string bytes = pristine;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x20);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    try {
      RecordLog::read(path, two);
      ADD_FAILURE() << "flip at " << at << " went unseen";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace billcap::util
