#include "util/journal.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/mutation.hpp"
#include "util/rng.hpp"

namespace billcap::util {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(JournalTest, RoundTripsAllValueTypes) {
  Journal j("journal-test", 3);
  j.set("name", "evaluation month");
  j.set_u64("big", 0xffffffffffffffffULL);
  j.set_size("count", 720);
  j.set_double_bits("pi", 3.14159265358979312);
  j.set_double_list("lanes", {0.0, -0.0, 1.5e-300, 2.75});

  const Journal back = Journal::parse(j.serialize(), "journal-test", 3);
  EXPECT_EQ(back.version(), 3);
  EXPECT_EQ(back.get("name"), "evaluation month");
  EXPECT_EQ(back.get_u64("big"), 0xffffffffffffffffULL);
  EXPECT_EQ(back.get_size("count"), 720u);
  EXPECT_EQ(back.get_double_bits("pi"), 3.14159265358979312);
  const auto lanes = back.get_double_list("lanes");
  ASSERT_EQ(lanes.size(), 4u);
  EXPECT_EQ(lanes[0], 0.0);
  EXPECT_TRUE(std::signbit(lanes[1]));  // -0.0 survives bitwise
  EXPECT_EQ(lanes[2], 1.5e-300);
  EXPECT_EQ(lanes[3], 2.75);
  EXPECT_TRUE(back.has("pi"));
  EXPECT_FALSE(back.has("absent"));
}

TEST(JournalTest, DoubleBitsAreExactForNonFiniteAndDenormal) {
  Journal j("journal-test", 1);
  j.set_double_bits("inf", std::numeric_limits<double>::infinity());
  j.set_double_bits("denorm", std::numeric_limits<double>::denorm_min());
  const Journal back = Journal::parse(j.serialize(), "journal-test", 1);
  EXPECT_EQ(back.get_double_bits("inf"),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(back.get_double_bits("denorm"),
            std::numeric_limits<double>::denorm_min());
}

TEST(JournalTest, RejectsDuplicateAndMalformedKeys) {
  Journal j("journal-test", 1);
  j.set("key", "v");
  EXPECT_THROW(j.set("key", "again"), std::invalid_argument);
  EXPECT_THROW(j.set("", "v"), std::invalid_argument);
  EXPECT_THROW(j.set("a=b", "v"), std::invalid_argument);
  EXPECT_THROW(j.set("nl", "line1\nline2"), std::invalid_argument);
}

TEST(JournalTest, MissingKeyAndWrongTypeThrow) {
  Journal j("journal-test", 1);
  j.set("word", "hello");
  const Journal back = Journal::parse(j.serialize(), "journal-test", 1);
  EXPECT_THROW(back.get("absent"), std::runtime_error);
  EXPECT_THROW(back.get_u64("word"), std::runtime_error);
  EXPECT_THROW(back.get_double_bits("word"), std::runtime_error);
}

TEST(JournalTest, RejectsWrongMagicAndNewerVersion) {
  Journal j("journal-test", 2);
  j.set("k", "v");
  const std::string text = j.serialize();
  EXPECT_THROW(Journal::parse(text, "other-magic", 2), std::runtime_error);
  // A reader that only understands version 1 must refuse version 2.
  EXPECT_THROW(Journal::parse(text, "journal-test", 1), std::runtime_error);
  // A reader that understands a newer format still reads the old one.
  EXPECT_NO_THROW(Journal::parse(text, "journal-test", 5));
}

TEST(JournalTest, DetectsTruncationAndCorruption) {
  Journal j("journal-test", 1);
  j.set("spent", "123456");
  j.set("hour", "77");
  const std::string text = j.serialize();

  // Truncation: drop the checksum line (a partial write / torn file).
  const std::string truncated = text.substr(0, text.rfind("checksum"));
  EXPECT_THROW(Journal::parse(truncated, "journal-test", 1),
               std::runtime_error);

  // Corruption: flip one payload byte; checksum no longer matches.
  std::string corrupted = text;
  corrupted[corrupted.find("123456")] = '9';
  EXPECT_THROW(Journal::parse(corrupted, "journal-test", 1),
               std::runtime_error);

  EXPECT_THROW(Journal::parse("", "journal-test", 1), std::runtime_error);
}

TEST(JournalTest, SaveAtomicLoadsBackAndLeavesNoTempFile) {
  const std::string path = temp_path("billcap_journal_test.j");
  Journal j("journal-test", 1);
  j.set_size("hour", 42);
  j.save_atomic(path);

  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const Journal back = Journal::load(path, "journal-test", 1);
  EXPECT_EQ(back.get_size("hour"), 42u);

  // Overwrite must replace, not append.
  Journal j2("journal-test", 1);
  j2.set_size("hour", 43);
  j2.save_atomic(path);
  EXPECT_EQ(Journal::load(path, "journal-test", 1).get_size("hour"), 43u);

  std::remove(path.c_str());
}

TEST(JournalTest, GenerationPathNaming) {
  EXPECT_EQ(Journal::generation_path("ck.j", 0), "ck.j");
  EXPECT_EQ(Journal::generation_path("ck.j", 1), "ck.j.1");
  EXPECT_EQ(Journal::generation_path("ck.j", 7), "ck.j.7");
}

TEST(JournalTest, RotateGenerationsShiftsAndDropsTheOldest) {
  const std::string path = temp_path("billcap_journal_rotate.j");
  for (std::size_t g = 0; g < 5; ++g)
    std::remove(Journal::generation_path(path, g).c_str());

  const auto save_marked = [&](std::size_t mark) {
    Journal j("journal-test", 1);
    j.set_size("mark", mark);
    j.save_atomic(path);
  };
  const auto mark_of = [&](std::size_t g) {
    return Journal::load(Journal::generation_path(path, g), "journal-test", 1)
        .get_size("mark");
  };

  // Four save+rotate cycles through a K=3 chain: only the three newest
  // marks survive, each shifted one slot per rotation.
  for (std::size_t mark = 0; mark < 4; ++mark) {
    Journal::rotate_generations(path, 3);
    save_marked(mark);
  }
  EXPECT_EQ(mark_of(0), 3u);
  EXPECT_EQ(mark_of(1), 2u);
  EXPECT_EQ(mark_of(2), 1u);
  EXPECT_FALSE(std::filesystem::exists(Journal::generation_path(path, 3)));

  // Missing middle generations are skipped, not fatal.
  std::remove(Journal::generation_path(path, 1).c_str());
  Journal::rotate_generations(path, 3);
  EXPECT_FALSE(std::filesystem::exists(path));  // newest moved down
  EXPECT_EQ(mark_of(1), 3u);
  EXPECT_EQ(mark_of(2), 1u);  // old gen 2 kept its slot (gen 1 was absent)

  // keep_generations <= 1 is a no-op (single-checkpoint legacy layout).
  save_marked(9);
  Journal::rotate_generations(path, 1);
  EXPECT_EQ(mark_of(0), 9u);

  for (std::size_t g = 0; g < 5; ++g)
    std::remove(Journal::generation_path(path, g).c_str());
}

TEST(JournalTest, LoadRejectsMissingAndTruncatedFiles) {
  EXPECT_THROW(Journal::load(temp_path("billcap_journal_absent.j"),
                             "journal-test", 1),
               std::runtime_error);

  const std::string path = temp_path("billcap_journal_trunc.j");
  Journal j("journal-test", 1);
  j.set("k", "a long enough value to truncate meaningfully");
  j.save_atomic(path);
  const std::string text = slurp(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }
  EXPECT_THROW(Journal::load(path, "journal-test", 1), std::runtime_error);
  std::remove(path.c_str());
}

/// Every word of `values` as its bit pattern, so NaN and -0.0 compare.
std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

TEST(JournalTest, MutatedJournalParsesBackOrThrows) {
  // A seeded corpus of damaged journals (byte flips, cuts, appended
  // garbage) over one holding every value type a journal stores. Each
  // parse either returns the pristine values or throws std::runtime_error;
  // any other exception escapes and fails.
  Journal j("journal-test", 2);
  j.set("name", "evaluation month, seed 2012");
  j.set_u64("big", 0xffffffffffffffffULL);
  j.set_size("count", 720);
  j.set_double_bits("nan", std::numeric_limits<double>::quiet_NaN());
  j.set_double_bits("pi", 3.14159265358979312);
  j.set_double_list("lanes", {0.0, -0.0, 1.5e-300, 2.75,
                              std::numeric_limits<double>::infinity()});
  const std::string pristine = j.serialize();
  const auto expect_pristine = [&](const Journal& back) {
    EXPECT_EQ(back.serialize(), pristine);
    EXPECT_EQ(back.get("name"), "evaluation month, seed 2012");
    EXPECT_EQ(back.get_u64("big"), 0xffffffffffffffffULL);
    EXPECT_EQ(back.get_size("count"), 720u);
    EXPECT_TRUE(std::isnan(back.get_double_bits("nan")));
    EXPECT_EQ(back.get_double_bits("pi"), 3.14159265358979312);
    EXPECT_EQ(bits_of(back.get_double_list("lanes")),
              bits_of(j.get_double_list("lanes")));
  };
  // The damage the parse tolerates: none, and a cut of the final newline
  // alone. The checksum covers every other byte but the checksum's own hex
  // digits, so a uniform draw seldom lands on a tolerated mutant; these
  // two keep the parse-back branch from going unchecked.
  expect_pristine(Journal::parse(pristine, "journal-test", 2));
  expect_pristine(Journal::parse(pristine.substr(0, pristine.size() - 1),
                                 "journal-test", 2));

  Rng rng(2012);
  std::size_t parsed = 0;
  std::size_t refused = 0;
  for (int mutant = 0; mutant < 300; ++mutant) {
    std::string bytes = pristine;
    const Mutation mutation = mutate_bytes(rng, bytes);
    SCOPED_TRACE("mutant " + std::to_string(mutant) + ":" + mutation.what);
    try {
      expect_pristine(Journal::parse(bytes, "journal-test", 2));
      ++parsed;
    } catch (const std::runtime_error&) {
      ++refused;
    }
  }
  EXPECT_EQ(parsed + refused, 300u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace billcap::util
