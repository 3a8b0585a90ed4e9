#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/mutation.hpp"
#include "util/rng.hpp"

namespace billcap::util {
namespace {

/// Reads a whole file through the one CSV reader production links.
Csv load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return Csv::parse_resilient(text.str());
}

TEST(CsvTest, RoundTripNumericRows) {
  Csv doc({"hour", "cost"});
  doc.add_numeric_row({0.0, 123.456});
  doc.add_numeric_row({1.0, 0.1});
  const Csv parsed = Csv::parse_resilient(doc.to_string());
  ASSERT_EQ(parsed.num_rows(), 2u);
  EXPECT_EQ(std::stod(parsed.rows()[0][1]), 123.456);
  EXPECT_EQ(std::stod(parsed.rows()[1][1]), 0.1);
}

TEST(CsvTest, HeaderAccessors) {
  Csv doc({"a", "b", "c"});
  EXPECT_EQ(doc.num_cols(), 3u);
  EXPECT_EQ(doc.header()[1], "b");
  EXPECT_EQ(doc.num_rows(), 0u);
}

TEST(CsvTest, AddRowWidthMismatchThrows) {
  Csv doc({"a", "b"});
  EXPECT_THROW(doc.add_row({"only-one"}), std::invalid_argument);
}

TEST(CsvTest, QuotedCellsWithCommasAndQuotes) {
  Csv doc({"name", "note"});
  doc.add_row({"x,y", "he said \"hi\""});
  const std::string text = doc.to_string();
  const Csv parsed = Csv::parse_resilient(text);
  EXPECT_EQ(parsed.rows()[0][0], "x,y");
  EXPECT_EQ(parsed.rows()[0][1], "he said \"hi\"");
}

TEST(CsvTest, ParsesQuotedNewlines) {
  const Csv parsed = Csv::parse_resilient("a,b\n\"line1\nline2\",2\n");
  ASSERT_EQ(parsed.num_rows(), 1u);
  EXPECT_EQ(parsed.rows()[0][0], "line1\nline2");
}

TEST(CsvTest, ParsesCrLf) {
  const Csv parsed = Csv::parse_resilient("a,b\r\n1,2\r\n");
  ASSERT_EQ(parsed.num_rows(), 1u);
  EXPECT_EQ(parsed.rows()[0][1], "2");
}

TEST(CsvTest, EmptyDocumentThrows) {
  EXPECT_THROW(Csv::parse_resilient(""), std::runtime_error);
}

TEST(CsvTest, SaveAndLoad) {
  const auto path =
      (std::filesystem::temp_directory_path() / "billcap_csv_test.csv")
          .string();
  Csv doc({"x"});
  doc.add_numeric_row({42.0});
  doc.save(path);
  const Csv loaded = load(path);
  ASSERT_EQ(loaded.num_rows(), 1u);
  EXPECT_EQ(loaded.rows()[0][0], "42");
  std::remove(path.c_str());
}

TEST(CsvTest, FormatDoubleRoundTrips) {
  for (double x : {0.1, 1.0 / 3.0, 1e-300, 12345.6789}) {
    EXPECT_EQ(std::stod(format_double(x)), x);
  }
}

namespace {
std::string writer_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}
}  // namespace

TEST(CsvWriterTest, EveryRowIsOnDiskImmediately) {
  const std::string path = writer_path("billcap_csv_writer_flush.csv");
  CsvWriter writer(path, {"hour", "cost"});
  for (int h = 0; h < 3; ++h) {
    writer.add_row({std::to_string(h), "1.5"});
    // Flushed after every row: a reader (or a post-mortem after a kill)
    // sees all committed rows without waiting for the writer to close.
    const Csv seen = load(path);
    EXPECT_EQ(seen.num_rows(), static_cast<std::size_t>(h + 1));
  }
  EXPECT_EQ(writer.num_rows(), 3u);
  std::remove(path.c_str());
}

TEST(CsvWriterTest, RowWidthMismatchThrows) {
  const std::string path = writer_path("billcap_csv_writer_width.csv");
  CsvWriter writer(path, {"a", "b"});
  EXPECT_THROW(writer.add_row({"only-one"}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(CsvWriterTest, ResumeKeepsCommittedRowsAndDropsTail) {
  const std::string path = writer_path("billcap_csv_writer_resume.csv");
  {
    CsvWriter writer(path, {"hour", "cost"});
    for (int h = 0; h < 5; ++h) writer.add_row({std::to_string(h), "1"});
  }
  // Resume as if only the first 3 rows were checkpoint-committed: rows 3-4
  // are dropped, appends continue at row 3, nothing is duplicated.
  CsvWriter resumed(path, {"hour", "cost"}, 3);
  EXPECT_EQ(resumed.num_rows(), 3u);
  resumed.add_row({"3", "2"});
  const Csv seen = load(path);
  ASSERT_EQ(seen.num_rows(), 4u);
  EXPECT_EQ(seen.rows()[2][1], "1");
  EXPECT_EQ(seen.rows()[3][1], "2");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, ResumeOfMissingFileStartsFresh) {
  const std::string path = writer_path("billcap_csv_writer_absent.csv");
  std::remove(path.c_str());
  CsvWriter writer(path, {"a"}, 10);
  EXPECT_EQ(writer.num_rows(), 0u);
  writer.add_row({"1"});
  EXPECT_EQ(load(path).num_rows(), 1u);
  std::remove(path.c_str());
}

TEST(CsvTest, ParseResilientDropsTornFinalRecordOnly) {
  // A SIGKILL mid-append leaves an unterminated final line...
  Csv doc = Csv::parse_resilient("hour,cost\n0,1.5\n1,2.5\n2,3.");
  ASSERT_EQ(doc.num_rows(), 2u);
  EXPECT_EQ(doc.rows()[1][1], "2.5");

  // ...or a terminated final row with too few cells. Both are dropped.
  doc = Csv::parse_resilient("hour,cost\n0,1.5\n1\n");
  ASSERT_EQ(doc.num_rows(), 1u);

  // ...or a final record cut inside a quoted cell, just after a quoted
  // newline: the text ends on '\n' but the quote never closed.
  doc = Csv::parse_resilient("a,b\n1,ok\n2,\"x\n");
  ASSERT_EQ(doc.num_rows(), 1u);
  EXPECT_EQ(doc.rows()[0][1], "ok");

  // An intact document keeps every row.
  doc = Csv::parse_resilient("hour,cost\n0,1.5\n1,2.5\n");
  EXPECT_EQ(doc.num_rows(), 2u);

  // A torn row anywhere but the tail is real corruption, not a crash
  // artifact: still an error.
  EXPECT_THROW(Csv::parse_resilient("hour,cost\n0\n1,2.5\n"),
               std::invalid_argument);
}

TEST(CsvTest, ParseResilientTornQuotedCell) {
  // The kill landed inside a quoted cell: the unterminated quote swallows
  // the rest of the text, making the last record torn — dropped.
  const Csv doc = Csv::parse_resilient("hour,note\n0,\"ok\"\n1,\"half");
  ASSERT_EQ(doc.num_rows(), 1u);
  EXPECT_EQ(doc.rows()[0][1], "ok");
}

TEST(CsvWriterTest, ResumeAfterTornLastRowDropsItAndContinues) {
  const std::string path = writer_path("billcap_csv_writer_torn.csv");
  {
    CsvWriter writer(path, {"hour", "cost"});
    for (int h = 0; h < 3; ++h) writer.add_row({std::to_string(h), "1"});
  }
  // Simulate a kill mid-append: a torn, unterminated fourth row.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "3,9";  // no newline — the flush never completed
  }
  // Resume keeping all 3 committed rows: the torn tail must not count as
  // a row, corrupt the parse, or survive on disk after the next append.
  CsvWriter resumed(path, {"hour", "cost"}, 3);
  EXPECT_EQ(resumed.num_rows(), 3u);
  resumed.add_row({"3", "2"});
  const Csv seen = load(path);
  ASSERT_EQ(seen.num_rows(), 4u);
  EXPECT_EQ(seen.rows()[3][0], "3");
  EXPECT_EQ(seen.rows()[3][1], "2");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, ResumeAfterTornRowBelowKeepCountReplaysFromCheckpoint) {
  const std::string path = writer_path("billcap_csv_writer_torn_short.csv");
  {
    CsvWriter writer(path, {"hour", "cost"});
    writer.add_row({"0", "1"});
    writer.add_row({"1", "1"});
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "2,1";  // torn: hour 2 never committed its checkpoint
  }
  // The checkpoint says 3 rows were committed, but only 2 survived whole:
  // the writer keeps what is actually intact and the caller re-appends
  // the replayed hours (fewer rows than asked for is not an error).
  CsvWriter resumed(path, {"hour", "cost"}, 3);
  EXPECT_EQ(resumed.num_rows(), 2u);
  std::remove(path.c_str());
}

TEST(CsvWriterTest, ResumeHeaderMismatchThrows) {
  const std::string path = writer_path("billcap_csv_writer_header.csv");
  { CsvWriter writer(path, {"a", "b"}); }
  EXPECT_THROW(CsvWriter(path, {"x", "y"}, 0), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CsvTest, MutatedCsvParsesACommittedPrefixOrThrows) {
  // A seeded corpus of damaged CSVs (byte flips, cuts, appended garbage)
  // over a streamed-month file whose text cells need quoting, one with a
  // quoted newline. A CSV carries no checksum, so a flip inside a row is
  // not seen; what parse_resilient owes is the committed prefix: every
  // row whose newline precedes the first damaged byte comes back verbatim
  // and in order (the header too), each row has the header's width, and a
  // cut returns exactly that prefix. Otherwise it throws one of its two
  // types; any other exception escapes and fails.
  Csv doc({"hour", "cost", "mode", "note"});
  for (int h = 0; h < 12; ++h)
    doc.add_row({std::to_string(h), format_double(1000.0 + h / 7.0),
                 h % 4 == 3 ? "fallback" : "capped",
                 h == 5 ? "stale feed,\nretried \"twice\"" : "ok"});
  const std::string pristine = doc.to_string();
  // Offset of the newline ending the header (row 0) and each data row.
  std::vector<std::size_t> row_end;
  {
    Csv prefix(doc.header());
    row_end.push_back(prefix.to_string().size() - 1);
    for (const std::vector<std::string>& row : doc.rows()) {
      prefix.add_row(row);
      row_end.push_back(prefix.to_string().size() - 1);
    }
  }

  Rng rng(2012);
  std::size_t parsed = 0;
  std::size_t refused = 0;
  for (int mutant = 0; mutant < 300; ++mutant) {
    std::string bytes = pristine;
    const Mutation mutation = mutate_bytes(rng, bytes);
    SCOPED_TRACE("mutant " + std::to_string(mutant) + ":" + mutation.what);
    // Data rows wholly before the first damaged byte.
    std::size_t intact = 0;
    while (intact + 1 < row_end.size() &&
           row_end[intact + 1] < mutation.first_changed)
      ++intact;
    const bool header_intact = row_end[0] < mutation.first_changed;
    try {
      const Csv back = Csv::parse_resilient(bytes);
      ++parsed;
      for (const std::vector<std::string>& row : back.rows())
        EXPECT_EQ(row.size(), back.num_cols());
      if (header_intact) {
        EXPECT_EQ(back.header(), doc.header());
      }
      ASSERT_GE(back.num_rows(), intact);
      for (std::size_t r = 0; r < intact; ++r)
        EXPECT_EQ(back.rows()[r], doc.rows()[r]) << "row " << r;
      if (mutation.kind == Mutation::Kind::kCut) {
        EXPECT_TRUE(header_intact);
        EXPECT_EQ(back.num_rows(), intact);
      }
    } catch (const std::runtime_error&) {
      ++refused;
      // Only a document without a whole header line is empty.
      if (mutation.kind != Mutation::Kind::kFlip) {
        EXPECT_FALSE(header_intact);
      }
    } catch (const std::invalid_argument&) {
      ++refused;
    }
  }
  // Both outcomes occur: a torn tail or damage late in a row leaves a
  // committed prefix, a cut into the header or a row of the wrong width
  // before the last is refused.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace billcap::util
