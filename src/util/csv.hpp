#pragma once

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace billcap::util {

/// Minimal CSV document: a header row plus numeric/text cells. The benches
/// write their series as CSV so results can be plotted; CsvWriter reads a
/// file back (parse_resilient) when it resumes one.
class Csv {
 public:
  Csv() = default;

  /// Creates an empty document with the given column names.
  explicit Csv(std::vector<std::string> header);

  /// Appends a row of preformatted cells. Must match the header width.
  void add_row(std::vector<std::string> cells);

  /// Appends a row of doubles, formatted with enough digits to round-trip.
  void add_numeric_row(const std::vector<double>& values);

  const std::vector<std::string>& header() const noexcept { return header_; }
  const std::vector<std::vector<std::string>>& rows() const noexcept {
    return rows_;
  }
  std::size_t num_rows() const noexcept { return rows_.size(); }
  std::size_t num_cols() const noexcept { return header_.size(); }

  /// Serializes to RFC-4180-ish CSV (quotes cells containing separators).
  std::string to_string() const;

  /// Writes to a file; throws std::runtime_error on I/O failure.
  void save(const std::string& path) const;

  /// Parses CSV text (first row is the header; quoted cells may hold
  /// separators, quotes and newlines), tolerating the shape a SIGKILL
  /// mid-append leaves behind: a torn *final* record — an unterminated
  /// last line, a trailing row with fewer cells than the header, or a
  /// record cut inside a quoted cell — is dropped instead of throwing.
  /// A row of the wrong width anywhere else throws std::invalid_argument;
  /// a document without a header throws std::runtime_error.
  static Csv parse_resilient(std::string_view text);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double compactly but losslessly (shortest round-trip form).
std::string format_double(double x);

/// Incremental CSV writer for long-running loops: every appended row is
/// written and flushed immediately, so a process killed mid-run leaves a
/// readable file whose last line is a complete row (hour-aligned — no torn
/// records for a resumed run to deduplicate).
class CsvWriter {
 public:
  /// Starts a fresh file containing only the header.
  CsvWriter(const std::string& path, std::vector<std::string> header);

  /// Resumes an existing file: parses it, verifies the header matches,
  /// keeps the first `keep_rows` data rows (dropping any beyond — rows a
  /// checkpoint never committed), and appends after them. A torn final
  /// row (the writer was killed mid-append) is dropped, not an error. If
  /// the file does not exist it is created fresh. Throws
  /// std::runtime_error on a header mismatch or unparseable file.
  CsvWriter(const std::string& path, std::vector<std::string> header,
            std::size_t keep_rows);

  /// Appends one row (must match the header width) and flushes to disk.
  void add_row(const std::vector<std::string>& cells);

  /// Data rows currently in the file (kept + appended).
  std::size_t num_rows() const noexcept { return num_rows_; }
  const std::string& path() const noexcept { return path_; }

 private:
  void open_fresh();

  std::string path_;
  std::vector<std::string> header_;
  std::size_t num_rows_ = 0;
  // The stream lives in a pimpl-free member; ofstream is movable.
  // CsvWriter is the sanctioned streaming writer: append-only, flushed
  // per row, torn rows dropped on resume.
  // billcap-lint: allow(raw-write): append stream with torn-row recovery
  std::ofstream out_;
};

}  // namespace billcap::util
