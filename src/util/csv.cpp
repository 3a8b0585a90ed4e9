#include "util/csv.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace billcap::util {

namespace {

bool needs_quoting(std::string_view cell) {
  return cell.find_first_of(",\"\n\r") != std::string_view::npos;
}

std::string quote(std::string_view cell) {
  std::string out;
  out.reserve(cell.size() + 2);
  out.push_back('"');
  for (char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string serialize_row(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) line.push_back(',');
    line += needs_quoting(cells[i]) ? quote(cells[i]) : cells[i];
  }
  line.push_back('\n');
  return line;
}

}  // namespace

std::string format_double(double x) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, res.ptr);
}

Csv::Csv(std::vector<std::string> header) : header_(std::move(header)) {}

void Csv::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size())
    throw std::invalid_argument("Csv::add_row: width mismatch");
  rows_.push_back(std::move(cells));
}

void Csv::add_numeric_row(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) cells.push_back(format_double(v));
  add_row(std::move(cells));
}

std::string Csv::to_string() const {
  std::string text = serialize_row(header_);
  for (const auto& row : rows_) text += serialize_row(row);
  return text;
}

void Csv::save(const std::string& path) const {
  // Callers own atomicity: CsvWriter's resume path saves to a temp file
  // and renames over the original.
  // billcap-lint: allow(raw-write): primitive used by the temp+rename path
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Csv::save: cannot open " + path);
  out << to_string();
  if (!out) throw std::runtime_error("Csv::save: write failed: " + path);
}

namespace {

/// CSV text split into records of cells (quote-aware); no width checks.
struct Records {
  std::vector<std::vector<std::string>> records;
  /// The text ended inside a quoted cell: its last record was cut short.
  bool open_quote = false;
};

Records collect_records(std::string_view text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string cell;
  bool in_quotes = false;
  bool row_has_content = false;

  auto end_cell = [&] {
    record.push_back(std::move(cell));
    cell.clear();
  };
  auto end_record = [&] {
    if (row_has_content || !record.empty() || !cell.empty()) {
      end_cell();
      records.push_back(std::move(record));
      record.clear();
    }
    row_has_content = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        end_cell();
        row_has_content = true;
        break;
      case '\r':
        break;
      case '\n':
        end_record();
        break;
      default:
        cell.push_back(c);
        row_has_content = true;
    }
  }
  end_record();
  return {std::move(records), in_quotes};
}

}  // namespace

Csv Csv::parse_resilient(std::string_view text) {
  // An unterminated final line is a row the writer never finished: the
  // newline is the last byte of every committed row, so anything after the
  // last '\n' is torn and cannot be trusted (its last cell may be a
  // truncated prefix that still parses).
  if (!text.empty() && text.back() != '\n') {
    const std::size_t nl = text.find_last_of('\n');
    text = nl == std::string_view::npos ? std::string_view{}
                                        : text.substr(0, nl + 1);
  }
  auto [records, open_quote] = collect_records(text);
  if (records.empty())
    throw std::runtime_error("Csv::parse_resilient: empty document");
  Csv doc(std::move(records.front()));
  for (std::size_t r = 1; r < records.size(); ++r) {
    // A torn final row: a partial OS write that still got a newline (too
    // few cells), or one cut inside a quoted cell after a quoted newline.
    if (r + 1 == records.size() &&
        (open_quote || records[r].size() != doc.num_cols()))
      break;
    doc.add_row(std::move(records[r]));
  }
  return doc;
}

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> header)
    : path_(path), header_(std::move(header)) {
  open_fresh();
}

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> header,
                     std::size_t keep_rows)
    : path_(path), header_(std::move(header)) {
  std::ifstream probe(path_);
  if (!probe) {
    open_fresh();
    return;
  }
  probe.close();

  std::string text;
  {
    std::ifstream in(path_, std::ios::binary);
    if (!in) throw std::runtime_error("CsvWriter: cannot open " + path_);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  // A kill mid-append leaves a torn last row; it was never
  // checkpoint-committed, so dropping it is exactly the dedup the resume
  // performs anyway.
  const Csv existing = Csv::parse_resilient(text);
  if (existing.header() != header_)
    throw std::runtime_error("CsvWriter: header of " + path_ +
                             " does not match (stale file from a different "
                             "run?)");
  // Rewrite with only the rows the caller vouches for, then append. The
  // rewrite goes through a temp file + rename so a kill here cannot lose
  // the committed prefix.
  Csv kept(header_);
  const std::size_t rows = std::min(keep_rows, existing.num_rows());
  for (std::size_t r = 0; r < rows; ++r) kept.add_row(existing.rows()[r]);
  const std::string tmp = path_ + ".tmp";
  kept.save(tmp);
  if (std::rename(tmp.c_str(), path_.c_str()) != 0)
    throw std::runtime_error("CsvWriter: rename " + tmp + " -> " + path_ +
                             " failed");
  out_.open(path_, std::ios::app);
  if (!out_) throw std::runtime_error("CsvWriter: cannot reopen " + path_);
  num_rows_ = rows;
}

void CsvWriter::open_fresh() {
  out_.open(path_, std::ios::trunc);
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path_);
  out_ << serialize_row(header_);
  out_.flush();
  if (!out_) throw std::runtime_error("CsvWriter: write failed: " + path_);
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  if (cells.size() != header_.size())
    throw std::invalid_argument("CsvWriter::add_row: width mismatch");
  out_ << serialize_row(cells);
  out_.flush();
  if (!out_) throw std::runtime_error("CsvWriter: write failed: " + path_);
  ++num_rows_;
}

}  // namespace billcap::util
