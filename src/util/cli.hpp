#pragma once

#include <initializer_list>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace billcap::util {

/// A bad command line (unknown flag, unparseable or out-of-range value,
/// repeated flag, stray argument, contradictory flags). Tools catch this
/// separately from std::runtime_error and exit with the usage code (2)
/// instead of the generic error code (1).
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

enum class FlagKind { kSwitch, kText, kNumber, kInteger, kNumberList };

/// Where a number, integer or list item must lie: [lo, hi], or (lo, hi]
/// when `lo_open`; NaN never does. `text` names it in errors and --help.
struct Range {
  double lo;
  double hi;
  bool lo_open;
  std::string_view text;
};

inline constexpr double kMaxFinite = std::numeric_limits<double>::max();
inline constexpr double kInfinity = std::numeric_limits<double>::infinity();
inline constexpr Range kFinite{-kMaxFinite, kMaxFinite, false, "finite"};
inline constexpr Range kProbability{0.0, 1.0, false, "in [0, 1]"};
inline constexpr Range kPositive{0.0, kMaxFinite, true, "finite, > 0"};
inline constexpr Range kNonNegative{0.0, kInfinity, false, ">= 0"};
inline constexpr Range kAtLeastOne{1.0, kInfinity, false, ">= 1"};

/// One row of a command's flag table, the only place a flag is declared.
/// `fallback` is the default as spelled on the command line; an empty one
/// on a number, integer or list row means "unset" (check has() first).
struct Flag {
  std::string_view name;  ///< without the leading "--"
  FlagKind kind;
  std::string_view help;
  std::string_view fallback = {};
  Range range = kFinite;
};

using FlagTable = std::vector<Flag>;

/// Concatenates row groups; a name declared twice is a std::logic_error.
FlagTable join(std::initializer_list<std::span<const Flag>> groups);

/// A command line `[--flag value | --flag=value | --switch]...` checked
/// against a flag table. Everything is validated at construction, before
/// the command does any work.
class CliArgs {
 public:
  /// Parses argv[1..argc) (argv[0], the program or command word, is
  /// skipped). Throws UsageError for a flag not in `table` (naming the
  /// nearest one), a value that does not convert or is out of range, a
  /// repeated flag or a stray argument. Switches never take a value. A
  /// `--help` anywhere skips every check and sets help().
  CliArgs(std::span<const Flag> table, int argc, const char* const* argv);

  bool help() const noexcept { return help_; }
  const FlagTable& table() const noexcept { return table_; }

  /// True if the flag was given on the command line.
  bool has(std::string_view name) const;

  /// The given value, else the row's default. Reading a name the table
  /// does not declare, as another kind, or unset without a default is a
  /// programming error (std::logic_error).
  bool get_switch(std::string_view name) const;
  std::string get_text(std::string_view name) const;
  double get_number(std::string_view name) const;
  long get_integer(std::string_view name) const;
  std::vector<double> get_number_list(std::string_view name) const;

  /// The given flags that `rows` declares, in command-line order, as
  /// tokens that parse back to the same values (to forward to a child).
  std::vector<std::string> tokens_for(std::span<const Flag> rows) const;

 private:
  const Flag& row(std::string_view name, std::optional<FlagKind> kind) const;
  const std::string* given(std::string_view name) const;
  std::string_view value(const Flag& flag) const;

  FlagTable table_;
  bool help_ = false;
  std::vector<std::pair<std::string_view, std::string>> given_;
};

/// One line per row: name, value kind, help, range and default.
std::string help_text(std::span<const Flag> table);

}  // namespace billcap::util
