#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <optional>
#include <type_traits>
#include <utility>

namespace billcap::util {

namespace {

std::string dashed(std::string_view name) {
  return "--" + std::string(name);
}

/// One number (double) or integer (long) value of `flag`, range-checked.
/// Overflow is an error, never a silent clamp.
template <typename T>
T convert(const Flag& flag, std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  errno = 0;
  T v{};
  if constexpr (std::is_same_v<T, long>)
    v = std::strtol(s.c_str(), &end, 10);
  else
    v = std::strtod(s.c_str(), &end);
  const auto d = static_cast<double>(v);
  const Range& r = flag.range;
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE ||
      !((r.lo_open ? d > r.lo : d >= r.lo) && d <= r.hi))
    throw UsageError(
        dashed(flag.name) + ": expected " +
        (std::is_same_v<T, long> ? "an integer" : "a number") +
        (r.text == kFinite.text ? "" : " (" + std::string(r.text) + ")") +
        ", got '" + s + "'");
  return v;
}

/// "0.5e6,1e6,,2e6": empty items are skipped, an empty list is an error.
std::vector<double> convert_list(const Flag& flag, std::string_view text) {
  std::vector<double> out;
  for (std::size_t pos = 0; pos <= text.size();) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    if (comma > pos)
      out.push_back(convert<double>(flag, text.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  if (out.empty())
    throw UsageError(dashed(flag.name) + ": expected a list of numbers");
  return out;
}

void check_value(const Flag& flag, std::string_view text) {
  if (flag.kind == FlagKind::kNumber) convert<double>(flag, text);
  if (flag.kind == FlagKind::kInteger) convert<long>(flag, text);
  if (flag.kind == FlagKind::kNumberList) convert_list(flag, text);
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t above = row[j];
      row[j] = std::min({above + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = above;
    }
  }
  return row[b.size()];
}

const Flag* find_flag(std::span<const Flag> table, std::string_view name) {
  const auto it = std::find_if(table.begin(), table.end(),
                               [&](const Flag& f) { return f.name == name; });
  return it == table.end() ? nullptr : &*it;
}

}  // namespace

FlagTable join(std::initializer_list<std::span<const Flag>> groups) {
  FlagTable table;
  for (const std::span<const Flag> group : groups)
    for (const Flag& flag : group) {
      if (find_flag(table, flag.name) != nullptr)
        throw std::logic_error(dashed(flag.name) + " is declared twice");
      table.push_back(flag);
    }
  return table;
}

CliArgs::CliArgs(std::span<const Flag> table, int argc,
                 const char* const* argv)
    : table_(table.begin(), table.end()) {
  for (const Flag& flag : table_) {
    try {
      if (!flag.fallback.empty()) check_value(flag, flag.fallback);
    } catch (const UsageError& e) {
      throw std::logic_error(std::string("bad default: ") + e.what());
    }
  }
  const std::vector<std::string_view> tokens(argv + std::min(argc, 1),
                                             argv + argc);
  help_ = std::find(tokens.begin(), tokens.end(), "--help") != tokens.end();
  for (std::size_t i = 0; i < tokens.size() && !help_; ++i) {
    const std::string_view token = tokens[i];
    if (token.size() < 3 || !token.starts_with("--"))
      throw UsageError("unexpected argument '" + std::string(token) + "'");
    const std::size_t eq = token.find('=');
    const std::string_view name =
        token.substr(2, eq == std::string_view::npos ? eq : eq - 2);
    const Flag* flag = find_flag(table_, name);
    if (flag == nullptr) {
      // Nearest by edit distance; on a tie, a row whose name contains the
      // typed one wins (a retired spelling names its renamed row).
      const auto rank = [&](const Flag& row) {
        return std::pair(edit_distance(name, row.name),
                         row.name.find(name) == std::string_view::npos);
      };
      const auto nearest = std::min_element(
          table_.begin(), table_.end(),
          [&](const Flag& a, const Flag& b) { return rank(a) < rank(b); });
      throw UsageError(
          "unknown flag " + dashed(name) + " (nearest: " +
          (nearest == table_.end() ? "none" : dashed(nearest->name)) + ")");
    }
    if (given(name)) throw UsageError(dashed(name) + " is given twice");
    std::string text;
    if (flag->kind == FlagKind::kSwitch) {
      if (eq != std::string_view::npos)
        throw UsageError(dashed(name) + " is a switch and takes no value");
    } else if (eq != std::string_view::npos) {
      text = token.substr(eq + 1);
    } else if (i + 1 < tokens.size() && !tokens[i + 1].starts_with("--")) {
      text = tokens[++i];
    } else {
      throw UsageError(dashed(name) + " needs a value");
    }
    check_value(*flag, text);
    given_.emplace_back(flag->name, std::move(text));
  }
}

const Flag& CliArgs::row(std::string_view name,
                         std::optional<FlagKind> kind) const {
  const Flag* flag = find_flag(table_, name);
  if (flag == nullptr || (kind && flag->kind != *kind))
    throw std::logic_error(dashed(name) + (flag == nullptr
                                               ? " is not in the flag table"
                                               : " is read as another kind"));
  return *flag;
}

const std::string* CliArgs::given(std::string_view name) const {
  for (const auto& [flag, text] : given_)
    if (flag == name) return &text;
  return nullptr;
}

std::string_view CliArgs::value(const Flag& flag) const {
  if (const std::string* text = given(flag.name)) return *text;
  if (flag.fallback.empty() && flag.kind != FlagKind::kText)
    throw std::logic_error(dashed(flag.name) + " has no default; check has()");
  return flag.fallback;
}

bool CliArgs::has(std::string_view name) const {
  return given(row(name, std::nullopt).name) != nullptr;
}

bool CliArgs::get_switch(std::string_view name) const {
  return given(row(name, FlagKind::kSwitch).name) != nullptr;
}

std::string CliArgs::get_text(std::string_view name) const {
  return std::string(value(row(name, FlagKind::kText)));
}

double CliArgs::get_number(std::string_view name) const {
  const Flag& flag = row(name, FlagKind::kNumber);
  return convert<double>(flag, value(flag));
}

long CliArgs::get_integer(std::string_view name) const {
  const Flag& flag = row(name, FlagKind::kInteger);
  return convert<long>(flag, value(flag));
}

std::vector<double> CliArgs::get_number_list(std::string_view name) const {
  const Flag& flag = row(name, FlagKind::kNumberList);
  return convert_list(flag, value(flag));
}

std::vector<std::string> CliArgs::tokens_for(
    std::span<const Flag> rows) const {
  std::vector<std::string> tokens;
  for (const auto& [name, text] : given_)
    if (const Flag* flag = find_flag(rows, name))
      tokens.push_back(dashed(name) +
                       (flag->kind == FlagKind::kSwitch ? "" : "=" + text));
  return tokens;
}

std::string help_text(std::span<const Flag> table) {
  constexpr std::string_view kPlaceholder[] = {"", " <text>", " <x>", " <n>",
                                               " <x,...>"};
  const auto left = [&](const Flag& flag) {
    return dashed(flag.name) +
           std::string(kPlaceholder[static_cast<std::size_t>(flag.kind)]);
  };
  std::size_t width = 0;
  for (const Flag& flag : table) width = std::max(width, left(flag).size());
  std::string out;
  for (const Flag& flag : table) {
    const bool ranged = flag.kind != FlagKind::kSwitch &&
                        flag.kind != FlagKind::kText &&
                        flag.range.text != kFinite.text;
    std::string notes(ranged ? flag.range.text : "");
    if (!flag.fallback.empty())
      notes += (ranged ? "; default " : "default ") + std::string(flag.fallback);
    std::string line = left(flag);
    line.resize(width + 2, ' ');
    out += "  " + line + std::string(flag.help) +
           (notes.empty() ? "" : " (" + notes + ")") + "\n";
  }
  return out;
}

}  // namespace billcap::util
