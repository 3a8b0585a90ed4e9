#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "model.hpp"

namespace billcap::lint {

namespace {

// ---- rule catalogue --------------------------------------------------------

constexpr std::array<RuleInfo, kRuleCount> kRules = {{
    {Rule::kWallClock, "BL001", "wall-clock",
     "wall-clock time and ambient PRNGs make a resumed month diverge from "
     "an uninterrupted one"},
    {Rule::kUnorderedIter, "BL002", "unordered-iter",
     "unordered container iteration order is unspecified and must never "
     "feed serialized output"},
    {Rule::kFloatFormat, "BL003", "float-format",
     "floating output without explicit precision depends on library "
     "defaults and silently loses bits"},
    {Rule::kExitCode, "BL010", "exit-code",
     "the exit-code protocol lives in core::ExitCode; scattered literals "
     "drift"},
    {Rule::kJournalKey, "BL011", "journal-key",
     "journal keys live in src/core/checkpoint_keys.hpp; a typo'd raw key "
     "silently drops state on resume"},
    {Rule::kRawWrite, "BL012", "raw-write",
     "durable writes must go through a sanctioned writer: the atomic "
     "temp+rename util::Journal, or the append-only util::CsvWriter and "
     "util::RecordLog"},
    {Rule::kCatchAll, "BL020", "catch-all",
     "a swallowed exception must tag a FailureReason or rethrow; silence "
     "hides degradation"},
    {Rule::kTodoIssue, "BL021", "todo-issue",
     "a TODO/FIXME without an issue reference (#N) is untracked debt"},
    {Rule::kUnboundedQueue, "BL022", "unbounded-queue",
     "a container growing inside a loop with no visible bound is an OOM "
     "under overload; serving-path buffers must be capacity-checked"},
    {Rule::kSolveAlloc, "BL023", "solve-alloc",
     "the lp solver's loops must not touch the heap — the arena is sized "
     "before iteration starts; reserve up front or annotate "
     "allow(solve-alloc)"},
    {Rule::kParallelReduce, "BL024", "parallel-reduce",
     "a reduction whose order depends on thread scheduling (accumulating "
     "under a mutex, atomic adds on floats) breaks bitwise determinism; "
     "write results to indexed slots and fold in a fixed order"},
    {Rule::kFixedPoint, "BL025", "fixed-point",
     "a convergence-driven while loop with no visible iteration cap or "
     "epsilon exit can cycle forever (a fixed point is a hope, not a "
     "bound); cap the iterations like the market coupler's max_iters"},
    {Rule::kBareAllow, "BL030", "bare-allow",
     "every suppression must say why the hazard is sanctioned"},
    {Rule::kLayering, "BL040", "layering",
     "the layer DAG (util -> {lp,queueing} -> {market,datacenter,workload} "
     "-> core -> serve -> tools) is the architecture; an inverted include "
     "couples a lower layer upward and rots into a cycle"},
    {Rule::kJournalRegistry, "BL041", "journal-key-registry",
     "every journal key written anywhere must be declared in "
     "src/core/checkpoint_keys.hpp; an unregistered key silently drops "
     "state on resume"},
    {Rule::kExitRegistry, "BL042", "exit-code-registry",
     "every process exit code must be a value of core::ExitCode "
     "(src/core/exit_codes.hpp); an unregistered literal is a protocol "
     "the watchdog cannot interpret"},
    {Rule::kUnseededRng, "BL043", "unseeded-rng",
     "an ambient-seeded RNG (std::random_device, rand(), time-seeded "
     "engines) outside test code makes runs unreproducible; seed from "
     "config through util::Rng"},
    {Rule::kFlagRegistry, "BL044", "flag-registry",
     "every flag a tool reads must have a row in a util::Flag table, and "
     "every row must be read; an undeclared read throws at run time and a "
     "dead row is a flag the parser accepts and silently ignores"},
}};

bool is_word(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool is_digit(char c) noexcept {
  return std::isdigit(static_cast<unsigned char>(c));
}

std::size_t skip_spaces(std::string_view s, std::size_t pos) {
  while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
  return pos;
}

/// Calls `fn(identifier, pos)` for every identifier token in `code`.
template <typename Fn>
void for_each_identifier(std::string_view code, Fn&& fn) {
  std::size_t i = 0;
  while (i < code.size()) {
    if (is_word(code[i]) && !is_digit(code[i])) {
      std::size_t j = i;
      while (j < code.size() && is_word(code[j])) ++j;
      fn(code.substr(i, j - i), i);
      i = j;
    } else {
      ++i;
    }
  }
}

bool followed_by_call(std::string_view code, std::size_t end_pos) {
  const std::size_t p = skip_spaces(code, end_pos);
  return p < code.size() && code[p] == '(';
}

// ---- per-rule checks -------------------------------------------------------

/// BL001 tokens that are hazardous on sight (type/namespace names).
constexpr std::string_view kClockTokens[] = {
    "system_clock", "steady_clock",  "high_resolution_clock",
    "random_device", "gettimeofday", "clock_gettime",
    "localtime",     "gmtime",       "localtime_r",
    "gmtime_r",      "timespec_get",
};

/// BL001 tokens that are only hazardous as calls (short common words).
constexpr std::string_view kClockCallTokens[] = {
    "rand", "srand", "time", "clock", "drand48", "lrand48", "mrand48",
};

constexpr std::string_view kUnorderedTokens[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

constexpr std::string_view kPrintfTokens[] = {
    "printf", "fprintf", "sprintf", "snprintf",
    "vprintf", "vfprintf", "vsnprintf", "dprintf",
};

constexpr std::string_view kRawWriteCallTokens[] = {"fopen", "freopen"};

constexpr std::string_view kJournalAccessors[] = {
    "set",          "set_u64",        "set_size", "set_double_bits",
    "set_double_list", "get",         "get_u64",  "get_size",
    "get_double_bits", "get_double_list", "has",
};

template <typename Range>
bool contains(const Range& range, std::string_view token) {
  return std::find(std::begin(range), std::end(range), token) !=
         std::end(range);
}

void check_wall_clock(std::string_view code, std::vector<std::string>& hits) {
  for_each_identifier(code, [&](std::string_view tok, std::size_t pos) {
    if (contains(kClockTokens, tok) ||
        (contains(kClockCallTokens, tok) &&
         followed_by_call(code, pos + tok.size())))
      hits.push_back("call to '" + std::string(tok) +
                     "' — wall-clock/ambient randomness breaks bitwise "
                     "resume; use the seeded util::Rng or the simulated "
                     "hour, or annotate allow(wall-clock)");
  });
}

void check_unordered(std::string_view code, std::vector<std::string>& hits) {
  for_each_identifier(code, [&](std::string_view tok, std::size_t) {
    if (contains(kUnorderedTokens, tok)) {
      std::string msg = "'";
      msg += tok;
      msg +=
          "' — iteration order is unspecified and must not feed "
          "serialized output; use std::map/std::set or annotate "
          "allow(unordered-iter)";
      hits.push_back(std::move(msg));
    }
  });
}

/// Flags printf-family float conversions lacking an explicit precision.
void check_float_format(const LineInfo& line, std::vector<std::string>& hits) {
  bool has_printf = false;
  for_each_identifier(line.code, [&](std::string_view tok, std::size_t) {
    has_printf = has_printf || contains(kPrintfTokens, tok);
  });
  if (!has_printf) return;
  const std::string& s = line.strings;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') continue;
    std::size_t j = i + 1;
    if (j < s.size() && s[j] == '%') {
      i = j;
      continue;
    }
    bool has_precision = false;
    while (j < s.size() &&
           (is_digit(s[j]) || s[j] == '-' || s[j] == '+' || s[j] == ' ' ||
            s[j] == '#' || s[j] == '0' || s[j] == '*' || s[j] == '.' ||
            s[j] == 'h' || s[j] == 'l' || s[j] == 'j' || s[j] == 'z' ||
            s[j] == 't' || s[j] == 'L')) {
      has_precision = has_precision || s[j] == '.';
      ++j;
    }
    if (j < s.size() && !has_precision &&
        (s[j] == 'f' || s[j] == 'F' || s[j] == 'e' || s[j] == 'E' ||
         s[j] == 'g' || s[j] == 'G' || s[j] == 'a' || s[j] == 'A'))
      hits.push_back(
          "float conversion '%" + s.substr(i + 1, j - i) +
          "' without explicit precision — output depends on library "
          "defaults; write an explicit '.<N>' or use util::format_double");
    i = j;
  }
}

void check_exit_code(std::string_view code, std::vector<std::string>& hits) {
  for_each_identifier(code, [&](std::string_view tok, std::size_t pos) {
    const std::size_t end = pos + tok.size();
    if (tok == "return") {
      std::size_t p = skip_spaces(code, end);
      std::size_t digits = p;
      while (digits < code.size() && is_digit(code[digits])) ++digits;
      if (digits == p || digits - p > 3) return;  // exit codes are 0..255
      const std::size_t after = skip_spaces(code, digits);
      if (after >= code.size() || code[after] != ';') return;
      const int value = std::stoi(std::string(code.substr(p, digits - p)));
      if (value >= 2)
        hits.push_back("raw exit-code literal " + std::to_string(value) +
                       " — name it in core::ExitCode "
                       "(src/core/exit_codes.hpp)");
    } else if (tok == "exit" || tok == "_exit" || tok == "quick_exit") {
      std::size_t p = skip_spaces(code, end);
      if (p >= code.size() || code[p] != '(') return;
      p = skip_spaces(code, p + 1);
      std::size_t digits = p;
      while (digits < code.size() && is_digit(code[digits])) ++digits;
      if (digits == p) return;
      const std::size_t after = skip_spaces(code, digits);
      if (after >= code.size() || code[after] != ')') return;
      hits.push_back("raw exit-code literal in " + std::string(tok) +
                     "() — name it in core::ExitCode "
                     "(src/core/exit_codes.hpp)");
    }
  });
}

void check_journal_key(std::string_view code, std::vector<std::string>& hits) {
  for_each_identifier(code, [&](std::string_view tok, std::size_t pos) {
    if (pos == 0 || code[pos - 1] != '.') return;
    if (!contains(kJournalAccessors, tok)) return;
    std::size_t p = skip_spaces(code, pos + tok.size());
    if (p >= code.size() || code[p] != '(') return;
    p = skip_spaces(code, p + 1);
    if (p < code.size() && code[p] == '"')
      hits.push_back("raw string key in ." + std::string(tok) +
                     "(\"...\") — declare the key in "
                     "src/core/checkpoint_keys.hpp so reads and writes "
                     "cannot drift");
  });
}

void check_raw_write(std::string_view code, std::vector<std::string>& hits) {
  for_each_identifier(code, [&](std::string_view tok, std::size_t pos) {
    if (tok == "ofstream") {
      hits.push_back(
          "'ofstream' — raw file write bypasses the sanctioned durable "
          "writers; use util::Journal::save_atomic / util::CsvWriter / "
          "util::RecordLog, or annotate allow(raw-write)");
    } else if (contains(kRawWriteCallTokens, tok) &&
               followed_by_call(code, pos + tok.size())) {
      hits.push_back("call to '" + std::string(tok) +
                     "' — raw file write bypasses the sanctioned durable "
                     "writers; use util::Journal::save_atomic / "
                     "util::CsvWriter / util::RecordLog, or annotate "
                     "allow(raw-write)");
    }
  });
}

/// True when this line's code opens a `catch (...)`.
bool has_catch_all(std::string_view code) {
  for (std::size_t pos = code.find("catch"); pos != std::string_view::npos;
       pos = code.find("catch", pos + 1)) {
    if (pos > 0 && is_word(code[pos - 1])) continue;
    if (pos + 5 < code.size() && is_word(code[pos + 5])) continue;
    std::size_t p = skip_spaces(code, pos + 5);
    if (p >= code.size() || code[p] != '(') continue;
    p = skip_spaces(code, p + 1);
    if (code.compare(p, 3, "...") == 0) return true;
  }
  return false;
}

bool catch_block_handles(const std::vector<LineInfo>& lines,
                         std::size_t start) {
  // Look a few lines into the handler for a rethrow or a FailureReason
  // tag; billcap-audit is a lexer, not a parser, so the window is bounded.
  constexpr std::size_t kWindow = 8;
  for (std::size_t n = start; n < lines.size() && n < start + kWindow; ++n) {
    bool handled = false;
    for_each_identifier(lines[n].code, [&](std::string_view tok, std::size_t) {
      handled = handled || tok == "throw" || tok == "FailureReason";
    });
    if (handled) return true;
  }
  return false;
}

void check_todo(std::string_view comment, std::vector<std::string>& hits) {
  const bool todo = comment.find("TODO") != std::string_view::npos ||
                    comment.find("FIXME") != std::string_view::npos;
  if (!todo) return;
  for (std::size_t i = 0; i + 1 < comment.size(); ++i)
    if (comment[i] == '#' && is_digit(comment[i + 1])) return;
  hits.push_back(
      "TODO/FIXME without an issue reference — add '(#<issue>)' or do it "
      "now");
}

// ---- token-stream loop extraction (BL022 / BL023 / BL025) ------------------
//
// The loop rules used to re-lex each `while`/`for` header and body with
// ad-hoc per-line cursors; they now share one extractor over the token
// stream. A loop is its keyword token, its condition token range (inside
// the matched parens) and its body token range (a matched brace block, or
// up to the terminating ';' for a single-statement body). Windows are
// still hard-capped by *line distance* so a brace imbalance in unparsable
// code cannot make the scan quadratic — the same bias as before: the
// cheap direction is trusting the loop.

constexpr std::size_t kHeaderWindowLines = 6;
constexpr std::size_t kBodyWindowLines = 96;

struct Loop {
  std::size_t keyword = 0;     ///< token index of `while` / `for`
  std::size_t cond_begin = 0;  ///< first token inside the parens
  std::size_t cond_end = 0;    ///< one past the last condition token
  std::size_t body_begin = 0;  ///< first body token
  std::size_t body_end = 0;    ///< one past the last body token (capped)
};

/// Extracts the loop starting at token `kw`; false when the header never
/// closes within the window.
bool extract_loop(const std::vector<Token>& toks, std::size_t kw, Loop& out) {
  const std::size_t open = find_punct(toks, kw + 1, "(");
  if (open >= toks.size() ||
      toks[open].line > toks[kw].line + kHeaderWindowLines)
    return false;
  const std::size_t close = match_forward(toks, open);
  if (close >= toks.size() ||
      toks[close].line > toks[kw].line + kHeaderWindowLines)
    return false;
  out.keyword = kw;
  out.cond_begin = open + 1;
  out.cond_end = close;
  out.body_begin = close + 1;
  if (out.body_begin >= toks.size()) return false;

  const std::size_t limit_line = toks[close].line + kBodyWindowLines;
  if (toks[out.body_begin].kind == TokKind::kPunct &&
      toks[out.body_begin].text == "{") {
    std::size_t end = match_forward(toks, out.body_begin);
    if (end >= toks.size()) end = toks.size() - 1;
    out.body_end = end + 1;
  } else {
    std::size_t end = find_punct(toks, out.body_begin, ";");
    if (end >= toks.size()) end = toks.size() - 1;
    out.body_end = end + 1;
  }
  // Hard cap by line distance.
  while (out.body_end > out.body_begin &&
         toks[out.body_end - 1].line > limit_line)
    --out.body_end;
  return true;
}

/// True when the token range contains a comparison operator: '<', '>' or
/// a '!='/'==' pair (the lexer emits single-char puncts, so the pair is
/// two adjacent tokens).
bool range_has_comparison(const std::vector<Token>& toks, std::size_t begin,
                          std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == "<" || toks[i].text == ">") return true;
    if (toks[i].text == "=" && i > begin && toks[i - 1].kind == TokKind::kPunct &&
        (toks[i - 1].text == "!" || toks[i - 1].text == "="))
      return true;
  }
  return false;
}

/// True when `toks[i]` is an identifier preceded by '.' or '->' (the lexer
/// emits '-' '>' separately, so '>' suffices) and followed by '('.
bool is_member_call(const std::vector<Token>& toks, std::size_t i) {
  if (toks[i].kind != TokKind::kIdentifier) return false;
  if (i == 0 || toks[i - 1].kind != TokKind::kPunct ||
      (toks[i - 1].text != "." && toks[i - 1].text != ">"))
    return false;
  return i + 1 < toks.size() && toks[i + 1].kind == TokKind::kPunct &&
         toks[i + 1].text == "(";
}

bool is_call(const std::vector<Token>& toks, std::size_t i) {
  return toks[i].kind == TokKind::kIdentifier && i + 1 < toks.size() &&
         toks[i + 1].kind == TokKind::kPunct && toks[i + 1].text == "(";
}

// ---- BL022 unbounded queue -------------------------------------------------
//
// Only `while` loops are examined (the overload-risk shape — `for` loops
// carry their bound in the header), a loop whose condition shows any
// bounding evidence is trusted, and one capacity check anywhere in the
// body sanctions every growth call in it.

constexpr std::string_view kGrowthCalls[] = {
    "push_back", "emplace_back", "push", "emplace", "push_front",
    "emplace_front", "append",
};

/// Tokens whose presence in a loop body shows the growth is accounted
/// for: a capacity/size check, a matching consumer, or a loop escape.
constexpr std::string_view kCapacityEvidence[] = {
    "size",  "capacity", "full",  "empty", "reserve", "resize",
    "pop",   "pop_back", "pop_front", "drop", "drain", "take",
    "erase", "clear",    "break",
};

/// A while condition is bounded when it compares against a limit, tests a
/// container's state, or extracts from a stream (EOF-bounded). '<' and '>'
/// also cover stream extraction and shifts — over-trusting the condition
/// is the cheap direction; the rule exists to catch `while (true)` and
/// bare-flag spins that buffer without a cap.
bool while_condition_bounded(const std::vector<Token>& toks,
                             const Loop& loop) {
  if (range_has_comparison(toks, loop.cond_begin, loop.cond_end)) return true;
  for (std::size_t i = loop.cond_begin; i < loop.cond_end; ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    const std::string& t = toks[i].text;
    if (t == "size" || t == "empty" || t == "capacity" || t == "full" ||
        t == "getline")
      return true;
  }
  return false;
}

struct LoopGrowth {
  std::size_t line = 0;  ///< 0-based line of the growth call
  std::string call;
};

/// BL022 pass over the whole translation unit.
std::vector<LoopGrowth> check_unbounded_queues(const SourceFile& sf) {
  const std::vector<Token>& toks = sf.tokens;
  std::vector<LoopGrowth> growths;
  for (std::size_t n = 0; n < toks.size(); ++n) {
    if (toks[n].kind != TokKind::kIdentifier || toks[n].text != "while")
      continue;
    Loop loop;
    if (!extract_loop(toks, n, loop)) continue;
    if (while_condition_bounded(toks, loop)) continue;
    bool evidence = false;
    std::vector<LoopGrowth> local;
    for (std::size_t i = loop.body_begin; i < loop.body_end; ++i) {
      if (toks[i].kind != TokKind::kIdentifier) continue;
      if (contains(kCapacityEvidence, toks[i].text)) evidence = true;
      if (contains(kGrowthCalls, toks[i].text) && is_member_call(toks, i))
        local.push_back({toks[i].line, toks[i].text});
    }
    if (!evidence)
      growths.insert(growths.end(), local.begin(), local.end());
  }
  return growths;
}

// ---- BL025 fixed-point -----------------------------------------------------
//
// The closed-loop coupler's lesson institutionalized: a convergence-driven
// while loop (`while (!converged)`, `while (oscillating)`) can spin forever
// on a period-2 cycle — reaching the fixed point is a hope, not a bound.
// A loop fires only when its condition carries convergence vocabulary AND
// neither the condition nor the (windowed) body shows bounding evidence:
// an epsilon/cap comparison in the condition, an iteration-counter
// identifier, or a loop escape (break/return/throw/goto) in the body.

constexpr std::string_view kConvergenceMarkers[] = {
    "converg", "residual", "oscillat", "fixed_point", "fixpoint", "settle",
};

constexpr std::string_view kIterationMarkers[] = {
    "iter", "round", "attempt", "budget",
};

std::string lowered(std::string_view s) {
  std::string out(s);
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool has_any_marker(std::string_view token,
                    std::span<const std::string_view> markers) {
  const std::string low = lowered(token);
  for (const std::string_view m : markers)
    if (low.find(m) != std::string::npos) return true;
  return false;
}

/// BL025 pass over the whole translation unit; returns 0-based lines of
/// unbounded convergence loops.
std::vector<std::size_t> check_fixed_point(const SourceFile& sf) {
  const std::vector<Token>& toks = sf.tokens;
  std::vector<std::size_t> out;
  for (std::size_t n = 0; n < toks.size(); ++n) {
    if (toks[n].kind != TokKind::kIdentifier || toks[n].text != "while")
      continue;
    Loop loop;
    if (!extract_loop(toks, n, loop)) continue;
    bool convergence = false;
    bool counter_in_cond = false;
    for (std::size_t i = loop.cond_begin; i < loop.cond_end; ++i) {
      if (toks[i].kind != TokKind::kIdentifier) continue;
      convergence =
          convergence || has_any_marker(toks[i].text, kConvergenceMarkers);
      counter_in_cond =
          counter_in_cond || has_any_marker(toks[i].text, kIterationMarkers);
    }
    if (!convergence) continue;
    // An epsilon exit or a cap comparison right in the condition, or an
    // iteration counter driving it alongside the convergence flag.
    if (range_has_comparison(toks, loop.cond_begin, loop.cond_end) ||
        counter_in_cond)
      continue;
    bool bounded = false;
    for (std::size_t i = loop.body_begin; i < loop.body_end && !bounded; ++i) {
      if (toks[i].kind != TokKind::kIdentifier) continue;
      const std::string& t = toks[i].text;
      bounded = t == "break" || t == "return" || t == "throw" ||
                t == "goto" || has_any_marker(t, kIterationMarkers);
    }
    if (!bounded) out.push_back(toks[n].line);
  }
  return out;
}

// ---- BL023 solve allocation ------------------------------------------------
//
// The arena solver's contract is an allocation-free steady state: every
// tableau row, basis array and branch-and-bound node lives in storage
// sized before iteration starts. In a translation unit that opens the
// billcap lp namespace, any loop body (`while` or `for` — the simplex
// pivots and the node stack drive both) that calls a raw allocator is
// flagged, and container growth is flagged unless a reserve() sizing
// pass appears on an earlier line of the file. The reserve does not have
// to size the exact container that grows — it is evidence the file has a
// sizing pass, and the differential/property suites are what prove the
// arena correct.

constexpr std::string_view kAllocCalls[] = {
    "make_unique", "make_shared", "malloc", "calloc", "realloc",
};

struct SolveAlloc {
  std::size_t line = 0;  ///< 0-based line of the offending call
  std::string call;
  bool growth = false;   ///< growth call (reserve-sanctionable) vs allocator
};

bool operator<(const SolveAlloc& a, const SolveAlloc& b) {
  return a.line != b.line ? a.line < b.line : a.call < b.call;
}

bool operator==(const SolveAlloc& a, const SolveAlloc& b) {
  return a.line == b.line && a.call == b.call;
}

/// BL023 pass over the whole translation unit. Nested loops scan inner
/// bodies once per enclosing loop, so findings are deduped by position.
std::vector<SolveAlloc> check_solve_alloc(const SourceFile& sf) {
  const std::vector<Token>& toks = sf.tokens;
  std::vector<SolveAlloc> found;
  for (std::size_t n = 0; n < toks.size(); ++n) {
    if (toks[n].kind != TokKind::kIdentifier ||
        (toks[n].text != "while" && toks[n].text != "for"))
      continue;
    Loop loop;
    if (!extract_loop(toks, n, loop)) continue;
    for (std::size_t i = loop.body_begin; i < loop.body_end; ++i) {
      if (toks[i].kind != TokKind::kIdentifier) continue;
      if (toks[i].text == "new") {
        found.push_back({toks[i].line, "new", false});
      } else if (contains(kAllocCalls, toks[i].text) && is_call(toks, i)) {
        found.push_back({toks[i].line, toks[i].text, false});
      } else if (contains(kGrowthCalls, toks[i].text) &&
                 is_member_call(toks, i)) {
        found.push_back({toks[i].line, toks[i].text, true});
      }
    }
  }
  std::sort(found.begin(), found.end());
  found.erase(std::unique(found.begin(), found.end()), found.end());
  return found;
}

// ---- BL024 parallel reduce -------------------------------------------------
//
// Only translation units that visibly touch the worker-pool machinery are
// examined (content-based, like the journal-key gate). Two shapes are
// flagged: a floating-point std::atomic accumulator (including fetch_add,
// whose float overloads reduce in scheduling order), and a `+=` within a
// few lines of a lock construction — the accumulate-under-mutex idiom,
// where the *values* are protected but the fold order still follows thread
// scheduling. The sanctioned shape writes each task's result to its own
// indexed slot and folds serially in index order (see core/fleet.cpp).

struct ParallelReduce {
  std::size_t line = 0;
  std::string what;
};

std::vector<ParallelReduce> check_parallel_reduce(
    const std::vector<LineInfo>& lines) {
  std::vector<ParallelReduce> out;
  // A lock taken a couple of lines above an accumulation still guards it;
  // beyond that the scope has usually ended (billcap-audit is a lexer).
  constexpr std::size_t kLockWindow = 3;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string_view code = lines[n].code;
    bool atomic_float = false;
    bool lock_line = false;
    for_each_identifier(code, [&](std::string_view tok, std::size_t pos) {
      if (tok == "atomic") {
        std::size_t p = skip_spaces(code, pos + tok.size());
        if (p < code.size() && code[p] == '<') {
          p = skip_spaces(code, p + 1);
          const std::string_view rest = code.substr(p);
          atomic_float = atomic_float || rest.starts_with("double") ||
                         rest.starts_with("float");
        }
      }
      if (tok == "fetch_add") out.push_back({n, "fetch_add"});
      lock_line = lock_line || tok == "lock_guard" || tok == "scoped_lock" ||
                  tok == "unique_lock";
    });
    if (atomic_float) out.push_back({n, "atomic floating accumulator"});
    if (lock_line) {
      for (std::size_t m = n + 1;
           m < lines.size() && m <= n + kLockWindow; ++m) {
        if (lines[m].code.find("+=") != std::string_view::npos) {
          out.push_back({m, "accumulation under a lock"});
          break;
        }
      }
    }
  }
  return out;
}

/// True unless `path` is a src/ file other than src/core/supervisor.cpp
/// (the last "src" component decides, as for the layering rule).
bool wall_clock_sanctioned(std::string_view path) {
  const std::string layer = layer_of_path(path);
  if (layer.empty()) return true;
  const std::size_t slash = path.find_last_of("/\\");
  const std::string_view base =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  return layer == "core" && base == "supervisor.cpp";
}

}  // namespace

// ---- public API ------------------------------------------------------------

const std::array<RuleInfo, kRuleCount>& rule_table() { return kRules; }

const RuleInfo& info(Rule rule) {
  for (const RuleInfo& r : kRules)
    if (r.rule == rule) return r;
  return kRules[0];  // unreachable: every enumerator is in the table
}

const RuleInfo* find_rule(std::string_view name) {
  for (const RuleInfo& r : kRules)
    if (name == r.name) return &r;
  return nullptr;
}

std::string format_finding(const Finding& finding) {
  const RuleInfo& r = info(finding.rule);
  return finding.file + ":" + std::to_string(finding.line) + ": [" + r.id +
         " " + r.name + "] " + finding.message;
}

Suppressions collect_suppressions(std::string_view path,
                                  const SourceFile& source) {
  const std::vector<LineInfo>& lines = source.lines;
  Suppressions out;
  out.allowed.resize(lines.size() + 1);
  constexpr std::string_view kMarker = "billcap-lint:";
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& comment = lines[n].comment;
    std::size_t at = comment.find(kMarker);
    if (at == std::string_view::npos) continue;
    std::size_t pos = comment.find("allow(", at);
    if (pos == std::string_view::npos) {
      out.annotation_findings.push_back(
          {std::string(path), n + 1, Rule::kBareAllow,
           "billcap-lint annotation without an allow(<rule>) clause", {}});
      continue;
    }
    pos += std::string_view("allow(").size();
    const std::size_t close = comment.find(')', pos);
    if (close == std::string_view::npos) continue;
    const std::string name = comment.substr(pos, close - pos);
    const RuleInfo* rule = find_rule(name);
    if (rule == nullptr) {
      out.annotation_findings.push_back(
          {std::string(path), n + 1, Rule::kBareAllow,
           "allow(" + name + ") names no billcap-lint rule", {}});
      continue;
    }
    // Under src/ the wall clock has one sanctioned reader, the supervisor's
    // restart clock: every solve is bounded by a node budget, so no other
    // src/ file may opt out of BL001.
    if (rule->rule == Rule::kWallClock && !wall_clock_sanctioned(path)) {
      out.annotation_findings.push_back(
          {std::string(path), n + 1, Rule::kWallClock,
           "allow(wall-clock) under src/ is honoured only in "
           "src/core/supervisor.cpp — bound the work by a deterministic "
           "count (a node budget, the simulated hour) instead", {}});
      continue;
    }
    // The annotation sanctions this line and the one directly below it, so
    // a whole-line comment can precede the hazard.
    out.allowed[n].insert(rule->rule);
    if (n + 1 < out.allowed.size()) out.allowed[n + 1].insert(rule->rule);
    // Rationale: a ':' after the close paren with real text behind it.
    const std::size_t colon = skip_spaces(comment, close + 1);
    const bool has_rationale =
        colon < comment.size() && comment[colon] == ':' &&
        skip_spaces(comment, colon + 1) < comment.size();
    if (!has_rationale)
      out.annotation_findings.push_back(
          {std::string(path), n + 1, Rule::kBareAllow,
           "allow(" + name + ") without a rationale — write 'allow(" + name +
               "): <why this site is sanctioned>'", {}});
  }
  return out;
}

std::vector<Finding> scan_tokens(std::string_view path,
                                 const SourceFile& source) {
  const std::vector<LineInfo>& lines = source.lines;
  Suppressions suppress = collect_suppressions(path, source);

  // Applicability is content-based so fixtures behave like real sources:
  // the exit-code rule guards exit surfaces, the journal-key rule guards
  // translation units that *include* util/journal.hpp. The gates read the
  // lexed includes and token stream, never raw text, so a comment that
  // mentions a header cannot gate a file into a rule.
  const bool exit_surface =
      source.has_code_sequence({"int", "main", "("}) ||
      source.includes_path("core/supervisor.hpp") ||
      source.includes_path("core/exit_codes.hpp");
  const bool journal_user = source.includes_path("util/journal.hpp");
  const bool lp_solver_tu =
      source.has_code_sequence({"namespace", "billcap", "::", "lp"});
  const bool parallel_tu = source.includes_path("util/thread_pool.hpp") ||
                           source.has_identifier("ThreadPool") ||
                           source.has_identifier("parallel_for");

  std::vector<Finding> findings;
  const auto emit = [&](std::size_t n, Rule rule,
                        std::vector<std::string>& hits) {
    if (!suppress.allows(n, rule))
      for (std::string& hit : hits)
        findings.push_back(
            {std::string(path), n + 1, rule, std::move(hit), {}});
    hits.clear();
  };

  std::vector<std::string> hits;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const LineInfo& line = lines[n];
    check_wall_clock(line.code, hits);
    emit(n, Rule::kWallClock, hits);
    check_unordered(line.code, hits);
    emit(n, Rule::kUnorderedIter, hits);
    check_float_format(line, hits);
    emit(n, Rule::kFloatFormat, hits);
    if (exit_surface) {
      check_exit_code(line.code, hits);
      emit(n, Rule::kExitCode, hits);
    }
    if (journal_user) {
      check_journal_key(line.code, hits);
      emit(n, Rule::kJournalKey, hits);
    }
    check_raw_write(line.code, hits);
    emit(n, Rule::kRawWrite, hits);
    if (has_catch_all(line.code) && !catch_block_handles(lines, n)) {
      hits.push_back(
          "catch (...) swallows without tagging a FailureReason or "
          "rethrowing; tag the degradation or annotate allow(catch-all)");
      emit(n, Rule::kCatchAll, hits);
    }
    check_todo(line.comment, hits);
    emit(n, Rule::kTodoIssue, hits);
  }

  for (const LoopGrowth& g : check_unbounded_queues(source)) {
    if (!suppress.allows(g.line, Rule::kUnboundedQueue))
      findings.push_back(
          {std::string(path), g.line + 1, Rule::kUnboundedQueue,
           "'" + g.call +
               "' grows a container inside a while loop with no visible "
               "bound — cap it, drain it, or check capacity before pushing "
               "(the ingest plane's BoundedQueue shape), or annotate "
               "allow(unbounded-queue)", {}});
  }

  for (const std::size_t n : check_fixed_point(source)) {
    if (!suppress.allows(n, Rule::kFixedPoint))
      findings.push_back(
          {std::string(path), n + 1, Rule::kFixedPoint,
           "convergence-driven while loop with no visible iteration cap or "
           "epsilon exit — the loop can cycle forever on a period-2 orbit; "
           "cap the iterations (the market coupler's max_iters shape), "
           "compare against a tolerance in the condition, or annotate "
           "allow(fixed-point)", {}});
  }

  if (lp_solver_tu) {
    // Growth is sanctioned by a reserve() sizing pass on an earlier line;
    // raw allocators in a loop body are flagged unconditionally.
    std::size_t first_reserve = lines.size();
    for (std::size_t i = 0; i < source.tokens.size(); ++i) {
      if (source.tokens[i].text == "reserve" && is_call(source.tokens, i)) {
        first_reserve = source.tokens[i].line;
        break;
      }
    }
    for (const SolveAlloc& a : check_solve_alloc(source)) {
      if (a.growth && first_reserve <= a.line) continue;
      if (suppress.allows(a.line, Rule::kSolveAlloc)) continue;
      findings.push_back(
          {std::string(path), a.line + 1, Rule::kSolveAlloc,
           a.growth
               ? "'" + a.call +
                     "' grows a container inside a solver loop with no "
                     "reserve() sizing pass earlier in the file — size the "
                     "arena before iterating or annotate allow(solve-alloc)"
               : "'" + a.call +
                     "' allocates inside a solver loop — the solver's steady "
                     "state must not touch the heap; move the allocation to "
                     "setup or annotate allow(solve-alloc)", {}});
    }
  }

  if (parallel_tu) {
    for (const ParallelReduce& p : check_parallel_reduce(lines)) {
      if (suppress.allows(p.line, Rule::kParallelReduce)) continue;
      findings.push_back(
          {std::string(path), p.line + 1, Rule::kParallelReduce,
           p.what +
               " reduces in thread-scheduling order, which breaks bitwise "
               "determinism across thread counts — write each task's result "
               "to its own indexed slot and fold serially in index order, "
               "or annotate allow(parallel-reduce)", {}});
    }
  }

  for (Finding& f : suppress.annotation_findings)
    findings.push_back(std::move(f));
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.line != b.line ? a.line < b.line
                                      : info(a.rule).id < info(b.rule).id;
            });
  return findings;
}

std::vector<Finding> scan_source(std::string_view path,
                                 std::string_view text) {
  return scan_tokens(path, tokenize(text));
}

SourceFile load_source(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("billcap-audit: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return tokenize(buffer.str());
}

std::vector<Finding> scan_file(const std::string& path) {
  return scan_tokens(path, load_source(path));
}

bool is_scannable(std::string_view path) {
  for (std::string_view ext : {".cpp", ".cc", ".hpp", ".h"})
    if (path.size() > ext.size() &&
        path.compare(path.size() - ext.size(), ext.size(), ext) == 0)
      return true;
  return false;
}

std::vector<std::string> collect_sources(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  const fs::path p(root);
  if (fs::is_regular_file(p)) {
    if (is_scannable(root)) files.push_back(root);
    return files;
  }
  if (!fs::is_directory(p))
    throw std::runtime_error("billcap-audit: no such file or directory: " +
                             root);
  for (const auto& entry : fs::recursive_directory_iterator(p))
    if (entry.is_regular_file() && is_scannable(entry.path().string()))
      files.push_back(entry.path().string());
  std::sort(files.begin(), files.end());
  return files;
}

std::map<std::string, std::size_t> summarize(
    const std::vector<Finding>& all) {
  std::map<std::string, std::size_t> counts;
  for (const RuleInfo& r : kRules) counts[r.id] = 0;
  for (const Finding& f : all) ++counts[info(f.rule).id];
  return counts;
}

}  // namespace billcap::lint
