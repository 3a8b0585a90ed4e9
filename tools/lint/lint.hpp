#pragma once

// billcap-audit — a fast, dependency-free static-analysis pass for the
// bill-capping controller. It does not parse C++; it lexes each source
// file into a token stream and per-line channels (tokens.hpp) just far
// enough to separate code, string-literal contents and comments, then runs
// a fixed catalogue of determinism / protocol / robustness rules over the
// result. The point is not generality — it is that the invariant behind
// every bitwise-resume test (a resumed month is byte-identical to an
// uninterrupted one) is enforced by a machine, not a review habit.
//
// This header is pass 1: the per-file rules (BL001–BL030). Pass 2 — the
// repo model (include graph, key/exit-code registries) and the cross-file
// rules BL040–BL044 — lives in model.hpp / audit.hpp.
//
// Suppression syntax, checked in-source — for example:
//
//   // billcap-lint: allow(wall-clock): bench harness measures real latency
//
// on the offending line, or on its own line immediately above. An allow
// without a rationale (or naming an unknown rule) is itself a finding
// (BL030), so every sanctioned hazard carries its justification. Under
// src/, allow(wall-clock) is honoured in src/core/supervisor.cpp alone (the
// restart clock); anywhere else there it is a BL001 finding.

#include <array>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "tokens.hpp"

namespace billcap::lint {

/// Rule catalogue. IDs are stable; tests and suppressions key on names.
enum class Rule {
  kWallClock,       ///< BL001: wall-clock / ambient PRNG in controller code
  kUnorderedIter,   ///< BL002: unordered container (iteration order leaks)
  kFloatFormat,     ///< BL003: %f/%e/%g without an explicit precision
  kExitCode,        ///< BL010: raw exit-code integer literal
  kJournalKey,      ///< BL011: raw string key at a Journal call site
  kRawWrite,        ///< BL012: ofstream/fopen bypassing the atomic journal
  kCatchAll,        ///< BL020: catch (...) that swallows silently
  kTodoIssue,       ///< BL021: to-do marker without an issue reference
  kUnboundedQueue,  ///< BL022: container growth in a loop with no bound
  kSolveAlloc,      ///< BL023: heap allocation in the lp solver's loops
  kParallelReduce,  ///< BL024: unordered parallel reduction (mutex/atomic acc)
  kFixedPoint,      ///< BL025: convergence while-loop with no visible bound
  kBareAllow,       ///< BL030: allow annotation without a rationale
  kLayering,        ///< BL040: include edge that violates the layer DAG
  kJournalRegistry, ///< BL041: journal key not in checkpoint_keys.hpp
  kExitRegistry,    ///< BL042: exit literal outside the exit-code registry
  kUnseededRng,     ///< BL043: ambient-seeded RNG outside test code
  kFlagRegistry,    ///< BL044: flag read without a table row, or dead row
};

constexpr std::size_t kRuleCount = 18;

struct RuleInfo {
  Rule rule;
  const char* id;         ///< "BL001"
  const char* name;       ///< "wall-clock" (suppression key)
  const char* rationale;  ///< one line: why the pattern is banned
};

/// All rules, in report order.
const std::array<RuleInfo, kRuleCount>& rule_table();

/// Info for a rule; never fails (the enum is the index).
const RuleInfo& info(Rule rule);

/// Rule for a suppression name, or nullptr when unknown.
const RuleInfo* find_rule(std::string_view name);

struct Finding {
  std::string file;
  std::size_t line = 0;  ///< 1-based
  Rule rule = Rule::kWallClock;
  std::string message;
  std::string edge;  ///< BL040 only: the offending layer edge, "core -> serve"
};

/// "file:line: [BL001 wall-clock] message" — clickable in editors/CI logs.
std::string format_finding(const Finding& finding);

/// In-source suppressions for one file, collected from its comments.
struct Suppressions {
  /// line (0-based) -> rules allowed on that line.
  std::vector<std::set<Rule>> allowed;
  /// BL030 misuses, and BL001 for allow(wall-clock) where it is refused.
  std::vector<Finding> annotation_findings;

  bool allows(std::size_t line0, Rule rule) const {
    return line0 < allowed.size() && allowed[line0].count(rule) != 0;
  }
};

/// Scans the comment channel of a lexed file for allow() annotations.
/// An annotation sanctions its own line and the line directly below it.
Suppressions collect_suppressions(std::string_view path,
                                  const SourceFile& source);

/// Runs the per-file rules over an already-lexed translation unit. `path`
/// is used for reporting and for the one src/ wall-clock sanction — every
/// other applicability decision is content-based (includes, token
/// sequences), so fixture files behave exactly like real sources.
std::vector<Finding> scan_tokens(std::string_view path,
                                 const SourceFile& source);

/// Lexes and scans one translation unit's text.
std::vector<Finding> scan_source(std::string_view path, std::string_view text);

/// Loads and scans a file. Throws std::runtime_error when unreadable.
std::vector<Finding> scan_file(const std::string& path);

/// Loads and lexes a file without scanning (the audit pass lexes once and
/// shares the result). Throws std::runtime_error when unreadable.
SourceFile load_source(const std::string& path);

/// True for the extensions billcap-audit understands (.cpp .cc .hpp .h).
bool is_scannable(std::string_view path);

/// Recursively collects scannable files under `root` (or `root` itself when
/// it is a file), sorted so output and summaries are deterministic.
std::vector<std::string> collect_sources(const std::string& root);

/// Per-rule finding counts keyed by rule ID, including zero rows for rules
/// that did not fire (the CI summary table prints every rule).
std::map<std::string, std::size_t> summarize(const std::vector<Finding>& all);

}  // namespace billcap::lint
