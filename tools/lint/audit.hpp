#pragma once

// billcap-audit pass 2, part 2: the cross-file rules. Pass 1 polices one
// translation unit; these rules police the *project* — the layering DAG,
// the journal-key registry, the exit-code registry, ambient RNG seeding
// and the command-line flag tables — because the invariants they protect
// only fail across files (a key written in serve/ but never declared in
// core/, an include that quietly inverts a layer edge).
//
//   BL040 layering            include edge violating the DESIGN layer DAG,
//                             plus include-cycle detection
//   BL041 journal-key-registry  journal keys not declared in
//                             checkpoint_keys.hpp; duplicate / dead keys;
//                             inconsistently guarded reads
//   BL042 exit-code-registry  integer-literal exits outside exit_codes.hpp
//   BL043 unseeded-rng        ambient-seeded RNG outside *_test.* files
//   BL044 flag-registry       flag names read through util::CliArgs with no
//                             util::Flag table row; rows read nowhere
//
// audit_model() also runs every pass-1 rule over each file and dedupes the
// overlap (BL042 over BL010, BL043 over BL001 at the same site), so one
// invocation is the whole gate.

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "lint.hpp"
#include "model.hpp"

namespace billcap::lint {

struct AuditResult {
  std::vector<Finding> findings;  ///< deduped, sorted by (file, line, id)
  std::size_t files_scanned = 0;
};

/// Runs pass 1 + pass 2 over an already-built model.
AuditResult audit_model(const RepoModel& model);

/// Collects sources under the roots, builds the model, audits it.
AuditResult audit_paths(const std::vector<std::string>& roots);

/// Machine-readable report: {"version", "files_scanned", "summary",
/// "findings": [{"rule","name","file","line","edge","message",
/// "grandfathered"}]}. `grandfathered` marks findings present in
/// `baseline` (empty baseline: every finding is new).
std::string to_json(const AuditResult& result,
                    const std::set<std::string>& baseline);

/// The ratchet identity of a finding: "<id> <file>:<line>". Line-stable
/// enough for a short-lived grandfather list; the ratchet direction is
/// that any drift re-surfaces as a new finding.
std::string baseline_key(const Finding& finding);

/// One baseline_key per line, sorted. '#' lines and blanks are ignored on
/// load.
std::string serialize_baseline(const AuditResult& result);
std::set<std::string> parse_baseline(std::string_view text);

}  // namespace billcap::lint
