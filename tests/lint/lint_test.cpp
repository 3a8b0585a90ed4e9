// Golden-fixture tests for billcap-audit (tools/lint). Each flat fixture
// under tests/lint/fixtures/ is a minimal known-bad snippet that must
// trigger exactly its intended per-file rule; each fixture *tree*
// (<case>/src/<layer>/...) is a miniature project that must trigger
// exactly its intended cross-file rule; the annotated and idiomatic
// fixtures must scan clean; and the real repo must audit clean so the
// static-analysis stage of tools/ci.sh stays green by construction.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "audit.hpp"
#include "tokens.hpp"

namespace billcap::lint {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(BILLCAP_LINT_FIXTURE_DIR) + "/" + name;
}

/// All findings in `findings` are of `rule`, and there is at least one.
void expect_only(const std::vector<Finding>& findings, Rule rule,
                 const std::string& which) {
  EXPECT_FALSE(findings.empty())
      << which << ": fixture triggered no findings";
  for (const Finding& f : findings)
    EXPECT_EQ(info(f.rule).id, info(rule).id)
        << which << ": unexpected " << format_finding(f);
}

struct FixtureCase {
  const char* file;
  Rule rule;
};

TEST(LintFixtures, EachKnownBadFixtureTriggersExactlyItsRule) {
  const FixtureCase cases[] = {
      {"wall_clock.cpp", Rule::kWallClock},
      {"unordered_iter.cpp", Rule::kUnorderedIter},
      {"float_format.cpp", Rule::kFloatFormat},
      {"exit_code.cpp", Rule::kExitCode},
      {"journal_key.cpp", Rule::kJournalKey},
      {"raw_write.cpp", Rule::kRawWrite},
      {"catch_all.cpp", Rule::kCatchAll},
      {"todo_issue.cpp", Rule::kTodoIssue},
      {"unbounded_queue.cpp", Rule::kUnboundedQueue},
      {"solve_alloc.cpp", Rule::kSolveAlloc},
      {"parallel_reduce.cpp", Rule::kParallelReduce},
      {"fixed_point.cpp", Rule::kFixedPoint},
      {"bare_allow.cpp", Rule::kBareAllow},
  };
  for (const FixtureCase& c : cases)
    expect_only(scan_file(fixture_path(c.file)), c.rule, c.file);
}

TEST(LintFixtures, AnnotatedHazardsScanClean) {
  const std::vector<Finding> findings =
      scan_file(fixture_path("suppressed.cpp"));
  for (const Finding& f : findings) ADD_FAILURE() << format_finding(f);
}

TEST(LintFixtures, IdiomaticCodeScansClean) {
  const std::vector<Finding> findings = scan_file(fixture_path("clean.cpp"));
  for (const Finding& f : findings) ADD_FAILURE() << format_finding(f);
}

TEST(LintFixtures, IndexedSlotReductionScansClean) {
  // BL024's sanctioned shape: per-task indexed slots, serial fold.
  const std::vector<Finding> findings =
      scan_file(fixture_path("parallel_reduce_clean.cpp"));
  for (const Finding& f : findings) ADD_FAILURE() << format_finding(f);
}

TEST(LintFixtures, SolverLoopGrowthIsSanctionedByReserveOrAllow) {
  // BL023's two escape hatches: a reserve() sizing pass earlier in the
  // file sanctions in-loop growth, and an allow(solve-alloc) with a
  // rationale sanctions a deliberate cold-path allocation.
  for (const char* fixture :
       {"solve_alloc_clean.cpp", "solve_alloc_suppressed.cpp"}) {
    for (const Finding& f : scan_file(fixture_path(fixture)))
      ADD_FAILURE() << fixture << ": " << format_finding(f);
  }
}

TEST(LintFixtures, BoundedConvergenceLoopsAreSanctioned) {
  // BL025's escape hatches: a cap or epsilon comparison in the condition,
  // an iteration counter, a body escape, or an allow(fixed-point) with a
  // rationale.
  for (const char* fixture :
       {"fixed_point_clean.cpp", "fixed_point_suppressed.cpp"}) {
    for (const Finding& f : scan_file(fixture_path(fixture)))
      ADD_FAILURE() << fixture << ": " << format_finding(f);
  }
}

TEST(LintFixtures, BareAllowFlagsMissingRationaleAndUnknownRule) {
  const std::vector<Finding> findings =
      scan_file(fixture_path("bare_allow.cpp"));
  // Three distinct misuses: allow() without rationale, allow() naming no
  // rule, and a billcap-lint marker with no allow clause at all.
  EXPECT_EQ(findings.size(), 3u);
}

TEST(LintScanner, SuppressionCoversItsLineAndTheNext) {
  const char* text =
      "#include <chrono>\n"
      "// billcap-lint: allow(wall-clock): sanctioned in this test\n"
      "auto t = std::chrono::steady_clock::now();\n"
      "auto u = std::chrono::steady_clock::now();\n";
  const std::vector<Finding> findings = scan_source("buf.cpp", text);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4u);
  EXPECT_EQ(findings[0].rule, Rule::kWallClock);
}

TEST(LintScanner, WallClockAllowUnderSrcIsHonouredOnlyInTheSupervisor) {
  const char* text =
      "#include <chrono>\n"
      "// billcap-lint: allow(wall-clock): a solver deadline\n"
      "auto t = std::chrono::steady_clock::now();\n";
  // Outside src/ (benches, tools) and in the supervisor's restart clock the
  // annotation sanctions its line.
  for (const char* path :
       {"bench/timer.cpp", "tools/lint/main.cpp", "src/core/supervisor.cpp",
        "/repo/src/core/supervisor.cpp"})
    EXPECT_TRUE(scan_source(path, text).empty()) << path;
  // Anywhere else under src/ the annotation is itself a BL001 finding and
  // sanctions nothing, so the clock read is flagged too.
  for (const char* path :
       {"src/lp/arena_solver.cpp", "src/core/simulator.cpp",
        "src/core/supervisor.hpp", "/repo/src/serve/replan.cpp",
        "fixtures/tree/src/core/fleet.cpp"}) {
    const std::vector<Finding> findings = scan_source(path, text);
    ASSERT_EQ(findings.size(), 2u) << path;
    EXPECT_EQ(findings[0].line, 2u) << path;
    EXPECT_EQ(findings[1].line, 3u) << path;
    for (const Finding& f : findings)
      EXPECT_EQ(f.rule, Rule::kWallClock) << format_finding(f);
  }
}

TEST(LintScanner, StringAndCommentContentsAreInert) {
  const char* text =
      "#include <string>\n"
      "// system_clock in prose is fine; so is rand() in a comment\n"
      "const std::string doc = \"steady_clock::now() and fopen(path)\";\n";
  EXPECT_TRUE(scan_source("buf.cpp", text).empty());
}

TEST(LintScanner, RuleTableIsConsistent) {
  for (const RuleInfo& r : rule_table()) {
    EXPECT_EQ(find_rule(r.name), &r);
    EXPECT_EQ(info(r.rule).id, r.id);
    EXPECT_NE(std::string(r.rationale), "");
  }
  EXPECT_EQ(find_rule("no-such-rule"), nullptr);
}

AuditResult audit_tree(const std::string& name) {
  return audit_paths({fixture_path(name)});
}

TEST(AuditFixtures, EachKnownBadTreeTriggersExactlyItsRule) {
  const FixtureCase cases[] = {
      {"layering_bad", Rule::kLayering},
      {"layering_cycle", Rule::kLayering},
      {"journal_registry_bad", Rule::kJournalRegistry},
      {"exit_registry_bad", Rule::kExitRegistry},
      {"rng_bad", Rule::kUnseededRng},
      {"flag_registry_bad", Rule::kFlagRegistry},
  };
  for (const FixtureCase& c : cases)
    expect_only(audit_tree(c.file).findings, c.rule, c.file);
}

TEST(AuditFixtures, CleanAndSuppressedTreesAuditClean) {
  for (const char* tree :
       {"layering_clean", "layering_suppressed", "journal_registry_clean",
        "journal_registry_suppressed", "exit_registry_clean",
        "exit_registry_suppressed", "rng_clean", "rng_suppressed",
        "rng_test_exempt", "flag_registry_clean",
        "flag_registry_suppressed"}) {
    for (const Finding& f : audit_tree(tree).findings)
      ADD_FAILURE() << tree << ": " << format_finding(f);
  }
}

TEST(AuditFixtures, InvertedServeIncludeNamesTheEdge) {
  // The acceptance shape for BL040: a core file including serve/ fails,
  // and the finding names the offending edge so the reviewer sees the
  // direction without opening the file.
  const AuditResult result = audit_tree("layering_bad");
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, Rule::kLayering);
  EXPECT_EQ(f.edge, "core -> serve");
  EXPECT_NE(f.message.find("core -> serve"), std::string::npos);
  EXPECT_NE(f.file.find("planner.cpp"), std::string::npos);
}

TEST(AuditFixtures, LayerCycleIsReportedAsACycle) {
  const AuditResult result = audit_tree("layering_cycle");
  bool cycle_reported = false;
  for (const Finding& f : result.findings)
    cycle_reported = cycle_reported ||
                     f.message.find("include cycle") != std::string::npos;
  EXPECT_TRUE(cycle_reported);
}

TEST(AuditFixtures, MissingKeyDeadKeyAndGuardDriftAllSurface) {
  // The acceptance shape for BL041: a key used but absent from the
  // registry (what deleting a registered key leaves behind), a key
  // registered but never used, and a has()-guard applied in one reader
  // but not another.
  const AuditResult result = audit_tree("journal_registry_bad");
  ASSERT_EQ(result.findings.size(), 3u);
  bool missing = false, dead = false, drift = false;
  for (const Finding& f : result.findings) {
    missing = missing || f.message.find("\"beta\" is not declared") !=
                             std::string::npos;
    dead = dead ||
           f.message.find("kGamma") != std::string::npos;
    drift = drift ||
            f.message.find("has()-guarded elsewhere") != std::string::npos;
  }
  EXPECT_TRUE(missing);
  EXPECT_TRUE(dead);
  EXPECT_TRUE(drift);
}

TEST(AuditFixtures, ExitLiteralFindingsNameTheRegistry) {
  const AuditResult result = audit_tree("exit_registry_bad");
  ASSERT_EQ(result.findings.size(), 2u);
  bool named = false, unregistered = false;
  for (const Finding& f : result.findings) {
    named = named || f.message.find("core::ExitCode::kExitConfigError") !=
                         std::string::npos;
    unregistered =
        unregistered ||
        f.message.find("7 is not a registered") != std::string::npos;
  }
  EXPECT_TRUE(named);
  EXPECT_TRUE(unregistered);
}

TEST(AuditFixtures, UndeclaredReadAndDeadRowBothSurface) {
  // The acceptance shape for BL044: a flag read with no table row (a typo
  // in the reader) and a row no code reads (a dead flag like the deleted
  // --warm-solver).
  const AuditResult result = audit_tree("flag_registry_bad");
  ASSERT_EQ(result.findings.size(), 2u);
  bool undeclared = false, dead = false;
  for (const Finding& f : result.findings) {
    undeclared = undeclared ||
                 f.message.find("--bugdet is read but has no row") !=
                     std::string::npos;
    dead = dead || f.message.find("--warm-solver has a table row but is "
                                  "read nowhere") != std::string::npos;
  }
  EXPECT_TRUE(undeclared);
  EXPECT_TRUE(dead);
}

TEST(Tokenizer, CodeInStringLiteralsIsInertForLoopRules) {
  // The token stream separates channels, so a quoted "while (true)" body
  // must never trip BL022/BL025 — the regression class the per-line
  // scanner had.
  const char* real =
      "#include <deque>\n"
      "void drain(std::deque<int>& q) {\n"
      "  while (true) {\n"
      "    q.push_back(1);\n"
      "  }\n"
      "}\n";
  expect_only(scan_source("buf.cpp", real), Rule::kUnboundedQueue, "real");

  const char* quoted =
      "#include <string>\n"
      "const char* doc = \"while (true) { q.push_back(1); }\";\n"
      "const char* raw = R\"(while (!converged) { q.push_back(1); })\";\n"
      "// while (true) { q.push_back(1); } in a comment is prose\n";
  EXPECT_TRUE(scan_source("buf.cpp", quoted).empty());
}

TEST(Tokenizer, CommentedOutIncludesAreNotEdges) {
  const SourceFile sf = tokenize(
      "// #include \"serve/serve_loop.hpp\"\n"
      "/* #include \"serve/old.hpp\" */\n"
      "#include \"core/simulator.hpp\"\n");
  ASSERT_EQ(sf.includes.size(), 1u);
  EXPECT_EQ(sf.includes[0].path, "core/simulator.hpp");
  EXPECT_FALSE(sf.includes[0].angled);
}

TEST(Tokenizer, LexerHandlesSeparatorsScopesAndRawStrings) {
  const SourceFile sf = tokenize(
      "int n = 1'000'000;\n"
      "auto v = std::chrono::seconds(1);\n"
      "const char* s = R\"x(not ::code here)x\";\n");
  bool number_whole = false, scope_fused = false, raw_captured = false;
  for (const Token& t : sf.tokens) {
    number_whole = number_whole ||
                   (t.kind == TokKind::kNumber && t.text == "1'000'000");
    scope_fused =
        scope_fused || (t.kind == TokKind::kPunct && t.text == "::");
    raw_captured = raw_captured || (t.kind == TokKind::kString &&
                                    t.text == "not ::code here");
  }
  EXPECT_TRUE(number_whole);
  EXPECT_TRUE(scope_fused);
  EXPECT_TRUE(raw_captured);
}

TEST(AuditReport, BaselineRoundTripGrandfathersEveryFinding) {
  const AuditResult result = audit_tree("rng_bad");
  ASSERT_FALSE(result.findings.empty());
  const std::set<std::string> baseline =
      parse_baseline(serialize_baseline(result));
  EXPECT_EQ(baseline.size(), result.findings.size());
  for (const Finding& f : result.findings)
    EXPECT_EQ(baseline.count(baseline_key(f)), 1u) << baseline_key(f);
  // And the JSON report marks them grandfathered.
  const std::string json = to_json(result, baseline);
  EXPECT_EQ(json.find("\"grandfathered\": false"), std::string::npos);
  EXPECT_NE(json.find("\"grandfathered\": true"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"BL043\""), std::string::npos);
}

TEST(AuditTree, RepoAuditsCleanUnderTwoSeconds) {
  // The whole-project audit is the ci.sh stage-0 gate; it must stay clean
  // (every hazard fixed or explicitly sanctioned) and fast enough to run
  // on every commit.
  const auto start = std::chrono::steady_clock::now();
  const AuditResult result = audit_paths(
      {BILLCAP_REPO_ROOT "/src", BILLCAP_REPO_ROOT "/tools",
       BILLCAP_REPO_ROOT "/bench", BILLCAP_REPO_ROOT "/examples"});
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  for (const Finding& f : result.findings) ADD_FAILURE() << format_finding(f);
  EXPECT_GT(result.files_scanned, 100u);
  EXPECT_LT(seconds, 2.0);
}

TEST(LintTree, RealSourcesScanCleanWithExplicitSuppressionsOnly) {
  std::size_t scanned = 0;
  for (const char* root : {BILLCAP_REPO_ROOT "/src", BILLCAP_REPO_ROOT
                           "/tools"}) {
    for (const std::string& file : collect_sources(root)) {
      for (const Finding& f : scan_file(file))
        ADD_FAILURE() << format_finding(f);
      ++scanned;
    }
  }
  // A path mix-up that scans zero files would vacuously pass otherwise.
  EXPECT_GT(scanned, 50u);
}

}  // namespace
}  // namespace billcap::lint
