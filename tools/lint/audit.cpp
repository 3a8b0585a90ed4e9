#include "audit.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>

namespace billcap::lint {

namespace {

template <typename Range>
bool contains(const Range& range, std::string_view token) {
  return std::find(std::begin(range), std::end(range), token) !=
         std::end(range);
}

// ---- BL040 layering --------------------------------------------------------

struct LayerEdge {
  std::size_t file_index = 0;
  std::size_t line = 0;  ///< 0-based include line
  std::string from;
  std::string to;
};

/// Every cross-layer include edge in the model, suppressed or not.
std::vector<LayerEdge> collect_layer_edges(const RepoModel& model) {
  std::vector<LayerEdge> edges;
  for (std::size_t i = 0; i < model.files.size(); ++i) {
    const FileModel& fm = model.files[i];
    if (fm.layer.empty()) continue;  // tools/tests/bench sit above the DAG
    for (const Include& inc : fm.source.includes) {
      if (inc.angled) continue;
      const std::string to = layer_of_include(inc.path);
      if (to.empty() || to == fm.layer) continue;
      edges.push_back({i, inc.line, fm.layer, to});
    }
  }
  return edges;
}

/// Walks the observed layer graph for a cycle; returns it as
/// "a -> b -> a" (empty when the graph is acyclic).
std::string find_cycle(const std::vector<LayerEdge>& edges) {
  std::map<std::string, std::vector<std::string>> graph;
  for (const LayerEdge& e : edges) graph[e.from].push_back(e.to);
  std::map<std::string, int> state;  // 0 unvisited, 1 on stack, 2 done
  std::vector<std::string> stack;
  std::string cycle;

  // Iterative DFS keyed on deterministic (sorted map) order.
  std::function<bool(const std::string&)> visit =
      [&](const std::string& node) -> bool {
    state[node] = 1;
    stack.push_back(node);
    for (const std::string& next : graph[node]) {
      if (state[next] == 1) {
        // Found: slice the stack from `next` onwards.
        std::ostringstream out;
        bool in_cycle = false;
        for (const std::string& s : stack) {
          if (s == next) in_cycle = true;
          if (in_cycle) out << s << " -> ";
        }
        out << next;
        cycle = out.str();
        return true;
      }
      if (state[next] == 0 && visit(next)) return true;
    }
    stack.pop_back();
    state[node] = 2;
    return false;
  };
  for (const auto& [node, _] : graph)
    if (state[node] == 0 && visit(node)) break;
  return cycle;
}

void check_layering(const RepoModel& model, std::vector<Finding>& out) {
  const std::vector<LayerEdge> edges = collect_layer_edges(model);
  for (const LayerEdge& e : edges) {
    const FileModel& fm = model.files[e.file_index];
    const std::vector<std::string>* allowed = allowed_dependencies(e.from);
    if (allowed == nullptr || contains(*allowed, e.to)) continue;
    if (fm.suppress.allows(e.line, Rule::kLayering)) continue;
    out.push_back({fm.path, e.line + 1, Rule::kLayering,
                   "include edge " + e.from + " -> " + e.to +
                       " violates the layer DAG (" + e.from +
                       " may depend on: " +
                       (allowed->empty() ? std::string("nothing")
                                         : [&] {
                                             std::string s;
                                             for (const std::string& d :
                                                  *allowed)
                                               s += (s.empty() ? "" : ", ") +
                                                    d;
                                             return s;
                                           }()) +
                       ") — move the code down a layer or invert the "
                       "dependency, or annotate allow(layering)",
                   e.from + " -> " + e.to});
  }
  const std::string cycle = find_cycle(edges);
  if (!cycle.empty()) {
    // Attribute the cycle to the first edge that participates in it.
    for (const LayerEdge& e : edges) {
      if (cycle.find(e.from + " -> " + e.to) == std::string::npos) continue;
      const FileModel& fm = model.files[e.file_index];
      if (fm.suppress.allows(e.line, Rule::kLayering)) break;
      out.push_back({fm.path, e.line + 1, Rule::kLayering,
                     "include cycle in the layer graph: " + cycle +
                         " — layers must form a DAG",
                     cycle});
      break;
    }
  }
}

// ---- BL041 journal-key registry --------------------------------------------

constexpr std::string_view kSetAccessors[] = {
    "set", "set_u64", "set_size", "set_double_bits", "set_double_list",
};
constexpr std::string_view kGetAccessors[] = {
    "get", "get_u64", "get_size", "get_double_bits", "get_double_list",
};

/// True when tokens[i] is `.accessor(` or `->accessor(`.
bool accessor_call(const std::vector<Token>& t, std::size_t i) {
  if (t[i].kind != TokKind::kIdentifier) return false;
  if (i == 0 || t[i - 1].kind != TokKind::kPunct ||
      (t[i - 1].text != "." && t[i - 1].text != ">"))
    return false;
  return i + 1 < t.size() && t[i + 1].kind == TokKind::kPunct &&
         t[i + 1].text == "(";
}

/// The registry constant passed as the accessor's first argument, when the
/// argument is `keys::kName` / `kName`; "" for literals and expressions.
std::string key_constant_argument(const std::vector<Token>& t,
                                  std::size_t call_ident) {
  std::size_t i = call_ident + 2;  // past '('
  // Skip a `keys ::` / `core :: keys ::` qualifier chain.
  while (i + 1 < t.size() && t[i].kind == TokKind::kIdentifier &&
         t[i + 1].kind == TokKind::kPunct && t[i + 1].text == "::")
    i += 2;
  if (i < t.size() && t[i].kind == TokKind::kIdentifier &&
      t[i].text.size() > 1 && t[i].text[0] == 'k')
    return t[i].text;
  return {};
}

void check_journal_registry(const RepoModel& model,
                            std::vector<Finding>& out) {
  if (model.keys_file < 0) return;  // no registry in the scanned roots
  const FileModel& registry =
      model.files[static_cast<std::size_t>(model.keys_file)];

  // Registry self-consistency: two constants with the same on-disk key
  // silently alias state.
  std::map<std::string, const KeyDecl*> by_value;
  for (const KeyDecl& k : model.journal_keys) {
    auto [it, inserted] = by_value.emplace(k.value, &k);
    if (!inserted && !registry.suppress.allows(k.line, Rule::kJournalRegistry))
      out.push_back({registry.path, k.line + 1, Rule::kJournalRegistry,
                     "duplicate journal key \"" + k.value + "\": " + k.name +
                         " aliases " + it->second->name +
                         " — two constants writing one on-disk key silently "
                         "merge state",
                     {}});
  }

  // Call-site and usage scan.
  std::set<std::string> referenced;          // constant names seen anywhere
  std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>>
      unguarded_reads;                       // name -> (file, 0-based line)
  std::set<std::string> guarded_names;       // has(kName) seen somewhere
  for (std::size_t fi = 0; fi < model.files.size(); ++fi) {
    const FileModel& fm = model.files[fi];
    if (static_cast<std::ptrdiff_t>(fi) == model.keys_file) continue;
    const std::vector<Token>& t = fm.source.tokens;
    // Accessor calls only count in files that actually touch a Journal —
    // `.get("...")` on an argument parser is not a checkpoint access.
    const bool journal_user = fm.source.includes_path("util/journal.hpp") ||
                              fm.source.has_identifier("Journal");
    std::set<std::string> has_in_file;
    std::vector<std::pair<std::string, std::size_t>> reads_in_file;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind == TokKind::kIdentifier && t[i].text.size() > 1 &&
          t[i].text[0] == 'k')
        referenced.insert(t[i].text);
      if (!journal_user) continue;
      if (!accessor_call(t, i)) continue;
      const bool is_set = contains(kSetAccessors, t[i].text);
      const bool is_get = contains(kGetAccessors, t[i].text);
      const bool is_has = t[i].text == "has";
      if (!is_set && !is_get && !is_has) continue;
      // Literal key at a put/get: must be a registered on-disk key.
      if (i + 2 < t.size() && t[i + 2].kind == TokKind::kString) {
        const std::string& literal = t[i + 2].text;
        if (!by_value.count(literal) &&
            !fm.suppress.allows(t[i].line, Rule::kJournalRegistry))
          out.push_back(
              {fm.path, t[i].line + 1, Rule::kJournalRegistry,
               "journal key \"" + literal +
                   "\" is not declared in src/core/checkpoint_keys.hpp — an "
                   "unregistered key silently drops state on resume; declare "
                   "it or annotate allow(journal-key-registry)",
               {}});
        continue;
      }
      const std::string name = key_constant_argument(t, i);
      if (name.empty()) continue;
      if (is_has) {
        has_in_file.insert(name);
        guarded_names.insert(name);
      } else if (is_get) {
        reads_in_file.emplace_back(name, t[i].line);
      }
    }
    for (const auto& [name, line] : reads_in_file)
      if (!has_in_file.count(name)) unguarded_reads[name].push_back({fi, line});
  }

  // Inconsistent absence tolerance: a key guarded with has() in one reader
  // but read bare in another will desync the moment an old checkpoint
  // lacking the key meets the bare reader.
  for (const auto& [name, sites] : unguarded_reads) {
    if (!guarded_names.count(name)) continue;
    for (const auto& [fi, line] : sites) {
      const FileModel& fm = model.files[fi];
      if (fm.suppress.allows(line, Rule::kJournalRegistry)) continue;
      out.push_back(
          {fm.path, line + 1, Rule::kJournalRegistry,
           "key " + name +
               " is has()-guarded elsewhere but read here without a guard — "
               "a pre-" +
               name +
               " checkpoint would throw in this reader and resume cleanly in "
               "the other; guard the read or annotate "
               "allow(journal-key-registry)",
           {}});
    }
  }

  // Dead registry entries: a declared key no code references is drift —
  // either state stopped being persisted (delete the key) or a writer
  // regressed to a raw literal (the literal check above catches that side).
  for (const KeyDecl& k : model.journal_keys) {
    if (referenced.count(k.name)) continue;
    if (registry.suppress.allows(k.line, Rule::kJournalRegistry)) continue;
    out.push_back({registry.path, k.line + 1, Rule::kJournalRegistry,
                   "registered key " + k.name + " (\"" + k.value +
                       "\") is never referenced by any scanned source — "
                       "delete it or annotate allow(journal-key-registry)",
                   {}});
  }
}

// ---- BL042 exit-code registry ----------------------------------------------

constexpr std::string_view kExitCalls[] = {"exit", "_exit", "quick_exit"};

void check_exit_registry(const RepoModel& model, std::vector<Finding>& out) {
  if (model.exits_file < 0) return;
  const FileModel& registry =
      model.files[static_cast<std::size_t>(model.exits_file)];

  std::map<int, const ExitDecl*> by_value;
  for (const ExitDecl& e : model.exit_codes) {
    auto [it, inserted] = by_value.emplace(e.value, &e);
    if (!inserted && !registry.suppress.allows(e.line, Rule::kExitRegistry))
      out.push_back({registry.path, e.line + 1, Rule::kExitRegistry,
                     "duplicate exit code " + std::to_string(e.value) + ": " +
                         e.name + " aliases " + it->second->name,
                     {}});
  }

  auto flag = [&](const FileModel& fm, std::size_t line0, int value,
                  const std::string& site) {
    if (fm.suppress.allows(line0, Rule::kExitRegistry)) return;
    const auto it = by_value.find(value);
    const std::string hint =
        it != by_value.end()
            ? "use core::ExitCode::" + it->second->name +
                  " (src/core/exit_codes.hpp)"
            : std::to_string(value) +
                  " is not a registered core::ExitCode value — the "
                  "supervisor cannot interpret it; add it to the registry "
                  "or use an existing code";
    out.push_back({fm.path, line0 + 1, Rule::kExitRegistry,
                   "integer-literal exit code at " + site + " — " + hint +
                       ", or annotate allow(exit-code-registry)",
                   {}});
  };

  for (std::size_t fi = 0; fi < model.files.size(); ++fi) {
    const FileModel& fm = model.files[fi];
    if (static_cast<std::ptrdiff_t>(fi) == model.exits_file) continue;
    const std::vector<Token>& t = fm.source.tokens;

    // exit(N) / _exit(N) / quick_exit(N) anywhere.
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdentifier ||
          !contains(kExitCalls, t[i].text))
        continue;
      if (i > 0 && t[i - 1].kind == TokKind::kPunct &&
          (t[i - 1].text == "." || t[i - 1].text == ">"))
        continue;  // member named exit()
      if (t[i + 1].kind != TokKind::kPunct || t[i + 1].text != "(") continue;
      if (t[i + 2].kind != TokKind::kNumber) continue;
      if (t[i + 3].kind != TokKind::kPunct || t[i + 3].text != ")") continue;
      const int value = std::atoi(t[i + 2].text.c_str());
      flag(fm, t[i].line, value, t[i].text + "(" + t[i + 2].text + ")");
    }

    // return N; inside main's brace block, for N >= 2 (0 and 1 are the
    // universal POSIX success/failure pair; everything richer must come
    // from the registry).
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (t[i].text != "int" || t[i + 1].text != "main" ||
          t[i + 2].text != "(")
        continue;
      const std::size_t args_close = match_forward(t, i + 2);
      if (args_close >= t.size()) break;
      const std::size_t body_open = find_punct(t, args_close + 1, "{");
      if (body_open >= t.size()) break;
      std::size_t body_close = match_forward(t, body_open);
      if (body_close >= t.size()) body_close = t.size() - 1;
      for (std::size_t j = body_open; j < body_close; ++j) {
        if (t[j].kind != TokKind::kIdentifier || t[j].text != "return")
          continue;
        if (j + 2 >= t.size() || t[j + 1].kind != TokKind::kNumber) continue;
        if (t[j + 2].kind != TokKind::kPunct || t[j + 2].text != ";") continue;
        const int value = std::atoi(t[j + 1].text.c_str());
        if (value >= 2)
          flag(fm, t[j].line, value,
               "return " + t[j + 1].text + " from main");
      }
      i = body_close;
    }
  }
}

// ---- BL043 unseeded RNG ----------------------------------------------------

constexpr std::string_view kAmbientRngCalls[] = {
    "rand", "srand", "drand48", "lrand48", "mrand48", "srand48",
};
constexpr std::string_view kStdEngines[] = {
    "mt19937",       "mt19937_64",   "minstd_rand", "minstd_rand0",
    "default_random_engine", "ranlux24", "ranlux48", "ranlux24_base",
    "ranlux48_base", "knuth_b",
};
constexpr std::string_view kAmbientSeedMarkers[] = {
    "random_device", "time", "clock", "now", "rd", "entropy",
};

void check_unseeded_rng(const RepoModel& model, std::vector<Finding>& out) {
  for (const FileModel& fm : model.files) {
    if (fm.test_file) continue;  // *_test.* may use ad-hoc entropy
    const std::vector<Token>& t = fm.source.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdentifier) continue;
      if (fm.suppress.allows(t[i].line, Rule::kUnseededRng)) continue;
      if (t[i].text == "random_device") {
        out.push_back({fm.path, t[i].line + 1, Rule::kUnseededRng,
                       "std::random_device draws ambient entropy — runs "
                       "become unreproducible; seed from config through "
                       "util::Rng or annotate allow(unseeded-rng)",
                       {}});
      } else if (contains(kAmbientRngCalls, t[i].text) && i + 1 < t.size() &&
                 t[i + 1].kind == TokKind::kPunct && t[i + 1].text == "(" &&
                 (i == 0 || t[i - 1].kind != TokKind::kPunct ||
                  (t[i - 1].text != "." && t[i - 1].text != ">"))) {
        out.push_back({fm.path, t[i].line + 1, Rule::kUnseededRng,
                       "'" + t[i].text +
                           "' uses the ambient C PRNG — runs become "
                           "unreproducible and the state is process-global; "
                           "use the seeded util::Rng or annotate "
                           "allow(unseeded-rng)",
                       {}});
      } else if (contains(kStdEngines, t[i].text) && i + 1 < t.size() &&
                 t[i + 1].kind == TokKind::kPunct &&
                 (t[i + 1].text == "(" || t[i + 1].text == "{")) {
        const std::size_t close = match_forward(t, i + 1);
        if (close >= t.size()) continue;
        for (std::size_t j = i + 2; j < close; ++j) {
          if (t[j].kind == TokKind::kIdentifier &&
              contains(kAmbientSeedMarkers, t[j].text)) {
            out.push_back(
                {fm.path, t[i].line + 1, Rule::kUnseededRng,
                 "std::" + t[i].text +
                     " seeded from ambient state ('" + t[j].text +
                     "') — the seed must come from config so a rerun "
                     "reproduces the month; use util::Rng or annotate "
                     "allow(unseeded-rng)",
                 {}});
            break;
          }
        }
      }
    }
  }
}

// ---- BL044 flag registry ---------------------------------------------------

constexpr std::string_view kFlagKinds[] = {
    "kSwitch", "kText", "kNumber", "kInteger", "kNumberList",
};
constexpr std::string_view kFlagReaders[] = {
    "has", "get_switch", "get_text", "get_number", "get_integer",
    "get_number_list",
};

struct FlagSite {
  std::size_t file_index = 0;
  std::size_t line = 0;  ///< 0-based
  std::string name;
};

/// Matches the flag tables (util::Flag rows, `{"name", [FlagKind::]kKind`)
/// against the literal names read through util::CliArgs, across every
/// scanned file that includes util/cli.hpp: a read with no row throws at
/// run time, and a row no code reads is a flag the parser accepts and then
/// ignores.
void check_flag_registry(const RepoModel& model, std::vector<Finding>& out) {
  std::vector<FlagSite> rows;
  std::vector<FlagSite> reads;
  for (std::size_t fi = 0; fi < model.files.size(); ++fi) {
    const SourceFile& source = model.files[fi].source;
    if (!source.includes_path("util/cli.hpp")) continue;
    const std::vector<Token>& t = source.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (t[i].kind == TokKind::kPunct && t[i].text == "{" &&
          t[i + 1].kind == TokKind::kString && t[i + 2].text == ",") {
        std::size_t k = i + 3;
        while (k + 1 < t.size() && t[k].kind == TokKind::kIdentifier &&
               t[k + 1].text == "::")
          k += 2;
        if (k < t.size() && contains(kFlagKinds, t[k].text))
          rows.push_back({fi, t[i + 1].line, t[i + 1].text});
      } else if (accessor_call(t, i) && contains(kFlagReaders, t[i].text) &&
                 t[i + 2].kind == TokKind::kString) {
        reads.push_back({fi, t[i].line, t[i + 2].text});
      }
    }
  }
  std::set<std::string> declared;
  std::set<std::string> read;
  for (const FlagSite& r : rows) declared.insert(r.name);
  for (const FlagSite& r : reads) read.insert(r.name);
  const auto flag = [&](const FlagSite& site, const std::string& message) {
    const FileModel& fm = model.files[site.file_index];
    if (fm.suppress.allows(site.line, Rule::kFlagRegistry)) return;
    out.push_back({fm.path, site.line + 1, Rule::kFlagRegistry,
                   "flag --" + site.name + " " + message +
                       ", or annotate allow(flag-registry)",
                   {}});
  };
  for (const FlagSite& r : reads)
    if (!declared.count(r.name))
      flag(r, "is read but has no row in any flag table — the read throws "
              "at run time; declare it");
  for (const FlagSite& r : rows)
    if (!read.count(r.name))
      flag(r, "has a table row but is read nowhere — the parser accepts it "
              "and the run ignores it; delete the row");
}

// ---- driver ----------------------------------------------------------------

void dedupe(std::vector<Finding>& findings) {
  // BL042 over BL010, BL043 over BL001: the audit rule carries the
  // registry context, the per-line rule would say the same thing twice.
  std::set<std::pair<std::string, std::size_t>> audit_sites;
  for (const Finding& f : findings)
    if (f.rule == Rule::kExitRegistry || f.rule == Rule::kUnseededRng)
      audit_sites.insert({f.file, f.line});
  findings.erase(
      std::remove_if(findings.begin(), findings.end(),
                     [&](const Finding& f) {
                       return (f.rule == Rule::kExitCode ||
                               f.rule == Rule::kWallClock) &&
                              audit_sites.count({f.file, f.line}) != 0;
                     }),
      findings.end());
}

}  // namespace

AuditResult audit_model(const RepoModel& model) {
  AuditResult result;
  result.files_scanned = model.files.size();
  for (const FileModel& fm : model.files)
    for (Finding& f : scan_tokens(fm.path, fm.source))
      result.findings.push_back(std::move(f));
  check_layering(model, result.findings);
  check_journal_registry(model, result.findings);
  check_exit_registry(model, result.findings);
  check_unseeded_rng(model, result.findings);
  check_flag_registry(model, result.findings);
  dedupe(result.findings);
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return std::string_view(info(a.rule).id) < info(b.rule).id;
            });
  return result;
}

AuditResult audit_paths(const std::vector<std::string>& roots) {
  std::vector<std::string> files;
  for (const std::string& root : roots)
    for (std::string& f : collect_sources(root))
      files.push_back(std::move(f));
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return audit_model(build_model(files));
}

// ---- JSON + baseline -------------------------------------------------------

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

std::string baseline_key(const Finding& finding) {
  return std::string(info(finding.rule).id) + " " + finding.file + ":" +
         std::to_string(finding.line);
}

std::string to_json(const AuditResult& result,
                    const std::set<std::string>& baseline) {
  std::string out = "{\n  \"version\": 1,\n  \"files_scanned\": " +
                    std::to_string(result.files_scanned) +
                    ",\n  \"findings\": [";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    const RuleInfo& r = info(f.rule);
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"rule\": ";
    append_json_string(out, r.id);
    out += ", \"name\": ";
    append_json_string(out, r.name);
    out += ", \"file\": ";
    append_json_string(out, f.file);
    out += ", \"line\": " + std::to_string(f.line);
    if (!f.edge.empty()) {
      out += ", \"edge\": ";
      append_json_string(out, f.edge);
    }
    out += ", \"grandfathered\": ";
    out += baseline.count(baseline_key(f)) ? "true" : "false";
    out += ", \"message\": ";
    append_json_string(out, f.message);
    out += "}";
  }
  out += result.findings.empty() ? "],\n" : "\n  ],\n";
  out += "  \"summary\": {";
  const auto counts = summarize(result.findings);
  bool first = true;
  for (const auto& [id, count] : counts) {
    out += first ? "" : ", ";
    first = false;
    append_json_string(out, id);
    out += ": " + std::to_string(count);
  }
  out += "}\n}\n";
  return out;
}

std::string serialize_baseline(const AuditResult& result) {
  std::vector<std::string> keys;
  keys.reserve(result.findings.size());
  for (const Finding& f : result.findings) keys.push_back(baseline_key(f));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::string out =
      "# billcap-audit baseline: grandfathered findings (one \"<rule> "
      "<file>:<line>\" per line).\n"
      "# New findings not listed here fail the audit; listed ones warn.\n";
  for (const std::string& k : keys) out += k + "\n";
  return out;
}

std::set<std::string> parse_baseline(std::string_view text) {
  std::set<std::string> keys;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
      line.remove_suffix(1);
    if (!line.empty() && line.front() != '#')
      keys.insert(std::string(line));
    start = end + 1;
  }
  return keys;
}

}  // namespace billcap::lint
