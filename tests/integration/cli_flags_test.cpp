// The command lines of the real binaries: `billcap` (path injected via
// BILLCAP_CLI_PATH) and the two bench tools that parse flags. Every
// command checks its command line against its flag table before any month
// runs, so a misspelled flag, an unconvertible or out-of-range value, a
// repeated flag or a stray argument exits 2 at once, and `--help` prints
// the table without running anything. A fresh run's streamed CSV
// overwrites whatever stale file sits at its path.

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/exit_codes.hpp"

namespace billcap::core {
namespace {

struct Outcome {
  int code = -1;
  std::string output;  ///< stdout and stderr together
};

/// Runs `program args` through the shell and captures its output.
Outcome invoke(const std::string& program, const std::string& args) {
  Outcome r;
  FILE* pipe = ::popen((program + " " + args + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
    r.output.append(buf, n);
  const int status = ::pclose(pipe);
  r.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

Outcome cli(const std::string& args) {
  return invoke(BILLCAP_CLI_PATH, args);
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(::getpid())))
      .string();
}

TEST(CliFlagsTest, MisspelledFlagExits2AndNamesTheNearest) {
  struct Case {
    std::string program, args, nearest;
  };
  const Case cases[] = {
      {BILLCAP_CLI_PATH, "simulate --bugdet 5", "--budget"},
      {BILLCAP_CLI_PATH, "serve --tiks-per-hour 3", "--ticks-per-hour"},
      {BILLCAP_CLI_PATH, "supervise --checkpoint x --backof-ms 1",
       "--backoff-ms"},
      {BILLCAP_CLI_PATH, "supervise --serve --checkpoint x --hour 2",
       "--hours"},
      {BILLCAP_CLI_PATH, "sweep --budgtes 1e6", "--budgets"},
      {BILLCAP_CLI_PATH, "opf --lod 800", "--load"},
      {BILLCAP_CLI_PATH, "trace --sed 7", "--seed"},
      {BILLCAP_FLEET_SWEEP_PATH, "--smok", "--smoke"},
      {BILLCAP_FLEET_SWEEP_PATH, "--min-speed 3", "--min-speedup"},
      {BILLCAP_MARKET_LOOP_PATH, "--smoke --gain 2", "--gains"},
  };
  for (const Case& c : cases) {
    const Outcome r = invoke(c.program, c.args);
    EXPECT_EQ(r.code, kExitUsage) << c.args << "\n" << r.output;
    EXPECT_NE(r.output.find("nearest: " + c.nearest), std::string::npos)
        << c.args << "\n" << r.output;
  }
}

TEST(CliFlagsTest, RemovedFlagExits2ThroughTheSamePath) {
  // --squeezes took milliseconds; squeezes are node budgets now, and the
  // old spelling must not be read as --node-squeezes 1:2:5.
  for (const std::string flag : {"--warm-solver", "--squeezes 1:2:5"}) {
    const Outcome r = cli("simulate " + flag);
    EXPECT_EQ(r.code, kExitUsage) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown flag " + flag.substr(0, flag.find(' '))),
              std::string::npos)
        << r.output;
  }
  // The hint names the renamed row, not the first row as near by edit
  // distance (--outages).
  const Outcome r = cli("simulate --squeezes 1:2:5");
  EXPECT_NE(r.output.find("(nearest: --node-squeezes)"), std::string::npos)
      << r.output;
}

TEST(CliFlagsTest, BadValuesExit2BeforeAnyMonthRuns) {
  for (const char* args :
       {"simulate --seed abc", "simulate --seed 99999999999999999999999",
        "simulate --policy 9", "simulate --budget -1", "opf --load abc",
        "sweep --budgets 1e6,x", "serve --hours -1",
        "simulate --fault-stale-rate 1.5", "simulate --budget 1 --budget 2",
        "simulate extra", "simulate --no-cap=yes", "simulate --csv",
        "simulate --node-squeezes 1:2:0", "simulate --node-squeezes 1:2:2.5",
        "simulate --node-squeezes 1:2"}) {
    const Outcome r = cli(args);
    EXPECT_EQ(r.code, kExitUsage) << args << "\n" << r.output;
    EXPECT_EQ(r.output.find("monthly cost"), std::string::npos) << args;
  }
}

TEST(CliFlagsTest, TickPlaneFaultsAreServeOnly) {
  // simulate's hourly loop has no ticks to surge or burst, so it does not
  // take the flags; serve does.
  EXPECT_EQ(cli("simulate --flash-crowds 10:48:3").code, kExitUsage);
  EXPECT_EQ(cli("simulate --feed-bursts 5:24:8").code, kExitUsage);
  const Outcome r =
      cli("serve --hours 2 --flash-crowds 0:1:2 --feed-bursts 0:1:2");
  EXPECT_EQ(r.code, kExitSuccess) << r.output;
}

TEST(CliFlagsTest, ControllerFaultsAreSimulateOnly) {
  // The serve daemon never reads simulate's squeezes (planned or drawn at a
  // rate), controller deaths or checkpoint bit rot, so it refuses them
  // rather than ignoring them.
  for (const char* flag :
       {"--node-squeezes 1:2:5", "--crash-at 3", "--crash-rate 0.1",
        "--exit-storm 2:2", "--corrupt-checkpoint-at 4",
        "--fault-squeeze-rate 0.9", "--fault-squeeze-mean 5"}) {
    for (const char* command : {"serve --hours 2", "supervise --serve"}) {
      const std::string args = std::string(command) + " " + flag;
      const Outcome r = cli(args);
      EXPECT_EQ(r.code, kExitUsage) << args << "\n" << r.output;
      EXPECT_NE(r.output.find("unknown flag " +
                              std::string(flag).substr(0, std::string(flag)
                                                              .find(' '))),
                std::string::npos)
          << args << "\n" << r.output;
      EXPECT_NE(r.output.find("nearest: --"), std::string::npos)
          << args << "\n" << r.output;
    }
  }
  // simulate still takes them.
  EXPECT_EQ(cli("simulate --node-squeezes 1:2:5 --crash-rate 0 "
                "--fault-squeeze-rate 0.5 --fault-squeeze-mean 3 --help")
                .code,
            kExitSuccess);
}

TEST(CliFlagsTest, SuperviseRejectsATypoWithoutForkingAChild) {
  const std::string path = temp_path("billcap_cli_flags.j");
  std::filesystem::remove(path);
  const Outcome r = cli("supervise --checkpoint " + path + " --bugdet 5");
  EXPECT_EQ(r.code, kExitUsage) << r.output;
  EXPECT_NE(r.output.find("nearest: --budget"), std::string::npos);
  EXPECT_EQ(r.output.find("primary run"), std::string::npos) << r.output;
  EXPECT_FALSE(std::filesystem::exists(path));
  // The flags supervise sets on its children are not its to take.
  for (const char* own : {"--resume", "--die-on-crash", "--standby"})
    EXPECT_EQ(cli("supervise --checkpoint " + path + " " + own).code,
              kExitUsage)
        << own;
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(CliFlagsTest, HelpExits0WritesNoCsvAndListsEveryRow) {
  const std::vector<std::string> shared = {
      "budget", "no-cap", "policy", "seed", "outages", "stale", "shocks",
      "line-outage", "bg-shock", "congestion-spike", "fault-outage-rate",
      "fault-stale-rate", "fault-shock-rate", "fault-outage-mean",
      "fault-stale-mean", "fault-shock-mean", "feed-retry-prob",
      "feed-max-retries", "feed-backoff-ms", "closed-loop",
      "coupler-max-iters", "coupler-gain", "damping", "coupler-open-plan",
      "checkpoint", "csv", "min-premium"};
  const std::vector<std::string> controller_faults = {
      "node-squeezes", "crash-at", "exit-storm", "corrupt-checkpoint-at",
      "crash-rate", "fault-squeeze-rate", "fault-squeeze-mean"};
  const std::vector<std::string> restart = {"resume", "keep-generations",
                                            "standby", "standby-hours"};
  const std::vector<std::string> serve_only = {
      "ticks-per-hour", "hours", "premium-queue-ticks",
      "ordinary-queue-ticks", "feed-queue", "feed-drain", "stale-ticks",
      "breaker-trip", "breaker-cooldown", "replan-nodes",
      "kill-at-ticks", "flash-crowds", "feed-bursts"};
  const std::vector<std::string> supervise_own = {
      "serve", "restart-budget", "restart-window-s", "backoff-ms",
      "backoff-multiplier", "backoff-max-ms", "backoff-jitter",
      "escalate-after", "standby-hours", "keep-generations"};
  const auto concat = [](std::vector<std::vector<std::string>> groups) {
    std::vector<std::string> all;
    for (const auto& g : groups) all.insert(all.end(), g.begin(), g.end());
    return all;
  };
  struct Case {
    std::string args;
    std::vector<std::string> rows;
  };
  const Case cases[] = {
      {"simulate", concat({shared, controller_faults, restart,
                           {"strategy", "months", "die-on-crash"}})},
      {"serve", concat({shared, restart, serve_only, {"die-on-kill"}})},
      {"supervise", concat({supervise_own, shared, controller_faults,
                            {"strategy", "months"}})},
      {"supervise --serve", concat({supervise_own, shared, serve_only})},
      {"sweep", {"budgets", "policy", "seed"}},
      {"opf", {"load"}},
      {"trace", {"seed"}},
  };
  const std::string csv = temp_path("billcap_cli_help.csv");
  for (const Case& c : cases) {
    std::filesystem::remove(csv);
    const Outcome r = cli(c.args + " --csv " + csv + " --help");
    EXPECT_EQ(r.code, kExitSuccess) << c.args << "\n" << r.output;
    EXPECT_FALSE(std::filesystem::exists(csv)) << c.args;
    std::size_t lines = 0;
    for (const char ch : r.output) lines += ch == '\n' ? 1 : 0;
    for (const std::string& row : c.rows)
      EXPECT_NE(r.output.find("\n  --" + row + " "), std::string::npos)
          << c.args << " --help lacks --" << row;
    // Title, blank line and "flags:" header, then exactly one line a row.
    EXPECT_EQ(lines, 3 + c.rows.size()) << c.args << "\n" << r.output;
  }
  EXPECT_EQ(invoke(BILLCAP_FLEET_SWEEP_PATH, "--help").code, kExitSuccess);
  EXPECT_EQ(invoke(BILLCAP_MARKET_LOOP_PATH, "--help").code, kExitSuccess);
}

TEST(CliFlagsTest, FreshRunOverwritesAStaleCsv) {
  // A first attempt has committed no row, so a CSV already at the path
  // (another run's, with another header) is stale: the streamed writers
  // overwrite it, as the whole-file writer of a plain simulate does.
  const std::string dir = temp_path("billcap_cli_stale");
  const std::string csv = dir + "/out.csv";
  const std::string ck = dir + "/run.ck";
  struct Case {
    std::string args, header;
  };
  const Case cases[] = {
      {"simulate --checkpoint " + ck + " --csv " + csv, "hour,arrivals,"},
      {"serve --hours 2 --csv " + csv, "tick,hour,"},
      {"serve --hours 2 --checkpoint " + ck + " --csv " + csv, "tick,hour,"},
  };
  for (const Case& c : cases) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
      std::ofstream stale(csv, std::ios::binary);
      stale << "x,y\n1,2\n";
    }
    const Outcome r = cli(c.args);
    EXPECT_EQ(r.code, kExitSuccess) << c.args << "\n" << r.output;
    std::ifstream in(csv, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(text.rfind(c.header, 0), 0u) << c.args << "\n" << text;
    EXPECT_EQ(text.find("x,y"), std::string::npos) << c.args;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace billcap::core

#endif  // POSIX-only: popen/pclose
