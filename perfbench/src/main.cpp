// perfbench / perfbench_traced: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --work-dir <dir>
//             [--rev <source revision>]
//
// Prints one line of run metadata, then as the last line one JSON object
// with the keys correct, attempted, failed and metrics. Exit code 0 when
// every output check held, 1 otherwise, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --work-dir <dir> [--rev <rev>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.traced = PERFBENCH_TRACED != 0;
  std::string rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--work-dir") options.work_dir = value;
      else if (flag == "--rev") rev = value;
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (options.workload.empty() || options.work_dir.empty() || !(options.seconds > 0.0))
    return usage("--workload, --work-dir and a positive --seconds are required");

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& error : result.errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());

  result.meta.push_back({"build_type", PERFBENCH_BUILD_TYPE});
  result.meta.push_back({"compiler", PERFBENCH_COMPILER});
  result.meta.push_back({"rev", rev});
  std::string meta = "{\"meta\": {";
  for (std::size_t i = 0; i < result.meta.size(); ++i)
    meta += (i ? ", " : "") + json_string(result.meta[i].first) + ": " +
            json_string(result.meta[i].second);
  std::printf("%s}}\n", meta.c_str());

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    line += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  return result.correct ? 0 : 1;
}
