// The four month-scale workloads and the measurement harness around them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 2012;
  double seconds = 10.0;
  bool traced = false;
  /// Scratch directory for checkpoints, inside the benchmark's build tree.
  std::string work_dir;
};

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;  ///< steps attempted over every repetition
  std::size_t failed = 0;     ///< steps that did not commit
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< failed output checks, one per line
  std::vector<std::pair<std::string, std::string>> meta;
};

const std::vector<std::string>& workload_names();

/// Runs one workload. Untraced: repeated set-ups, then the workload's fixed
/// number of months (failing once they overrun `seconds` by far), the
/// drive checks and the end-to-end metrics. Traced: passes with recording
/// off and on, per-layer metrics and the reference comparisons. Throws
/// std::invalid_argument on an unknown name.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
