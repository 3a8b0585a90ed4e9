// The benchmark's own arithmetic: percentiles and the sample-count rule,
// per-step statistics over in-run repetitions, throughput, failure shares
// and span self time. Kept free of the library so the self-test can pin it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (q in [0, 1]) of `values`, the rule
/// numpy and Python's statistics module call "inclusive". Empty input -> 0.
double percentile(std::vector<double> values, double q);

/// Samples strictly above the q-th percentile of n samples: n - ceil(q n).
std::size_t samples_beyond(std::size_t n, double q);

/// True when a percentile of n samples has at least `min_beyond` samples
/// beyond it (the benchmark reports no tail it cannot resolve).
bool percentile_supported(std::size_t n, double q, std::size_t min_beyond = 10);

/// Element-wise minimum over repetitions of the same step sequence: the
/// fastest time each step achieved in the run. Every repetition must have
/// the same length.
std::vector<double> per_step_min(const std::vector<std::vector<double>>& reps);

/// Steps divided by the total time they took.
double steps_per_s(std::size_t steps, double total_seconds);

/// Share of decisions that were degraded, against decisions attempted.
double degraded_frac(std::size_t degraded, std::size_t attempted);

/// One recorded span on one thread. `depth` is the number of spans open on
/// that thread when it opened; `seq` orders span openings globally.
struct SpanTimes {
  std::uint32_t thread = 0;
  std::uint32_t depth = 0;
  std::uint64_t seq = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Nesting of a set of spans: for each span its parent index (-1 for an
/// outermost span) and its self time, the duration minus the durations of
/// its direct children.
struct SpanTree {
  std::vector<long> parent;
  std::vector<std::int64_t> self_ns;
};
SpanTree nest_spans(const std::vector<SpanTimes>& spans);

}  // namespace perfbench
