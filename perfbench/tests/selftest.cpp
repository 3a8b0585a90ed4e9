// Checks of the benchmark's own arithmetic: the percentile rule, per-step
// statistics, throughput, the degraded share and span self time.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest: FAILED %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * (1.0 + std::fabs(b)); }

}  // namespace

int main() {
  using namespace perfbench;

  // Percentiles interpolate linearly between order statistics.
  check(near(percentile({3, 1, 2}, 0.5), 2.0), "median of three");
  check(near(percentile({1, 2, 3, 4}, 0.5), 2.5), "median of four");
  check(near(percentile({0, 10}, 0.98), 9.8), "p98 interpolates");
  check(percentile({}, 0.5) == 0.0, "empty percentile");

  // A p98 needs at least ten samples beyond it: 500 samples is the least.
  check(samples_beyond(500, 0.98) == 10, "500 samples leave 10 beyond p98");
  check(samples_beyond(499, 0.98) == 9, "499 samples leave 9 beyond p98");
  check(percentile_supported(500, 0.98), "p98 of 500 supported");
  check(!percentile_supported(499, 0.98), "p98 of 499 refused");
  check(!percentile_supported(240, 0.98), "p98 of a 240-hour month refused");
  check(percentile_supported(720, 0.98), "p98 of a 720-hour month supported");
  check(percentile_supported(20, 0.5), "p50 of 20 supported");

  // The fastest time of each step over repetitions.
  const std::vector<double> best =
      per_step_min({{5, 1, 9}, {4, 2, 8}, {6, 3, 7}});
  check(best == std::vector<double>({4, 1, 7}), "per-step minimum");

  // Steps over the time they took: 720 hours in 3.6 s is 200 steps/s.
  check(near(steps_per_s(720, 3.6), 200.0), "steps_per_s");
  check(steps_per_s(10, 0.0) == 0.0, "steps_per_s of no time");

  // Degraded decisions against decisions attempted: a fleet month of
  // 504 hours x 20 regions with 252 degraded chunks is 2.5 %.
  check(near(degraded_frac(6, 720), 6.0 / 720.0), "degraded hours share");
  check(near(degraded_frac(252, 504 * 20), 0.025), "degraded chunk share");
  check(degraded_frac(0, 0) == 0.0, "degraded share of nothing");

  // Self time with nested spans. Thread 0:
  //   A [0, 100) contains B [10, 40) and C [50, 90); C contains D [60, 70).
  // Thread 1: E [20, 30) at depth 0, unrelated to A although it overlaps.
  const std::vector<SpanTimes> spans = {
      {0, 0, 0, 0, 100},  // A
      {0, 1, 1, 10, 40},  // B
      {1, 0, 2, 20, 30},  // E
      {0, 1, 3, 50, 90},  // C
      {0, 2, 4, 60, 70},  // D
  };
  const SpanTree tree = nest_spans(spans);
  check(tree.parent == std::vector<long>({-1, 0, -1, 0, 3}), "span parents");
  check(tree.self_ns == std::vector<std::int64_t>({30, 30, 10, 30, 10}),
        "span self times");

  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
