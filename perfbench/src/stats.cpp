#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::size_t samples_beyond(std::size_t n, double q) {
  // The small slack keeps q * n = 490.0000001 from rounding up to 491.
  const auto at_or_below = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n > at_or_below ? n - at_or_below : 0;
}

bool percentile_supported(std::size_t n, double q, std::size_t min_beyond) {
  return samples_beyond(n, q) >= min_beyond;
}

std::vector<double> per_step_min(const std::vector<std::vector<double>>& reps) {
  if (reps.empty()) return {};
  std::vector<double> best = reps.front();
  for (const auto& rep : reps) {
    if (rep.size() != best.size())
      throw std::invalid_argument("per_step_min: repetitions differ in length");
    for (std::size_t i = 0; i < rep.size(); ++i)
      best[i] = std::min(best[i], rep[i]);
  }
  return best;
}

double steps_per_s(std::size_t steps, double total_seconds) {
  return total_seconds > 0.0 ? static_cast<double>(steps) / total_seconds : 0.0;
}

double degraded_frac(std::size_t degraded, std::size_t attempted) {
  return attempted > 0
             ? static_cast<double>(degraded) / static_cast<double>(attempted)
             : 0.0;
}

SpanTree nest_spans(const std::vector<SpanTimes>& spans) {
  SpanTree tree;
  tree.parent.assign(spans.size(), -1);
  tree.self_ns.resize(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    tree.self_ns[i] = spans[i].end_ns - spans[i].start_ns;

  // Per thread, walk spans in opening order with a stack of open spans:
  // a span at depth d is a child of the span left on the stack at depth
  // d - 1.
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].seq < spans[b].seq;
  });
  std::map<std::uint32_t, std::vector<std::size_t>> stacks;
  for (const std::size_t i : order) {
    auto& stack = stacks[spans[i].thread];
    if (spans[i].depth > stack.size())
      throw std::invalid_argument("nest_spans: span opened below a missing parent");
    stack.resize(spans[i].depth);
    if (!stack.empty()) {
      const std::size_t p = stack.back();
      tree.parent[i] = static_cast<long>(p);
      tree.self_ns[p] -= spans[i].end_ns - spans[i].start_ns;
    }
    stack.push_back(i);
  }
  return tree;
}

}  // namespace perfbench
