#include "core/fallback_allocator.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace billcap::core {

namespace {

/// One maximal stretch of requests at a site over which the believed cost
/// is affine in lambda: one price segment of the site's cost curve.
/// `cost_at(lambda)` is the site's total believed cost when filled to
/// `lambda`, valid for lambda in (lambda_lo, lambda_hi].
struct Chunk {
  double lambda_lo = 0.0;
  double lambda_hi = 0.0;
  double power_lo = 0.0;          ///< site draw at lambda_lo (MW)
  double power_slope = 0.0;       ///< MW per request/hour inside the chunk
  double price_slope = 0.0;       ///< $ per MW inside the chunk
  double price_intercept = 0.0;   ///< $ offset of the price segment
  double avg_price = 0.0;         ///< $ per request over the whole chunk

  double power_at(double lambda) const noexcept {
    return power_lo + power_slope * (lambda - lambda_lo);
  }
  double cost_at(double lambda) const noexcept {
    return price_intercept + price_slope * power_at(lambda);
  }
};

/// Cuts one site's believed model into chunks of constant marginal price,
/// in fill order. Returns nothing for a site that cannot take load (down or
/// capacity zero).
std::vector<Chunk> make_chunks(const SiteModel& site) {
  std::vector<Chunk> chunks;
  if (site.lambda_max <= 0.0 || site.cost_curve.num_segments() == 0)
    return chunks;

  const lp::PiecewiseAffine& curve = site.cost_curve;
  const double slope = site.power_slope;
  double lambda = 0.0;
  double power = site.power_intercept_mw;  // activation draw at lambda -> 0+
  const double power_max = curve.breaks.back();
  double remaining = site.lambda_max;
  while (remaining > 1e-12) {
    if (power >= power_max - 1e-12) break;  // cost curve exhausted
    const std::size_t k = curve.segment_of(std::min(power, power_max));
    // Lambda until either the site's capacity or the price segment ends.
    double width = remaining;
    if (slope > 0.0) {
      const double to_break = (curve.breaks[k + 1] - power) / slope;
      width = std::min(width, to_break);
    }
    if (width <= 1e-12) break;
    Chunk chunk;
    chunk.lambda_lo = lambda;
    chunk.lambda_hi = lambda + width;
    chunk.power_lo = power;
    chunk.power_slope = slope;
    chunk.price_slope = curve.slopes[k];
    chunk.price_intercept = curve.intercepts[k];
    const double prev_cost =
        chunks.empty() ? 0.0 : chunks.back().cost_at(chunks.back().lambda_hi);
    chunk.avg_price = (chunk.cost_at(chunk.lambda_hi) - prev_cost) / width;
    chunks.push_back(chunk);
    lambda += width;
    power += slope * width;
    remaining -= width;
  }
  return chunks;
}

/// Mutable fill state of one site during the greedy merge.
struct SiteFill {
  std::vector<Chunk> chunks;
  std::size_t next = 0;      ///< first not-fully-consumed chunk
  double lambda = 0.0;       ///< requests placed so far
  double cost = 0.0;         ///< believed $ at the current fill
  double power = 0.0;        ///< believed MW at the current fill

  bool exhausted() const noexcept { return next >= chunks.size(); }
  /// Price of the next marginal request (head-of-line chunk average for an
  /// untouched chunk, pure marginal price inside a started one).
  double head_price() const noexcept {
    const Chunk& c = chunks[next];
    if (lambda <= c.lambda_lo + 1e-12) return c.avg_price;
    return c.price_slope * c.power_slope;
  }
};

}  // namespace

AllocationResult fallback_allocate(std::span<const SiteModel> models,
                                   const FallbackRequest& request) {
  AllocationResult out;
  out.status = lp::SolveStatus::kOptimal;
  out.feasible = true;
  out.heuristic = true;
  out.sites.resize(models.size());

  std::vector<SiteFill> fills(models.size());
  for (std::size_t i = 0; i < models.size(); ++i)
    fills[i].chunks = make_chunks(models[i]);

  const double required = std::max(0.0, request.lambda_required);
  const double optional = std::max(0.0, request.lambda_optional);
  double total_cost = 0.0;
  double placed = 0.0;

  // Two passes over the same merge: the required load ignores the budget
  // (premium is sacrificed only to physics, never to money), the optional
  // load stops once the predicted bill would cross the budget.
  for (const bool budgeted : {false, true}) {
    double want = budgeted ? optional : required;
    while (want > 1e-9) {
      // Cheapest next marginal request across all sites, contiguously.
      std::size_t best = models.size();
      for (std::size_t i = 0; i < models.size(); ++i) {
        if (fills[i].exhausted()) continue;
        if (best == models.size() ||
            fills[i].head_price() < fills[best].head_price())
          best = i;
      }
      if (best == models.size()) break;  // capacity exhausted

      SiteFill& fill = fills[best];
      const Chunk& chunk = fill.chunks[fill.next];
      double target = std::min(chunk.lambda_hi, fill.lambda + want);
      if (budgeted) {
        // Largest lambda inside this chunk whose cost delta still fits.
        const double headroom = request.cost_budget - total_cost;
        const double delta = chunk.cost_at(target) - fill.cost;
        if (delta > headroom) {
          const double marginal = chunk.price_slope * chunk.power_slope;
          if (marginal <= 1e-15) {
            target = fill.lambda;  // jump alone busts the budget
          } else {
            const double jump = chunk.cost_at(std::max(fill.lambda,
                                                       chunk.lambda_lo)) -
                                fill.cost;
            const double room = headroom - std::max(jump, 0.0);
            target = room <= 0.0
                         ? fill.lambda
                         : std::min(target,
                                    std::max(fill.lambda, chunk.lambda_lo) +
                                        room / marginal);
          }
          if (target <= fill.lambda + 1e-12) break;  // budget exhausted
        }
      }
      const double taken = target - fill.lambda;
      if (taken <= 1e-12) break;
      const double new_cost = chunk.cost_at(target);
      total_cost += new_cost - fill.cost;
      fill.cost = new_cost;
      fill.power = chunk.power_at(target);
      fill.lambda = target;
      if (target >= chunk.lambda_hi - 1e-12) ++fill.next;
      placed += taken;
      want -= taken;
    }
  }

  for (std::size_t i = 0; i < models.size(); ++i) {
    SiteOutcome& site = out.sites[i];
    site.lambda = fills[i].lambda < 1e-3 ? 0.0 : fills[i].lambda;
    site.active = site.lambda > 0.0;
    site.power_mw = site.active ? fills[i].power : 0.0;
    site.cost = site.active ? fills[i].cost : 0.0;
    out.total_lambda += site.lambda;
    out.predicted_cost += site.cost;
  }
  return out;
}

}  // namespace billcap::core
