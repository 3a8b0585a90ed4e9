#include "market/closed_loop.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "market/pjm5.hpp"

namespace billcap::market {

namespace {

/// L-inf distance between two iterates; mismatched sizes are maximally far
/// (never part of a cycle).
double linf(std::span<const double> a, std::span<const double> b) noexcept {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

/// OPF on an already faulted grid: bus load = background (scaled by the
/// hour's BackgroundDemandShock) + feedback_gain * site draw.
DcOpfResult solve_on(const Grid& working, const std::vector<int>& site_buses,
                     std::span<const double> site_power_mw,
                     std::span<const double> background_mw,
                     double feedback_gain, const CoupledHourFaults* faults) {
  std::vector<double> loads(static_cast<std::size_t>(working.num_buses()), 0.0);
  for (std::size_t i = 0; i < site_buses.size(); ++i) {
    const std::size_t bus = static_cast<std::size_t>(site_buses[i]);
    double mult = 1.0;
    if (faults != nullptr && bus < faults->bus_demand_multiplier.size())
      mult = faults->bus_demand_multiplier[bus];
    loads[bus] += background_mw[i] * mult + feedback_gain * site_power_mw[i];
  }
  return solve_dcopf(working, loads);
}

/// First index in (lo, hi] where `pred` holds, given !pred(lo), pred(hi)
/// and a predicate monotone in the index.
template <class Pred>
std::size_t first_true(std::size_t lo, std::size_t hi, Pred pred) {
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (pred(mid))
      hi = mid;
    else
      lo = mid;
  }
  return hi;
}

}  // namespace

OscillationDetector::OscillationDetector(std::size_t window, double tol_mw)
    : window_(std::max<std::size_t>(4, window)), tol_(tol_mw) {}

bool OscillationDetector::push(std::span<const double> iterate) {
  recent_.emplace_back(iterate.begin(), iterate.end());
  if (recent_.size() > window_) recent_.pop_front();
  period_ = 0;

  const std::size_t n = recent_.size();
  if (n < 4) return false;
  // A settling sequence must not fire: if the latest step is already within
  // tolerance the iteration is converging, not cycling.
  if (linf(recent_[n - 1], recent_[n - 2]) <= tol_) return false;

  for (std::size_t k = 2; 2 * k <= n; ++k) {
    bool cycle = true;
    // Two full periods: the last k entries must match the k before them.
    for (std::size_t j = 0; j < k && cycle; ++j)
      cycle = linf(recent_[n - 1 - j], recent_[n - 1 - j - k]) <= tol_;
    if (cycle) {
      period_ = k;
      return true;
    }
  }
  return false;
}

void OscillationDetector::reset() noexcept {
  recent_.clear();
  period_ = 0;
}

DampingLadder::DampingLadder(std::size_t deescalate_after)
    : deescalate_after_(std::max<std::size_t>(1, deescalate_after)) {}

void DampingLadder::on_hour(bool troubled) noexcept {
  if (troubled) {
    rung_ = std::min(kMaxRung, rung_ + 1);
    clean_streak_ = 0;
    return;
  }
  if (rung_ == 0) return;
  if (++clean_streak_ >= deescalate_after_) {
    --rung_;
    clean_streak_ = 0;
  }
}

bool CoupledHourFaults::nominal() const noexcept {
  for (std::uint8_t out : line_out)
    if (out) return false;
  for (double f : line_limit_factor)
    if (f != 1.0) return false;
  for (double m : bus_demand_multiplier)
    if (m != 1.0) return false;
  return true;
}

CoupledMarket::CoupledMarket(Grid grid, std::vector<int> site_buses)
    : grid_(std::move(grid)), site_buses_(std::move(site_buses)) {
  for (int bus : site_buses_)
    if (bus < 0 || bus >= grid_.num_buses())
      throw std::invalid_argument("CoupledMarket: site bus out of range");
}

CoupledMarket CoupledMarket::paper() {
  return CoupledMarket(pjm5_grid(), pjm5_load_buses());
}

Grid CoupledMarket::faulted_grid(const CoupledHourFaults* faults) const {
  if (faults == nullptr || faults->nominal()) return grid_;
  Grid out;
  for (int b = 0; b < grid_.num_buses(); ++b) out.add_bus(grid_.bus_name(b));
  for (int l = 0; l < grid_.num_lines(); ++l) {
    const std::size_t li = static_cast<std::size_t>(l);
    if (li < faults->line_out.size() && faults->line_out[li]) continue;
    const Line& line = grid_.line(l);
    double limit = line.limit_mw;
    // A derated line with no nominal limit stays unlimited (limit <= 0 is
    // the "no thermal constraint" convention, not a zero-MW line).
    if (limit > 0.0 && li < faults->line_limit_factor.size())
      limit *= std::max(0.0, faults->line_limit_factor[li]);
    out.add_line(line.name, line.from_bus, line.to_bus, line.reactance, limit);
  }
  for (const Generator& g : grid_.generators())
    out.add_generator(g.name, g.bus, g.capacity_mw, g.marginal_cost);
  return out;
}

DcOpfResult CoupledMarket::solve_at(std::span<const double> site_power_mw,
                                    std::span<const double> background_mw,
                                    double feedback_gain,
                                    const CoupledHourFaults* faults) const {
  if (site_power_mw.size() != site_buses_.size() ||
      background_mw.size() != site_buses_.size())
    throw std::invalid_argument("CoupledMarket::solve_at: size mismatch");
  return solve_on(faulted_grid(faults), site_buses_, site_power_mw,
                  background_mw, feedback_gain, faults);
}

std::vector<PricingPolicy> CoupledMarket::derive_local_policies(
    std::span<const double> site_power_mw, std::span<const double> background_mw,
    std::span<const double> billing_base_mw, std::span<const double> sweep_cap_mw,
    const ClosedLoopOptions& options, const CoupledHourFaults* faults) const {
  const std::size_t n = site_buses_.size();
  if (site_power_mw.size() != n || background_mw.size() != n ||
      billing_base_mw.size() != n || sweep_cap_mw.size() != n)
    throw std::invalid_argument(
        "CoupledMarket::derive_local_policies: size mismatch");
  // The collapse predicate is monotone in the draw only while the tolerance
  // dominates solver round-off.
  if (!(options.price_tol > 0.0))
    throw std::invalid_argument(
        "CoupledMarket::derive_local_policies: price_tol must be > 0");
  const double step = std::max(0.1, options.sweep_step_mw);
  const Grid working = faulted_grid(faults);

  std::vector<PricingPolicy> policies;
  policies.reserve(n);
  std::vector<double> point(site_power_mw.begin(), site_power_mw.end());
  for (std::size_t i = 0; i < n; ++i) {
    const double kept = point[i];
    const std::size_t bus = static_cast<std::size_t>(site_buses_[i]);
    // The own-draw grid, accumulated step by step rather than as k * step
    // so every draw (and threshold) is a linear sweep's to the last bit.
    std::vector<double> draws;
    for (double p = 0.0; p <= sweep_cap_mw[i] + 1e-9; p += step)
      draws.push_back(p);

    // One OPF per grid index at most, with the other sites pinned at the
    // operating point: the local price response the controller's next
    // decision sees.
    struct Sample {
      bool solved = false;
      bool ok = false;
      double lmp = 0.0;
    };
    std::vector<Sample> memo(draws.size());
    const auto sample = [&](std::size_t k) -> const Sample& {
      Sample& s = memo[k];
      if (!s.solved) {
        point[i] = draws[k];
        const DcOpfResult opf = solve_on(working, site_buses_, point,
                                         background_mw, options.feedback_gain,
                                         faults);
        s = {true, opf.ok(), opf.ok() ? opf.lmp[bus] : 0.0};
      }
      return s;
    };
    const auto infeasible_at = [&](std::size_t k) {
      return std::runtime_error(
          "CoupledMarket: OPF infeasible sweeping site " + std::to_string(i) +
          " at draw " + std::to_string(draws[k]) + " MW");
    };
    const auto lmp_at = [&](std::size_t k) {
      const Sample& s = sample(k);
      if (!s.ok) throw infeasible_at(k);
      return s.lmp;
    };

    std::vector<double> thresholds;
    std::vector<double> prices;
    if (!draws.empty()) {
      const std::size_t last = draws.size() - 1;
      thresholds.push_back(0.0);
      prices.push_back(lmp_at(0));
      // Feasible draws form an interval, so with both ends feasible every
      // grid draw is; otherwise name the first infeasible one.
      if (!sample(last).ok)
        throw infeasible_at(first_true(
            0, last, [&](std::size_t k) { return !sample(k).ok; }));
      // The LMP is monotone in the own draw, so "the price moved more than
      // price_tol off the current level" is false up to the next step and
      // true from it on: bisect for each step instead of visiting every
      // grid draw.
      const auto moved = [&](std::size_t k) {
        return std::abs(lmp_at(k) - prices.back()) > options.price_tol;
      };
      for (std::size_t level = 0; level < last && moved(last);) {
        level = first_true(level, last, moved);
        thresholds.push_back(billing_base_mw[i] + draws[level]);
        prices.push_back(memo[level].lmp);
      }
    }
    point[i] = kept;
    policies.emplace_back(std::move(thresholds), std::move(prices));
  }
  return policies;
}

PricingPolicy smooth_policy(const PricingPolicy& fresh,
                            const PricingPolicy& previous, double alpha) {
  const double a = std::clamp(alpha, 0.0, 1.0);
  std::vector<double> thresholds = fresh.thresholds_mw();
  std::vector<double> prices = fresh.prices_per_mwh();
  for (std::size_t k = 0; k < prices.size(); ++k)
    prices[k] = a * prices[k] + (1.0 - a) * previous.price_at(thresholds[k]);
  return PricingPolicy(std::move(thresholds), std::move(prices));
}

}  // namespace billcap::market
