#include "core/fault_injector.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace billcap::core {

namespace {

/// Uniform integer duration in [1, 2*mean - 1] (mean preserved, never 0).
std::size_t draw_duration(util::Rng& rng, std::size_t mean_hours) {
  const std::size_t mean = std::max<std::size_t>(1, mean_hours);
  return 1 + static_cast<std::size_t>(rng.below(2 * mean - 1));
}

}  // namespace

FaultPlan generate_fault_plan(const FaultRates& rates,
                              std::size_t horizon_hours,
                              std::size_t num_sites, std::uint64_t seed) {
  FaultPlan plan;
  // One independent stream per fault kind, so enabling one kind never
  // shifts the draws of another (rate sweeps stay comparable).
  util::Rng outage_rng(seed ^ 0x6f75746167655ULL);
  util::Rng stale_rng(seed ^ 0x7374616c65ULL);
  util::Rng shock_rng(seed ^ 0x73686f636bULL);
  util::Rng squeeze_rng(seed ^ 0x73717565657aULL);
  util::Rng crash_rng(seed ^ 0x6372617368ULL);

  for (std::size_t h = 0; h < horizon_hours; ++h) {
    for (std::size_t s = 0; s < num_sites; ++s) {
      if (rates.outage_rate > 0.0 && outage_rng.bernoulli(rates.outage_rate))
        plan.outages.push_back(
            {s, h, draw_duration(outage_rng, rates.outage_mean_hours)});
      if (rates.shock_rate > 0.0 && shock_rng.bernoulli(rates.shock_rate))
        plan.demand_shocks.push_back(
            {s, h, draw_duration(shock_rng, rates.shock_mean_hours),
             rates.shock_multiplier});
    }
    if (rates.stale_rate > 0.0 && stale_rng.bernoulli(rates.stale_rate))
      plan.stale_intervals.push_back(
          {h, draw_duration(stale_rng, rates.stale_mean_hours)});
    if (rates.squeeze_rate > 0.0 && squeeze_rng.bernoulli(rates.squeeze_rate))
      plan.deadline_squeezes.push_back(
          {h, draw_duration(squeeze_rng, rates.squeeze_mean_hours),
           kDrawnSqueezeNodes});
    // Half the crashes strike before the hour's checkpoint commits (the
    // resume recomputes the hour), half after — exercising both recovery
    // paths in rate-driven sweeps.
    if (rates.crash_rate > 0.0 && crash_rng.bernoulli(rates.crash_rate))
      plan.crashes.push_back({h, crash_rng.bernoulli(0.5)});
  }
  return plan;
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::size_t num_sites,
                             std::size_t horizon_hours)
    : FaultInjector(plan, num_sites, 0, horizon_hours) {}

FaultInjector::FaultInjector(const FaultPlan& plan, std::size_t num_sites,
                             std::size_t num_regions,
                             std::size_t horizon_hours)
    : enabled_(!plan.empty()),
      num_sites_(num_sites),
      num_regions_(num_regions),
      horizon_(horizon_hours) {
  if (!enabled_) return;
  down_.assign(num_sites_ * horizon_, 0);
  multiplier_.assign(num_sites_ * horizon_, 1.0);
  squeeze_nodes_.assign(horizon_, 0);
  arrival_mult_.assign(horizon_, 1.0);
  burst_updates_.assign(horizon_, 0);
  observed_hour_.resize(horizon_);
  for (std::size_t h = 0; h < horizon_; ++h) observed_hour_[h] = h;

  const auto clip_end = [this](std::size_t start, std::size_t duration) {
    return std::min(horizon_, start + duration);
  };

  for (const auto& outage : plan.outages) {
    if (outage.site >= num_sites_) continue;
    for (std::size_t h = outage.start_hour;
         h < clip_end(outage.start_hour, outage.duration_hours); ++h)
      down_[outage.site * horizon_ + h] = 1;
  }
  for (const auto& shock : plan.demand_shocks) {
    if (shock.site >= num_sites_) continue;
    for (std::size_t h = shock.start_hour;
         h < clip_end(shock.start_hour, shock.duration_hours); ++h)
      multiplier_[shock.site * horizon_ + h] *= shock.multiplier;
  }
  for (const auto& stale : plan.stale_intervals) {
    // The feed shows the last hour seen before the interval began; an
    // interval starting at hour 0 pins the whole stretch to hour 0's data.
    const std::size_t seen =
        stale.start_hour == 0 ? 0 : stale.start_hour - 1;
    for (std::size_t h = stale.start_hour;
         h < clip_end(stale.start_hour, stale.duration_hours); ++h)
      observed_hour_[h] = std::min(observed_hour_[h], seen);
  }
  for (const auto& crowd : plan.flash_crowds) {
    if (crowd.multiplier <= 0.0) continue;
    for (std::size_t h = crowd.start_hour;
         h < clip_end(crowd.start_hour, crowd.duration_hours); ++h)
      arrival_mult_[h] *= crowd.multiplier;
  }
  for (const auto& burst : plan.feed_bursts) {
    for (std::size_t h = burst.start_hour;
         h < clip_end(burst.start_hour, burst.duration_hours); ++h)
      burst_updates_[h] += burst.updates_per_tick;
  }
  for (const auto& squeeze : plan.deadline_squeezes) {
    if (squeeze.node_budget <= 0) continue;
    for (std::size_t h = squeeze.start_hour;
         h < clip_end(squeeze.start_hour, squeeze.duration_hours); ++h) {
      long& slot = squeeze_nodes_[h];
      slot = slot == 0 ? squeeze.node_budget
                       : std::min(slot, squeeze.node_budget);
    }
  }

  // Grid-side kinds: arrays sized by the largest index the plan names, so
  // plans for any grid shape fit without the injector knowing the grid.
  for (const auto& outage : plan.line_outages)
    num_lines_ = std::max(num_lines_, outage.line + 1);
  for (const auto& spike : plan.congestion_spikes)
    num_lines_ = std::max(num_lines_, spike.line + 1);
  for (const auto& shock : plan.grid_demand_shocks)
    num_buses_ = std::max(num_buses_, shock.bus + 1);
  if (num_lines_ > 0 || num_buses_ > 0) {
    grid_faulted_.assign(horizon_, 0);
    line_out_.assign(num_lines_ * horizon_, 0);
    line_factor_.assign(num_lines_ * horizon_, 1.0);
    bus_mult_.assign(num_buses_ * horizon_, 1.0);
    for (const auto& outage : plan.line_outages) {
      for (std::size_t h = outage.start_hour;
           h < clip_end(outage.start_hour, outage.duration_hours); ++h) {
        line_out_[outage.line * horizon_ + h] = 1;
        grid_faulted_[h] = 1;
      }
    }
    for (const auto& spike : plan.congestion_spikes) {
      if (spike.limit_factor < 0.0) continue;
      for (std::size_t h = spike.start_hour;
           h < clip_end(spike.start_hour, spike.duration_hours); ++h) {
        double& slot = line_factor_[spike.line * horizon_ + h];
        slot = std::min(slot, spike.limit_factor);
        grid_faulted_[h] = 1;
      }
    }
    for (const auto& shock : plan.grid_demand_shocks) {
      if (shock.multiplier <= 0.0) continue;
      for (std::size_t h = shock.start_hour;
           h < clip_end(shock.start_hour, shock.duration_hours); ++h) {
        bus_mult_[shock.bus * horizon_ + h] *= shock.multiplier;
        grid_faulted_[h] = 1;
      }
    }
  }

  if (num_regions_ == 0) return;
  region_down_.assign(num_regions_ * horizon_, 0);
  stall_nodes_.assign(num_regions_ * horizon_, 0);
  squeeze_bytes_.assign(num_regions_ * horizon_, 0);
  for (const auto& outage : plan.region_outages) {
    if (outage.region >= num_regions_) continue;
    for (std::size_t h = outage.start_hour;
         h < clip_end(outage.start_hour, outage.duration_hours); ++h)
      region_down_[outage.region * horizon_ + h] = 1;
  }
  for (const auto& stall : plan.chunk_stalls) {
    if (stall.region >= num_regions_ || stall.node_budget <= 0) continue;
    for (std::size_t h = stall.start_hour;
         h < clip_end(stall.start_hour, stall.duration_hours); ++h) {
      long& slot = stall_nodes_[stall.region * horizon_ + h];
      slot = slot == 0 ? stall.node_budget : std::min(slot, stall.node_budget);
    }
  }
  for (const auto& squeeze : plan.chunk_squeezes) {
    if (squeeze.region >= num_regions_ || squeeze.arena_bytes == 0) continue;
    for (std::size_t h = squeeze.start_hour;
         h < clip_end(squeeze.start_hour, squeeze.duration_hours); ++h) {
      std::size_t& slot = squeeze_bytes_[squeeze.region * horizon_ + h];
      slot = slot == 0 ? squeeze.arena_bytes
                       : std::min(slot, squeeze.arena_bytes);
    }
  }
}

bool FaultInjector::site_available(std::size_t site,
                                   std::size_t hour) const noexcept {
  if (!enabled_ || site >= num_sites_ || hour >= horizon_) return true;
  return down_[site * horizon_ + hour] == 0;
}

std::size_t FaultInjector::sites_down(std::size_t hour) const noexcept {
  if (!enabled_ || hour >= horizon_) return 0;
  std::size_t count = 0;
  for (std::size_t s = 0; s < num_sites_; ++s)
    count += down_[s * horizon_ + hour];
  return count;
}

bool FaultInjector::prices_stale(std::size_t hour) const noexcept {
  return observed_market_hour(hour) != hour;
}

std::size_t FaultInjector::observed_market_hour(
    std::size_t hour) const noexcept {
  if (!enabled_ || hour >= horizon_) return hour;
  return observed_hour_[hour];
}

double FaultInjector::demand_multiplier(std::size_t site,
                                        std::size_t hour) const noexcept {
  if (!enabled_ || site >= num_sites_ || hour >= horizon_) return 1.0;
  return multiplier_[site * horizon_ + hour];
}

long FaultInjector::solver_node_budget(std::size_t hour) const noexcept {
  if (!enabled_ || hour >= horizon_) return 0;
  return squeeze_nodes_[hour];
}

double FaultInjector::arrival_multiplier(std::size_t hour) const noexcept {
  if (!enabled_ || hour >= horizon_) return 1.0;
  return arrival_mult_[hour];
}

std::size_t FaultInjector::feed_burst_updates(std::size_t hour) const noexcept {
  if (!enabled_ || hour >= horizon_) return 0;
  return burst_updates_[hour];
}

bool FaultInjector::region_down(std::size_t region,
                                std::size_t hour) const noexcept {
  if (region_down_.empty() || region >= num_regions_ || hour >= horizon_)
    return false;
  return region_down_[region * horizon_ + hour] != 0;
}

long FaultInjector::chunk_node_budget(std::size_t region,
                                      std::size_t hour) const noexcept {
  if (stall_nodes_.empty() || region >= num_regions_ || hour >= horizon_)
    return 0;
  return stall_nodes_[region * horizon_ + hour];
}

std::size_t FaultInjector::chunk_arena_bytes(std::size_t region,
                                             std::size_t hour) const noexcept {
  if (squeeze_bytes_.empty() || region >= num_regions_ || hour >= horizon_)
    return 0;
  return squeeze_bytes_[region * horizon_ + hour];
}

bool FaultInjector::line_out(std::size_t line, std::size_t hour) const noexcept {
  if (line_out_.empty() || line >= num_lines_ || hour >= horizon_) return false;
  return line_out_[line * horizon_ + hour] != 0;
}

double FaultInjector::line_limit_factor(std::size_t line,
                                        std::size_t hour) const noexcept {
  if (line_factor_.empty() || line >= num_lines_ || hour >= horizon_)
    return 1.0;
  return line_factor_[line * horizon_ + hour];
}

double FaultInjector::bus_demand_multiplier(std::size_t bus,
                                            std::size_t hour) const noexcept {
  if (bus_mult_.empty() || bus >= num_buses_ || hour >= horizon_) return 1.0;
  return bus_mult_[bus * horizon_ + hour];
}

bool FaultInjector::grid_faulted(std::size_t hour) const noexcept {
  if (grid_faulted_.empty() || hour >= horizon_) return false;
  return grid_faulted_[hour] != 0;
}

}  // namespace billcap::core
