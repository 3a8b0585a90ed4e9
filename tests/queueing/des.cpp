#include "queueing/des.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/rng_draws.hpp"

namespace billcap::queueing {

namespace {

/// Draws nonnegative variates with a given mean and cv2.
class Sampler {
 public:
  Sampler(double mean, double cv2, util::Rng& rng)
      : mean_(mean), cv2_(cv2), rng_(rng),
        dist_(distribution_for_cv2(cv2)) {
    if (!(mean > 0.0)) throw std::invalid_argument("Sampler: mean must be > 0");
    if (cv2 < 0.0) throw std::invalid_argument("Sampler: cv2 must be >= 0");
    if (dist_ == Distribution::kHyperexponential) {
      // Balanced-means H2: with probability p use rate 2p/mean, else
      // 2(1-p)/mean;  p = (1 + sqrt((cv2-1)/(cv2+1)))/2 realizes cv2.
      p_ = 0.5 * (1.0 + std::sqrt((cv2 - 1.0) / (cv2 + 1.0)));
    } else if (dist_ == Distribution::kErlang) {
      phases_ = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::llround(1.0 / cv2)));
    }
  }

  double draw() {
    switch (dist_) {
      case Distribution::kDeterministic:
        return mean_;
      case Distribution::kExponential:
        return util::exponential(rng_, 1.0 / mean_);
      case Distribution::kHyperexponential: {
        const double rate = rng_.bernoulli(p_) ? 2.0 * p_ / mean_
                                               : 2.0 * (1.0 - p_) / mean_;
        return util::exponential(rng_, rate);
      }
      case Distribution::kErlang: {
        const double phase_rate = static_cast<double>(phases_) / mean_;
        double total = 0.0;
        for (std::uint64_t k = 0; k < phases_; ++k)
          total += util::exponential(rng_, phase_rate);
        return total;
      }
    }
    return mean_;
  }

 private:
  double mean_;
  double cv2_;
  util::Rng& rng_;
  Distribution dist_;
  double p_ = 0.5;
  std::uint64_t phases_ = 1;
};

}  // namespace

Distribution distribution_for_cv2(double cv2) noexcept {
  if (cv2 <= 1e-12) return Distribution::kDeterministic;
  if (std::abs(cv2 - 1.0) <= 1e-9) return Distribution::kExponential;
  return cv2 > 1.0 ? Distribution::kHyperexponential : Distribution::kErlang;
}

DesResult simulate_ggm(const DesConfig& config) {
  if (config.servers == 0)
    throw std::invalid_argument("simulate_ggm: need at least one server");
  if (!(config.arrival_rate > 0.0) || !(config.service_rate > 0.0))
    throw std::invalid_argument("simulate_ggm: rates must be > 0");
  if (config.arrival_rate >=
      static_cast<double>(config.servers) * config.service_rate)
    throw std::invalid_argument("simulate_ggm: unstable configuration");

  util::Rng rng(config.seed);
  Sampler arrivals(1.0 / config.arrival_rate, config.arrival_cv2, rng);
  Sampler services(1.0 / config.service_rate, config.service_cv2, rng);

  // Earliest-free-server discipline: a min-heap of server free times.
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (std::uint64_t s = 0; s < config.servers; ++s) free_at.push(0.0);

  DesResult result;
  double clock = 0.0;
  double wait_sum = 0.0;
  double response_sum = 0.0;
  double busy_sum = 0.0;
  double measure_start_time = 0.0;
  const std::size_t total = config.warmup + config.measured;
  for (std::size_t i = 0; i < total; ++i) {
    clock += arrivals.draw();
    const double service = services.draw();
    const double server_free = free_at.top();
    free_at.pop();
    const double start = std::max(clock, server_free);
    const double finish = start + service;
    free_at.push(finish);
    if (i == config.warmup) measure_start_time = clock;
    if (i >= config.warmup) {
      wait_sum += start - clock;
      response_sum += finish - clock;
      busy_sum += service;
      ++result.completed;
    }
  }
  if (result.completed > 0) {
    result.mean_wait = wait_sum / static_cast<double>(result.completed);
    result.mean_response =
        response_sum / static_cast<double>(result.completed);
    const double span = std::max(clock - measure_start_time, 1e-12);
    result.utilization =
        busy_sum / (span * static_cast<double>(config.servers));
  }
  return result;
}

}  // namespace billcap::queueing
