#include "util/rng_draws.hpp"

#include <cmath>

namespace billcap::util {

double exponential(Rng& rng, double rate) noexcept {
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -std::log(1.0 - rng.uniform()) / rate;
}

}  // namespace billcap::util
