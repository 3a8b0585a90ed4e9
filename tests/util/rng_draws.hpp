#pragma once

#include "util/rng.hpp"

namespace billcap::util {

/// Exponential draw with the given rate (> 0) from `rng`'s uniform stream:
/// the inter-event sampler of the discrete-event queueing oracle and the
/// sample source of the squared-CV tests. No production code draws one.
double exponential(Rng& rng, double rate) noexcept;

}  // namespace billcap::util
