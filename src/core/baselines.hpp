#pragma once

#include <vector>

#include "core/formulation.hpp"

namespace billcap::core {

/// How the Min-Only baseline flattens the real step prices into the
/// constant price it believes in (Section VII-A).
enum class MinOnlyPriceModel {
  kAverage,  ///< Min-Only (Avg): mean of the policy's level prices
  kLow,      ///< Min-Only (Low): lowest level price
};

/// The believed site models of the state-of-the-art baseline ([2], as
/// characterized in Section VII-A): an optimization-based cost minimizer
/// that (1) treats the data centers as price takers — a constant
/// locational price unaffected by its own routing — and (2) models only
/// server power, ignoring cooling and networking. It never looks at a
/// budget. The Min-Only hour (Simulator::run) minimizes cost over these
/// beliefs and bills the allocation through core::evaluate_allocation,
/// which is where the 17.9 % / 33.5 % gaps of Figure 3 come from.
std::vector<SiteModel> min_only_site_models(
    const std::vector<datacenter::DataCenter>& sites,
    const std::vector<market::PricingPolicy>& policies,
    MinOnlyPriceModel price_model);

}  // namespace billcap::core
