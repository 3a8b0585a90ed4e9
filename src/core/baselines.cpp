#include "core/baselines.hpp"

#include <algorithm>
#include <stdexcept>

namespace billcap::core {

std::vector<SiteModel> min_only_site_models(
    const std::vector<datacenter::DataCenter>& sites,
    const std::vector<market::PricingPolicy>& policies,
    MinOnlyPriceModel price_model) {
  if (sites.size() != policies.size())
    throw std::invalid_argument("min_only_site_models: size mismatch");
  std::vector<SiteModel> models;
  models.reserve(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const double believed_price = price_model == MinOnlyPriceModel::kAverage
                                      ? policies[i].average_price()
                                      : policies[i].min_price();
    // Flat price => the background demand is irrelevant to the belief.
    SiteModel model = make_site_model(
        sites[i], market::PricingPolicy::flat(believed_price),
        /*other_demand_mw=*/0.0, /*model_cooling_network=*/false);
    // Per-site power capping is feedback-based (measured draw, Fan et al.
    // [12]) and is enforced by prior work too — only the *cost* model is
    // blind to cooling/networking. Respect the true cap, with the same
    // safety margin the capper uses.
    model.lambda_max = std::min(
        model.lambda_max, sites[i].max_requests_within_power_cap() * 0.999);
    models.push_back(std::move(model));
  }
  return models;
}

}  // namespace billcap::core
