#include "core/baselines.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/cost_minimizer.hpp"
#include "core/cost_model.hpp"
#include "datacenter/catalog.hpp"
#include "market/pricing_policy.hpp"

namespace billcap::core {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  /// The Min-Only baseline's fault-free decision: minimum believed cost
  /// over its flat-priced, server-only models.
  AllocationResult min_only(double lambda, MinOnlyPriceModel model) const {
    return minimize_cost_over_models(
        min_only_site_models(sites_, policies_, model), lambda);
  }

  const std::vector<datacenter::DataCenter> sites_ =
      datacenter::paper_datacenters();
  const std::vector<market::PricingPolicy> policies_ =
      market::paper_policies(1);
  const std::vector<double> demand_ = {228.0, 182.0, 172.0};
};

TEST_F(BaselinesTest, BelievedModelsAreFlatPriced) {
  const auto models =
      min_only_site_models(sites_, policies_, MinOnlyPriceModel::kAverage);
  ASSERT_EQ(models.size(), 3u);
  for (std::size_t i = 0; i < models.size(); ++i) {
    // One price level only: the price-taker assumption.
    EXPECT_EQ(models[i].cost_curve.num_segments(), 1u);
    EXPECT_NEAR(models[i].cost_curve.slopes[0], policies_[i].average_price(),
                1e-9);
  }
}

TEST_F(BaselinesTest, LowBelievesTheLowestStep) {
  const auto models =
      min_only_site_models(sites_, policies_, MinOnlyPriceModel::kLow);
  for (std::size_t i = 0; i < models.size(); ++i)
    EXPECT_NEAR(models[i].cost_curve.slopes[0], policies_[i].min_price(),
                1e-9);
}

TEST_F(BaselinesTest, BelievesServerOnlyPower) {
  const auto models =
      min_only_site_models(sites_, policies_, MinOnlyPriceModel::kAverage);
  for (std::size_t i = 0; i < models.size(); ++i) {
    const auto full = sites_[i].affine_power();
    const auto servers = sites_[i].affine_server_power_only();
    EXPECT_NEAR(models[i].power_slope, servers.slope_mw_per_request_hour,
                1e-15);
    EXPECT_LT(models[i].power_slope, full.slope_mw_per_request_hour);
  }
}

TEST_F(BaselinesTest, EnforcesTruePowerCap) {
  // Despite the blind cost model, per-site power capping is measured:
  // the believed lambda_max keeps the *true* power within the cap.
  const auto models =
      min_only_site_models(sites_, policies_, MinOnlyPriceModel::kLow);
  for (std::size_t i = 0; i < models.size(); ++i) {
    const double true_power = sites_[i].power_mw(models[i].lambda_max);
    EXPECT_LE(true_power, sites_[i].spec().power_cap_mw * 1.001);
  }
}

TEST_F(BaselinesTest, ServesTheFullWorkload) {
  const double lambda = 8e11;
  for (auto model : {MinOnlyPriceModel::kAverage, MinOnlyPriceModel::kLow}) {
    const AllocationResult r = min_only(lambda, model);
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r.total_lambda / lambda, 1.0, 1e-6);
  }
}

TEST_F(BaselinesTest, UnderestimatesItsOwnBill) {
  // Both limitations bite: the belief is far below the ground truth.
  const double lambda = 8e11;
  const AllocationResult r = min_only(lambda, MinOnlyPriceModel::kLow);
  ASSERT_TRUE(r.ok());
  const GroundTruth truth =
      evaluate_allocation(sites_, policies_, demand_, r.lambda_vector());
  EXPECT_LT(r.predicted_cost, 0.8 * truth.total_cost);
}

TEST_F(BaselinesTest, NeverBeatsCostCappingAtGroundTruth) {
  // The paper's headline: the price-taker baseline pays more under the
  // real locational prices (Figure 3).
  for (double lambda : {4e11, 8e11, 1.2e12}) {
    const AllocationResult cc =
        minimize_cost(sites_, policies_, demand_, lambda);
    ASSERT_TRUE(cc.ok());
    const double cc_truth =
        evaluate_allocation(sites_, policies_, demand_, cc.lambda_vector())
            .total_cost;
    for (auto model : {MinOnlyPriceModel::kAverage, MinOnlyPriceModel::kLow}) {
      const AllocationResult mo = min_only(lambda, model);
      ASSERT_TRUE(mo.ok());
      const double mo_truth =
          evaluate_allocation(sites_, policies_, demand_, mo.lambda_vector())
              .total_cost;
      EXPECT_LE(cc_truth, mo_truth * 1.002)
          << "lambda " << lambda << " model " << static_cast<int>(model);
    }
  }
}

TEST_F(BaselinesTest, SizeMismatchThrows) {
  const std::vector<market::PricingPolicy> two = {policies_[0], policies_[1]};
  EXPECT_THROW(
      min_only_site_models(sites_, two, MinOnlyPriceModel::kAverage),
      std::invalid_argument);
}

}  // namespace
}  // namespace billcap::core
