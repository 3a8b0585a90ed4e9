#include "datacenter/datacenter.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "datacenter/catalog.hpp"
#include "queueing/closed_forms.hpp"

namespace billcap::datacenter {
namespace {

class PaperSitesTest : public ::testing::TestWithParam<int> {
 protected:
  const DataCenter& site() const {
    static const std::vector<DataCenter> sites = paper_datacenters();
    return sites[static_cast<std::size_t>(GetParam())];
  }
};

TEST(CatalogTest, ThreeSitesWithPaperParameters) {
  const auto specs = paper_datacenter_specs();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "dc1-athlon");
  // Service rates: 500 / 300 / 725 requests per second, in hourly units.
  EXPECT_DOUBLE_EQ(specs[0].queue.service_rate, 500.0 * 3600);
  EXPECT_DOUBLE_EQ(specs[1].queue.service_rate, 300.0 * 3600);
  EXPECT_DOUBLE_EQ(specs[2].queue.service_rate, 725.0 * 3600);
  // Active-server power: the restored catalog wattages.
  for (std::size_t i = 0; i < 3; ++i) {
    const DataCenter dc(specs[i]);
    const double expected = (i == 0) ? 88.88 : (i == 1) ? 134.0 : 149.9;
    EXPECT_NEAR(dc.active_server_watts(), expected, 1e-9) << "site " << i;
    EXPECT_EQ(specs[i].max_servers, 300'000u);
  }
  // Cooling efficiencies 1.94 / 1.39 / 1.74.
  EXPECT_DOUBLE_EQ(specs[0].cooling.coe(), 1.94);
  EXPECT_DOUBLE_EQ(specs[1].cooling.coe(), 1.39);
  EXPECT_DOUBLE_EQ(specs[2].cooling.coe(), 1.74);
}

TEST(DataCenterTest, ConstructorValidation) {
  DataCenterSpec spec = paper_datacenter_specs()[0];
  spec.max_servers = 0;
  EXPECT_THROW(DataCenter{spec}, std::invalid_argument);

  spec = paper_datacenter_specs()[0];
  spec.max_servers = spec.topology.total_hosts() + 1;
  EXPECT_THROW(DataCenter{spec}, std::invalid_argument);

  spec = paper_datacenter_specs()[0];
  spec.power_cap_mw = 0.0;
  EXPECT_THROW(DataCenter{spec}, std::invalid_argument);

  spec = paper_datacenter_specs()[0];
  spec.operating_utilization = 1.5;
  EXPECT_THROW(DataCenter{spec}, std::invalid_argument);
}

TEST_P(PaperSitesTest, ZeroLoadMeansPoweredOff) {
  EXPECT_EQ(site().servers_for(0.0), 0u);
  EXPECT_DOUBLE_EQ(site().power_mw(0.0), 0.0);
}

TEST_P(PaperSitesTest, ServersScaleWithLoad) {
  const double lambda = 1e11;
  const std::uint64_t n1 = site().servers_for(lambda);
  const std::uint64_t n2 = site().servers_for(2 * lambda);
  EXPECT_GT(n1, 0u);
  EXPECT_GT(n2, n1);
  // Near-proportional at scale.
  EXPECT_NEAR(static_cast<double>(n2) / static_cast<double>(n1), 2.0, 0.01);
}

TEST_P(PaperSitesTest, ResponseTimeMeetsTarget) {
  // The local optimizer's server count meets the set point under the
  // paper's G/G/m model (eq. 3).
  for (double lambda : {1e9, 5e10, 2e11}) {
    const double n = static_cast<double>(site().servers_for(lambda));
    EXPECT_LE(queueing::allen_cunneen_response_time(site().spec().queue, n,
                                                    lambda),
              site().spec().response_target_hours + 1e-15)
        << "lambda " << lambda;
  }
}

TEST_P(PaperSitesTest, PowerBreakdownComposition) {
  const auto breakdown = site().power_breakdown(1e11);
  EXPECT_GT(breakdown.server_mw, 0.0);
  EXPECT_GT(breakdown.network_mw, 0.0);
  EXPECT_GT(breakdown.cooling_mw, 0.0);
  // Cooling = (server + network) / coe exactly (eq. 7).
  EXPECT_NEAR(breakdown.cooling_mw,
              (breakdown.server_mw + breakdown.network_mw) /
                  site().spec().cooling.coe(),
              1e-9);
  // Servers dominate IT power; network is single-digit percent.
  EXPECT_LT(breakdown.network_mw, 0.15 * breakdown.server_mw);
}

TEST_P(PaperSitesTest, AffineModelTracksExactPower) {
  const auto affine = site().affine_power();
  for (double lambda : {2e10, 1e11, 3e11}) {
    if (lambda > site().max_requests_per_hour()) continue;
    const double exact = site().power_mw(lambda);
    const double approx =
        affine.slope_mw_per_request_hour * lambda + affine.intercept_mw;
    EXPECT_NEAR(approx / exact, 1.0, 0.005) << "lambda " << lambda;
  }
}

TEST_P(PaperSitesTest, ServerOnlyModelUnderestimates) {
  // The Min-Only belief misses cooling + networking: roughly the cooling
  // overhead factor of underestimation.
  const auto full = site().affine_power();
  const auto servers_only = site().affine_server_power_only();
  EXPECT_LT(servers_only.slope_mw_per_request_hour,
            full.slope_mw_per_request_hour);
  const double ratio = full.slope_mw_per_request_hour /
                       servers_only.slope_mw_per_request_hour;
  EXPECT_GT(ratio, site().spec().cooling.overhead_factor() * 0.99);
}

TEST_P(PaperSitesTest, MaxRequestsConsistentWithServerCap) {
  const double lambda_max = site().max_requests_per_hour();
  EXPECT_GT(lambda_max, 0.0);
  // At lambda_max the fractional requirement equals max_servers.
  EXPECT_EQ(site().servers_for(lambda_max), site().spec().max_servers);
  EXPECT_THROW(site().servers_for(lambda_max * 1.01), std::invalid_argument);
}

TEST_P(PaperSitesTest, PowerCapTightensCapacity) {
  EXPECT_LE(site().max_requests_within_power_cap(),
            site().max_requests_per_hour());
  // At the power-cap-limited load, power is within the cap (affine), and
  // the exact model agrees within the ceiling error.
  const double lambda = site().max_requests_within_power_cap();
  EXPECT_LE(site().power_mw(lambda), site().spec().power_cap_mw * 1.001);
}

TEST_P(PaperSitesTest, CloudScalePowerIsTensOfMw) {
  // "cloud-scale data centers ... can draw tens to hundreds of megawatts".
  const double peak = site().power_mw(site().max_requests_per_hour());
  EXPECT_GT(peak, 20.0);
  EXPECT_LT(peak, 200.0);
}

INSTANTIATE_TEST_SUITE_P(AllSites, PaperSitesTest, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace billcap::datacenter
