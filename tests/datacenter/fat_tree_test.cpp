#include "datacenter/fat_tree.hpp"

#include <gtest/gtest.h>

namespace billcap::datacenter {
namespace {

TEST(FatTreeTest, CanonicalK4Counts) {
  // The textbook k = 4 fat-tree: 16 hosts, 8 edge, 8 agg, 4 core.
  const FatTree t(4);
  EXPECT_EQ(t.total_hosts(), 16u);
  const auto full = t.active_switches(t.total_hosts());
  EXPECT_EQ(full.edge, 8u);
  EXPECT_EQ(full.aggregation, 8u);
  EXPECT_EQ(t.core_switches_total(), 4u);
  EXPECT_EQ(t.hosts_per_edge_switch(), 2u);
  EXPECT_EQ(t.hosts_per_pod(), 4u);
}

TEST(FatTreeTest, PaperScaleK108HostsThreeHundredThousand) {
  const FatTree t(108);
  EXPECT_EQ(t.total_hosts(), 314'928u);
  EXPECT_GE(t.total_hosts(), 300'000u);  // fits the catalog's max_servers
}

TEST(FatTreeTest, RejectsOddOrTinyK) {
  EXPECT_THROW(FatTree(3), std::invalid_argument);
  EXPECT_THROW(FatTree(0), std::invalid_argument);
  EXPECT_NO_THROW(FatTree(2));
}

TEST(FatTreeTest, ZeroServersZeroSwitches) {
  const FatTree t(8);
  const auto active = t.active_switches(0);
  EXPECT_EQ(active.edge, 0u);
  EXPECT_EQ(active.aggregation, 0u);
  EXPECT_EQ(active.core, 0u);
}

TEST(FatTreeTest, FullFabricAllSwitchesOn) {
  // k = 8: k pods of k/2 edge and k/2 aggregation switches each.
  const FatTree t(8);
  const auto active = t.active_switches(t.total_hosts());
  EXPECT_EQ(active.edge, 32u);
  EXPECT_EQ(active.aggregation, 32u);
  EXPECT_EQ(active.core, t.core_switches_total());
}

TEST(FatTreeTest, ActiveCountsMonotone) {
  const FatTree t(8);
  FatTree::ActiveSwitches prev;
  for (std::uint64_t n = 0; n <= t.total_hosts(); n += 7) {
    const auto cur = t.active_switches(n);
    EXPECT_GE(cur.edge, prev.edge);
    EXPECT_GE(cur.aggregation, prev.aggregation);
    EXPECT_GE(cur.core, prev.core);
    prev = cur;
  }
}

TEST(FatTreeTest, OneServerNeedsMinimalFootprint) {
  const FatTree t(8);
  const auto active = t.active_switches(1);
  EXPECT_EQ(active.edge, 1u);
  EXPECT_EQ(active.aggregation, t.k() / 2);  // one pod's aggregation layer
  EXPECT_EQ(active.core, 1u);
}

TEST(FatTreeTest, RejectsOverCapacity) {
  const FatTree t(4);
  EXPECT_THROW(t.active_switches(17), std::invalid_argument);
}

TEST(FatTreeTest, RatiosMatchTotalsAtFullLoad) {
  // k = 16: 16 pods of 8 edge and 8 aggregation switches each.
  const FatTree t(16);
  const auto r = t.switch_ratios();
  const double hosts = static_cast<double>(t.total_hosts());
  EXPECT_NEAR(r.edge_per_server * hosts, 128.0, 1e-9);
  EXPECT_NEAR(r.aggregation_per_server * hosts, 128.0, 1e-9);
  EXPECT_NEAR(r.core_per_server * hosts,
              static_cast<double>(t.core_switches_total()), 1e-9);
}

TEST(NetworkPowerTest, ZeroAtZeroServers) {
  const FatTree t(8);
  const SwitchPowers p{84.0, 84.0, 240.0};
  EXPECT_DOUBLE_EQ(network_power_watts(t, p, 0), 0.0);
}

TEST(NetworkPowerTest, FullFabricMatchesHandComputation) {
  const FatTree t(4);
  const SwitchPowers p{10.0, 20.0, 30.0};
  // 8 edge * 10 + 8 agg * 20 + 4 core * 30 = 80 + 160 + 120.
  EXPECT_DOUBLE_EQ(network_power_watts(t, p, 16), 360.0);
}

TEST(NetworkPowerTest, ContinuousSlopeApproximatesExactAtScale) {
  // At cloud scale the ceilinged switch counts and the continuous ratio
  // agree to ~2 % (pod-granular aggregation switching is the coarsest
  // step) — the MILP's affine model is sound.
  const FatTree t(108);
  const SwitchPowers p{84.0, 84.0, 240.0};
  const double slope = network_watts_per_server(t, p);
  for (std::uint64_t n : {50'000ull, 150'000ull, 300'000ull}) {
    const double exact = network_power_watts(t, p, n);
    const double approx = slope * static_cast<double>(n);
    EXPECT_NEAR(approx / exact, 1.0, 0.02) << "n = " << n;
  }
}

TEST(NetworkPowerTest, PerServerSlopePositive) {
  const FatTree t(108);
  const SwitchPowers p{70.0, 70.0, 260.0};
  EXPECT_GT(network_watts_per_server(t, p), 0.0);
  EXPECT_LT(network_watts_per_server(t, p), 20.0);  // a few W per server
}

}  // namespace
}  // namespace billcap::datacenter
