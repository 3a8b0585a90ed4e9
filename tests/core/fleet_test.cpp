// FleetController: Section IX's two-level capping (regional split, premium
// guarantee, gap to the flat capper), per-chunk fault envelopes,
// quarantine ladder, and bitwise thread-count invariance. The fixture is a
// 6-site network in two regions; the invariance test scales to 100 sites /
// 20 regions.
#include "core/fleet.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "datacenter/catalog.hpp"
#include "market/pricing_policy.hpp"
#include "util/thread_pool.hpp"

namespace billcap::core {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  FleetTest() {
    const auto base_sites = datacenter::paper_datacenters();
    const auto base_policies = market::paper_policies(1);
    for (int rep = 0; rep < 2; ++rep) {
      for (std::size_t i = 0; i < base_sites.size(); ++i) {
        sites_.push_back(base_sites[i]);
        policies_.push_back(base_policies[i]);
        demand_.push_back(170.0 + 25.0 * rep + 10.0 * static_cast<double>(i));
      }
    }
  }

  FleetController make_controller(FleetOptions options = {},
                                  util::ThreadPool* pool = nullptr) {
    return FleetController(sites_, policies_, contiguous_regions(6, 3),
                           options, pool);
  }

  std::vector<datacenter::DataCenter> sites_;
  std::vector<market::PricingPolicy> policies_;
  std::vector<double> demand_;
};

TEST_F(FleetTest, ServesEverythingWithAmpleBudget) {
  FleetController fleet = make_controller();
  const FleetHourOutcome out = fleet.decide_hour(0, 8e11, 2e11, demand_, 1e7);
  EXPECT_EQ(out.mode, CappingOutcome::Mode::kUncapped);
  EXPECT_NEAR(out.served_premium, 8e11, 1e3);
  EXPECT_NEAR(out.served_ordinary, 2e11, 1e3);
  ASSERT_EQ(out.chunks.size(), 2u);
  for (const ChunkOutcome& chunk : out.chunks)
    EXPECT_EQ(chunk.status, ChunkStatus::kOk);
  EXPECT_EQ(out.degraded_chunks, 0u);
  EXPECT_EQ(out.quarantined_chunks, 0u);
  EXPECT_EQ(out.region_down_chunks, 0u);
}

TEST(ContiguousRegionsTest, PartitionsEvenly) {
  const auto regions = contiguous_regions(6, 3);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].site_indices, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(regions[1].site_indices, (std::vector<std::size_t>{3, 4, 5}));
}

TEST(ContiguousRegionsTest, HandlesRemainder) {
  const auto regions = contiguous_regions(7, 3);
  ASSERT_EQ(regions.size(), 3u);
  EXPECT_EQ(regions[2].site_indices.size(), 1u);
  EXPECT_THROW(contiguous_regions(5, 0), std::invalid_argument);
}

// Section IX's two-level capping properties, on the inline (null-pool)
// controller.
using HierarchicalTest = FleetTest;

TEST_F(HierarchicalTest, ConstructorValidation) {
  EXPECT_NO_THROW(
      FleetController(sites_, policies_, contiguous_regions(6, 3)));
  // Uncovered site.
  std::vector<Region> missing = {{"r0", {0, 1, 2}}, {"r1", {3, 4}}};
  EXPECT_THROW(FleetController(sites_, policies_, missing),
               std::invalid_argument);
  // Duplicate site.
  std::vector<Region> duplicate = {{"r0", {0, 1, 2, 3}}, {"r1", {3, 4, 5}}};
  EXPECT_THROW(FleetController(sites_, policies_, duplicate),
               std::invalid_argument);
  // Site index out of range.
  std::vector<Region> out_of_range = {{"r0", {0, 1, 2}}, {"r1", {3, 4, 6}}};
  EXPECT_THROW(FleetController(sites_, policies_, out_of_range),
               std::invalid_argument);
  // Empty region.
  std::vector<Region> empty = {{"r0", {0, 1, 2, 3, 4, 5}}, {"r1", {}}};
  EXPECT_THROW(FleetController(sites_, policies_, empty),
               std::invalid_argument);
  // One policy per site.
  const std::vector<market::PricingPolicy> short_policies(
      policies_.begin(), policies_.end() - 1);
  EXPECT_THROW(
      FleetController(sites_, short_policies, contiguous_regions(6, 3)),
      std::invalid_argument);
}

TEST_F(HierarchicalTest, ServesEverythingWithAmpleBudget) {
  FleetController fleet = make_controller();
  const FleetHourOutcome out =
      fleet.decide_hour(0, 8e11, 2e11, demand_, /*hourly_budget=*/1e7);
  EXPECT_EQ(out.mode, CappingOutcome::Mode::kUncapped);
  EXPECT_NEAR(out.served_premium, 8e11, 1e3);
  EXPECT_NEAR(out.served_ordinary, 2e11, 1e3);
  ASSERT_EQ(out.chunks.size(), 2u);
  // Each region serves its share of both classes in full.
  double premium = 0.0;
  double ordinary = 0.0;
  for (const ChunkOutcome& chunk : out.chunks) {
    EXPECT_EQ(chunk.outcome.mode, CappingOutcome::Mode::kUncapped)
        << chunk.region;
    premium += chunk.outcome.served_premium;
    ordinary += chunk.outcome.served_ordinary;
  }
  EXPECT_EQ(premium, out.served_premium);
  EXPECT_EQ(ordinary, out.served_ordinary);
}

TEST_F(HierarchicalTest, SiteLambdaCoversGlobalOrder) {
  FleetController fleet = make_controller();
  const FleetHourOutcome out = fleet.decide_hour(0, 8e11, 2e11, demand_, 1e7);
  ASSERT_EQ(out.site_lambda.size(), 6u);
  double total = 0.0;
  for (double l : out.site_lambda) total += l;
  EXPECT_NEAR(total, out.served_premium + out.served_ordinary,
              1e-3 * total);
  // Each region's rates land on its own sites, in region-local order.
  for (std::size_t r = 0; r < 2; ++r) {
    const auto lambdas = out.chunks[r].outcome.allocation.lambda_vector();
    for (std::size_t k = 0; k < 3; ++k)
      EXPECT_EQ(out.site_lambda[3 * r + k], lambdas[k]) << r << ' ' << k;
  }
  // The allocation must bill consistently at global ground truth.
  const GroundTruth truth =
      evaluate_allocation(sites_, policies_, demand_, out.site_lambda);
  EXPECT_NEAR(truth.total_cost / out.predicted_cost, 1.0, 0.02);
}

TEST_F(HierarchicalTest, PremiumGuaranteeSurvivesDecentralization) {
  FleetController fleet = make_controller();
  for (double budget : {200.0, 1000.0, 4000.0}) {
    const FleetHourOutcome out =
        fleet.decide_hour(0, 8e11, 2e11, demand_, budget);
    EXPECT_NEAR(out.served_premium, 8e11, 1e3) << "budget " << budget;
  }
}

TEST_F(HierarchicalTest, TightBudgetThrottlesOrdinary) {
  FleetController fleet = make_controller();
  const FleetHourOutcome free_run =
      fleet.decide_hour(0, 8e11, 2e11, demand_, 1e7);
  const FleetHourOutcome capped = fleet.decide_hour(
      1, 8e11, 2e11, demand_, free_run.predicted_cost * 0.9);
  EXPECT_LT(capped.served_ordinary, 2e11);
  EXPECT_NE(capped.mode, CappingOutcome::Mode::kUncapped);
}

TEST_F(HierarchicalTest, NearOptimalVsFlatCapper) {
  // Decentralization loses some coordination; the gap against the flat
  // capper must stay small for a balanced network.
  const BillCapper flat(sites_, policies_);
  FleetController fleet = make_controller();
  const double premium = 9e11;
  const double ordinary = 2.2e11;
  const CappingOutcome flat_out =
      flat.decide(premium, ordinary, demand_, 1e7);
  const FleetHourOutcome fleet_out =
      fleet.decide_hour(0, premium, ordinary, demand_, 1e7);
  const double flat_cost =
      evaluate_allocation(sites_, policies_, demand_,
                          flat_out.allocation.lambda_vector())
          .total_cost;
  const double fleet_cost =
      evaluate_allocation(sites_, policies_, demand_, fleet_out.site_lambda)
          .total_cost;
  EXPECT_GE(fleet_cost, flat_cost * 0.999);  // flat is the lower bound
  EXPECT_LE(fleet_cost, flat_cost * 1.25);   // but the gap stays bounded
}

TEST_F(HierarchicalTest, SingleRegionMatchesFlat) {
  // One region holding every site is the flat capper, bit for bit.
  const BillCapper flat(sites_, policies_);
  FleetController fleet(sites_, policies_, contiguous_regions(6, 6));
  const CappingOutcome a = flat.decide(6e11, 1.5e11, demand_, 1e7);
  const FleetHourOutcome b = fleet.decide_hour(0, 6e11, 1.5e11, demand_, 1e7);
  EXPECT_EQ(a.allocation.predicted_cost, b.predicted_cost);
  EXPECT_EQ(a.allocation.lambda_vector(), b.site_lambda);
}

TEST_F(HierarchicalTest, CleanSolveSurfacesNoRegionFailures) {
  FleetController fleet = make_controller();
  const FleetHourOutcome out = fleet.decide_hour(0, 8e11, 2e11, demand_, 1e7);
  EXPECT_EQ(out.degraded_chunks, 0u);
  ASSERT_EQ(out.chunks.size(), 2u);
  for (const ChunkOutcome& chunk : out.chunks) {
    EXPECT_EQ(chunk.failure, FailureReason::kNone) << chunk.region;
    EXPECT_FALSE(chunk.outcome.degraded) << chunk.region;
    EXPECT_EQ(chunk.outcome.failure, FailureReason::kNone) << chunk.region;
  }
}

TEST_F(HierarchicalTest, PerRegionFailuresSurviveTheMerge) {
  // A crushing node budget degrades every region's solve; the merge must
  // say which regions degraded and why, not just the worst Mode.
  FleetOptions options;
  options.deadline.max_nodes = 1;
  FleetController fleet = make_controller(options);
  const FleetHourOutcome out = fleet.decide_hour(0, 8e11, 2e11, demand_, 1e7);
  EXPECT_EQ(out.degraded_chunks, 2u);
  for (const ChunkOutcome& chunk : out.chunks) {
    EXPECT_EQ(chunk.status, ChunkStatus::kDegraded) << chunk.region;
    EXPECT_NE(chunk.failure, FailureReason::kNone) << chunk.region;
    // The chunk outcome agrees with the surfaced status.
    EXPECT_TRUE(chunk.outcome.degraded) << chunk.region;
    EXPECT_EQ(chunk.outcome.failure, chunk.failure) << chunk.region;
  }
}

TEST_F(HierarchicalTest, DemandSizeValidation) {
  FleetController fleet = make_controller();
  EXPECT_THROW(
      fleet.decide_hour(0, 1e11, 1e10, std::vector<double>{1.0}, 100.0),
      std::invalid_argument);
}

TEST_F(FleetTest, EveryRegionDownDropsTheWholeHour) {
  FaultPlan plan;
  plan.region_outages.push_back({/*region=*/0, /*start=*/1, /*duration=*/1});
  plan.region_outages.push_back({/*region=*/1, /*start=*/1, /*duration=*/1});
  const FaultInjector injector(plan, sites_.size(), 2, 24);
  FleetController fleet = make_controller();
  const FleetHourOutcome out =
      fleet.decide_hour(1, 8e11, 2e11, demand_, 1e7, &injector);
  EXPECT_EQ(out.region_down_chunks, 2u);
  EXPECT_EQ(out.served_premium, 0.0);
  EXPECT_EQ(out.served_ordinary, 0.0);
  // Nothing could serve, so every arrival was dropped.
  EXPECT_DOUBLE_EQ(out.dropped_capacity, 8e11 + 2e11);
  for (double l : out.site_lambda) EXPECT_EQ(l, 0.0);
}

TEST_F(FleetTest, FleetWideSiteOutageIsNotASolverFailure) {
  // Every site dark for trip_failures hours: nothing can serve anywhere,
  // but no solver failed, so no chunk degrades (as when only one region's
  // sites are dark) and no region is quarantined once the sites are back.
  const FleetOptions options;
  const std::size_t dark = options.quarantine.trip_failures;
  FaultPlan plan;
  for (std::size_t i = 0; i < sites_.size(); ++i)
    plan.outages.push_back({/*site=*/i, /*start=*/0, /*duration=*/dark});
  const FaultInjector injector(plan, sites_.size(), 2, 24);
  FleetController fleet = make_controller(options);
  for (std::size_t h = 0; h < dark; ++h) {
    const FleetHourOutcome out =
        fleet.decide_hour(h, 8e11, 2e11, demand_, 1e7, &injector);
    EXPECT_EQ(out.served_premium, 0.0) << h;
    EXPECT_EQ(out.degraded_chunks, 0u) << h;
    for (const ChunkOutcome& chunk : out.chunks) {
      EXPECT_EQ(chunk.status, ChunkStatus::kOk) << h;
      EXPECT_EQ(chunk.failure, FailureReason::kNone) << h;
    }
  }
  const FleetHourOutcome back =
      fleet.decide_hour(dark, 8e11, 2e11, demand_, 1e7, &injector);
  EXPECT_EQ(back.quarantined_chunks, 0u);
  EXPECT_GT(back.served_ordinary, 0.0);
}

TEST_F(FleetTest, PooledAndSerialHoursAreBitwiseIdentical) {
  util::ThreadPool pool(4);
  FleetController serial = make_controller();
  FleetController threaded = make_controller({}, &pool);
  const FleetHourOutcome a = serial.decide_hour(0, 8e11, 2e11, demand_, 1e7);
  const FleetHourOutcome b = threaded.decide_hour(0, 8e11, 2e11, demand_, 1e7);
  EXPECT_EQ(a.served_premium, b.served_premium);    // bitwise, not NEAR
  EXPECT_EQ(a.served_ordinary, b.served_ordinary);
  EXPECT_EQ(a.predicted_cost, b.predicted_cost);
  ASSERT_EQ(a.site_lambda.size(), b.site_lambda.size());
  for (std::size_t i = 0; i < a.site_lambda.size(); ++i)
    EXPECT_EQ(a.site_lambda[i], b.site_lambda[i]) << i;
}

TEST_F(FleetTest, RegionOutageShedsLocallyAndRecovers) {
  FaultPlan plan;
  plan.region_outages.push_back({/*region=*/1, /*start=*/0, /*duration=*/2});
  const FaultInjector injector(plan, sites_.size(), /*num_regions=*/2,
                               /*horizon=*/24);
  FleetController fleet = make_controller();
  const FleetHourOutcome down =
      fleet.decide_hour(0, 8e11, 2e11, demand_, 1e7, &injector);
  EXPECT_EQ(down.chunks[0].status, ChunkStatus::kOk);
  EXPECT_EQ(down.chunks[1].status, ChunkStatus::kRegionDown);
  EXPECT_EQ(down.region_down_chunks, 1u);
  // The surviving region still serves its (redistributed) share; the dead
  // region's sites carry zero load.
  EXPECT_GT(down.served_premium, 0.0);
  for (std::size_t i = 3; i < 6; ++i) EXPECT_EQ(down.site_lambda[i], 0.0);
  // A lost region is an outage, not a ladder failure: no quarantine.
  const FleetHourOutcome still_down =
      fleet.decide_hour(1, 8e11, 2e11, demand_, 1e7, &injector);
  EXPECT_EQ(still_down.chunks[1].status, ChunkStatus::kRegionDown);
  EXPECT_EQ(still_down.quarantined_chunks, 0u);
  const FleetHourOutcome after =
      fleet.decide_hour(2, 8e11, 2e11, demand_, 1e7, &injector);
  EXPECT_EQ(after.chunks[1].status, ChunkStatus::kOk);
  EXPECT_EQ(after.region_down_chunks, 0u);
}

TEST_F(FleetTest, ChunkSolverStallDegradesThatChunkOnly) {
  FaultPlan plan;
  plan.chunk_stalls.push_back(
      {/*region=*/0, /*start=*/0, /*duration=*/1, /*node_budget=*/1});
  const FaultInjector injector(plan, sites_.size(), 2, 24);
  FleetController fleet = make_controller();
  const FleetHourOutcome out =
      fleet.decide_hour(0, 8e11, 2e11, demand_, 1e7, &injector);
  EXPECT_EQ(out.chunks[0].status, ChunkStatus::kDegraded);
  EXPECT_NE(out.chunks[0].failure, FailureReason::kNone);
  EXPECT_EQ(out.chunks[1].status, ChunkStatus::kOk);
  EXPECT_EQ(out.degraded_chunks, 1u);
  // Degraded is not dead: the chunk still serves via the ladder.
  EXPECT_GT(out.chunks[0].outcome.served_premium, 0.0);
}

TEST_F(FleetTest, ChunkArenaSqueezeClassifiesArenaExhausted) {
  FaultPlan plan;
  plan.chunk_squeezes.push_back(
      {/*region=*/0, /*start=*/0, /*duration=*/1, /*arena_bytes=*/64});
  const FaultInjector injector(plan, sites_.size(), 2, 24);
  FleetController fleet = make_controller();
  const FleetHourOutcome out =
      fleet.decide_hour(0, 8e11, 2e11, demand_, 1e7, &injector);
  EXPECT_EQ(out.chunks[0].status, ChunkStatus::kDegraded);
  EXPECT_EQ(out.chunks[0].failure, FailureReason::kArenaExhausted);
  EXPECT_EQ(out.chunks[1].status, ChunkStatus::kOk);
  EXPECT_GT(out.chunks[0].outcome.served_premium, 0.0);  // greedy fallback
}

TEST_F(FleetTest, ThrownChunkIsCaughtAndServesStandby) {
  FleetController fleet = make_controller();
  fleet.chunk_fault_hook = [](std::size_t region, std::size_t) {
    if (region == 1) throw std::runtime_error("chunk node fell over");
  };
  const FleetHourOutcome out = fleet.decide_hour(0, 8e11, 2e11, demand_, 1e7);
  EXPECT_EQ(out.chunks[0].status, ChunkStatus::kOk);
  EXPECT_EQ(out.chunks[1].status, ChunkStatus::kDegraded);
  EXPECT_EQ(out.chunks[1].failure, FailureReason::kThrown);
  // The standby fallback still serves the region's premium share.
  EXPECT_GT(out.chunks[1].outcome.served_premium, 0.0);
  EXPECT_EQ(out.chunks[1].outcome.mode, CappingOutcome::Mode::kPremiumOnly);
}

TEST_F(FleetTest, QuarantineTripsAfterRepeatedFailuresAndRecovers) {
  FleetOptions options;
  options.quarantine.window_hours = 8;
  options.quarantine.trip_failures = 3;
  options.quarantine.quarantine_hours = 2;
  FleetController fleet = make_controller(options);
  bool hook_on = true;
  fleet.chunk_fault_hook = [&hook_on](std::size_t region, std::size_t) {
    if (hook_on && region == 0) throw std::runtime_error("flaky chunk");
  };
  for (std::size_t h = 0; h < 3; ++h) {
    const FleetHourOutcome out =
        fleet.decide_hour(h, 8e11, 2e11, demand_, 1e7);
    EXPECT_EQ(out.chunks[0].status, ChunkStatus::kDegraded) << h;
  }
  // Three failures in the window: hours 3 and 4 are quarantined.
  hook_on = false;  // the region has recovered, but quarantine holds
  const FleetHourOutcome gated = fleet.decide_hour(3, 8e11, 2e11, demand_, 1e7);
  EXPECT_EQ(gated.chunks[0].status, ChunkStatus::kQuarantined);
  EXPECT_EQ(gated.quarantined_chunks, 1u);
  // Quarantined standby still guarantees the premium share.
  EXPECT_GT(gated.chunks[0].outcome.served_premium, 0.0);
  EXPECT_EQ(fleet.decide_hour(4, 8e11, 2e11, demand_, 1e7).quarantined_chunks,
            1u);
  // Probation: the ladder window was cleared, the region solves cleanly.
  const FleetHourOutcome healed = fleet.decide_hour(5, 8e11, 2e11, demand_, 1e7);
  EXPECT_EQ(healed.chunks[0].status, ChunkStatus::kOk);
  EXPECT_EQ(healed.quarantined_chunks, 0u);
}

TEST_F(FleetTest, RunMonthAggregatesChunkCountersIntoMonthlyResult) {
  FleetMonthConfig config;
  config.hours = 12;
  config.seed = 7;
  config.base_premium = 6e11;
  config.base_ordinary = 1.5e11;
  config.base_demand_mw = 180.0;
  config.hourly_budget = 1e7;
  config.faults.region_outages.push_back({1, 2, 2});
  config.faults.chunk_stalls.push_back({0, 5, 2, 1});
  FleetController fleet = make_controller();
  const MonthlyResult result = fleet.run_month(config);
  ASSERT_EQ(result.hours.size(), 12u);
  EXPECT_EQ(result.region_down_chunks, 2u);
  EXPECT_GE(result.degraded_chunks, 2u);
  std::size_t tallied = 0;
  for (std::size_t count : result.chunk_failure_tally) tallied += count;
  EXPECT_EQ(tallied, result.degraded_chunks);
  EXPECT_GT(result.total_served_premium, 0.0);
}

// The ISSUE's acceptance bar: the same 100-site month at 1, 4 and 16
// threads (and with no pool at all) must produce bitwise-identical CSV
// output — per-task determinism plus ordered reduction, no exceptions.
TEST(FleetInvarianceTest, HundredSiteMonthIsThreadCountInvariant) {
  const auto base_sites = datacenter::paper_datacenters();
  const auto base_policies = market::paper_policies(1);
  std::vector<datacenter::DataCenter> sites;
  std::vector<market::PricingPolicy> policies;
  while (sites.size() < 100) {
    const std::size_t i = sites.size() % base_sites.size();
    sites.push_back(base_sites[i]);
    policies.push_back(base_policies[i]);
  }
  const std::vector<Region> regions = contiguous_regions(100, 5);

  FleetMonthConfig config;
  config.hours = 24;
  config.seed = 2024;
  config.base_premium = 1.2e13;
  config.base_ordinary = 3e12;
  config.base_demand_mw = 180.0;
  config.hourly_budget = 2e8;
  // A fault ladder touching every envelope: a dead region, a stalled
  // chunk, a squeezed arena and a site outage, all mid-month.
  config.faults.region_outages.push_back({3, 6, 3});
  config.faults.chunk_stalls.push_back({7, 4, 6, 1});
  config.faults.chunk_squeezes.push_back({11, 10, 4, 64});
  config.faults.outages.push_back({42, 2, 5});

  std::string reference;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{4}, std::size_t{16}}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    FleetController fleet(sites, policies, regions, {}, pool.get());
    const MonthlyResult result = fleet.run_month(config);
    const std::string csv = fleet_month_csv(result);
    if (reference.empty()) {
      reference = csv;
      EXPECT_GT(result.degraded_chunks, 0u);
      EXPECT_GT(result.region_down_chunks, 0u);
      // Premium QoS held through the whole ladder.
      EXPECT_GT(result.premium_throughput_ratio(), 0.9);
    } else {
      EXPECT_EQ(csv, reference) << "threads=" << threads;
    }
  }
}

TEST(FleetInvarianceTest, SweepLadderMonthCsvDigestIsPinned) {
  // A short month of bench/fleet_sweep's 100-site fleet under its rotating
  // fault ladder (month 1: a dead region, a stalled chunk, a squeezed
  // arena and a site outage). The FNV-1a of its fleet_month_csv pins the
  // fleet hour bit for bit.
  const auto base_sites = datacenter::paper_datacenters();
  const auto base_policies = market::paper_policies(1);
  std::vector<datacenter::DataCenter> sites;
  std::vector<market::PricingPolicy> policies;
  while (sites.size() < 100) {
    const std::size_t i = sites.size() % base_sites.size();
    sites.push_back(base_sites[i]);
    policies.push_back(base_policies[i]);
  }
  const std::vector<Region> regions = contiguous_regions(100, 5);

  const std::size_t month = 1;
  const std::size_t hours = 12;
  FleetMonthConfig config;
  config.hours = hours;
  config.seed = 0xb111ca9f1ee7ULL ^ (month * 0x9e3779b97f4a7c15ULL);
  config.base_premium = 1.2e13;
  config.base_ordinary = 3e12;
  config.base_demand_mw = 180.0;
  config.hourly_budget = 2e8;
  const std::size_t quarter = hours / 4 + 1;
  config.faults.region_outages.push_back(
      {month % regions.size(), quarter, quarter / 2 + 1});
  config.faults.chunk_stalls.push_back(
      {(month * 7 + 3) % regions.size(), quarter / 2, quarter, 1});
  config.faults.chunk_squeezes.push_back(
      {(month * 13 + 5) % regions.size(), 2 * quarter, quarter, 64});
  config.faults.outages.push_back({(month * 11 + 1) % 100, 1, quarter});

  FleetController fleet(sites, policies, regions);
  const MonthlyResult result = fleet.run_month(config);
  EXPECT_GT(result.degraded_chunks, 0u);
  EXPECT_GT(result.region_down_chunks, 0u);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : fleet_month_csv(result)) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  EXPECT_EQ(hash, 0x80c6bd4e1b6439acULL);
}

}  // namespace
}  // namespace billcap::core
