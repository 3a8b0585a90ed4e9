#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"
#include "util/rng_draws.hpp"

namespace billcap::util {
namespace {

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownSeries) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic series is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, StableUnderLargeOffset) {
  // Welford should not lose precision when all values share a huge offset.
  RunningStats s;
  const double offset = 1e12;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(offset + x);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-6);
}

TEST(StatsTest, SquaredCvOfConstantIsZero) {
  const std::vector<double> xs = {4.0, 4.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(squared_cv(xs), 0.0);
}

TEST(StatsTest, SquaredCvOfExponentialIsNearOne) {
  // Exponential inter-arrival times have CV^2 = 1; this is exactly the
  // C_A^2 statistic the bill capper monitors (Section IV-B).
  Rng rng(99);
  std::vector<double> xs;
  xs.reserve(200'000);
  for (int i = 0; i < 200'000; ++i) xs.push_back(exponential(rng, 2.0));
  EXPECT_NEAR(squared_cv(xs), 1.0, 0.03);
}

}  // namespace
}  // namespace billcap::util
