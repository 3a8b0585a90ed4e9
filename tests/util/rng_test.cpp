#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng_draws.hpp"

namespace billcap::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ZeroSeedIsValid) {
  Rng rng(0);
  // xoshiro would be stuck at zero without SplitMix seeding.
  EXPECT_NE(rng(), 0u);
  EXPECT_NE(rng(), rng());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double total = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) total += rng.uniform();
  EXPECT_NEAR(total / kN, 0.5, 0.01);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(RngTest, BelowCoversAllResidues) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10'000; ++i) ++counts[rng.below(10)];
  for (int c : counts) EXPECT_GT(c, 800);  // ~1000 each
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(17);
  double total = 0.0;
  double total_sq = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double z = rng.normal();
    total += z;
    total_sq += z * z;
  }
  EXPECT_NEAR(total / kN, 0.0, 0.02);
  EXPECT_NEAR(total_sq / kN, 1.0, 0.03);
}

TEST(RngTest, NormalScaleAndShift) {
  Rng rng(19);
  double total = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) total += rng.normal(10.0, 2.0);
  EXPECT_NEAR(total / kN, 10.0, 0.05);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(23);
  double total = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double x = exponential(rng, 4.0);
    EXPECT_GE(x, 0.0);
    total += x;
  }
  EXPECT_NEAR(total / kN, 0.25, 0.01);
}

TEST(RngTest, LognormalIsPositive) {
  Rng rng(29);
  for (int i = 0; i < 1'000; ++i) EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == UINT64_MAX);
  Rng rng(1);
  [[maybe_unused]] const std::uint64_t draw = rng();
}

}  // namespace
}  // namespace billcap::util
