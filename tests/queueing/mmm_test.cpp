#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "queueing/closed_forms.hpp"

namespace billcap::queueing {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ErlangCTest, SingleServerEqualsRho) {
  // C(1, a) = rho for M/M/1.
  EXPECT_NEAR(erlang_c(1, 0.3, 1.0), 0.3, 1e-12);
  EXPECT_NEAR(erlang_c(1, 0.9, 1.0), 0.9, 1e-12);
}

TEST(ErlangCTest, ZeroLoadNeverWaits) {
  EXPECT_DOUBLE_EQ(erlang_c(4, 0.0, 1.0), 0.0);
}

TEST(ErlangCTest, SaturationAlwaysWaits) {
  EXPECT_DOUBLE_EQ(erlang_c(4, 4.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(erlang_c(4, 9.0, 1.0), 1.0);
}

TEST(ErlangCTest, KnownTextbookValue) {
  // m = 2, a = 1 (rho = 0.5): C = 1/3.
  EXPECT_NEAR(erlang_c(2, 1.0, 1.0), 1.0 / 3.0, 1e-12);
}

TEST(ErlangCTest, DecreasesWithMoreServers) {
  double prev = 1.0;
  for (std::uint64_t m = 3; m <= 48; m += 3) {
    const double c = erlang_c(m, 2.5, 1.0);
    EXPECT_LT(c, prev);
    prev = c;
  }
}

TEST(ErlangCTest, StableForHugeServerCounts) {
  // The recurrence must not overflow where factorial formulas would.
  const double c = erlang_c(300'000, 250'000.0, 1.0);
  EXPECT_GE(c, 0.0);
  EXPECT_LE(c, 1.0);
}

TEST(Mm1Test, KnownFormula) {
  EXPECT_DOUBLE_EQ(mm1_response_time(0.5, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(mm1_response_time(0.0, 2.0), 0.5);
  EXPECT_EQ(mm1_response_time(1.0, 1.0), kInf);
}

TEST(MmmTest, ReducesToMm1) {
  for (double lambda : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(mmm_response_time(1, lambda, 1.0),
                mm1_response_time(lambda, 1.0), 1e-12);
  }
}

TEST(MmmTest, UnstableIsInfinite) {
  EXPECT_EQ(mmm_response_time(2, 2.0, 1.0), kInf);
}

TEST(MmmTest, ApproachesServiceTimeAtLightLoad) {
  EXPECT_NEAR(mmm_response_time(50, 0.01, 1.0), 1.0, 1e-6);
}

TEST(MmmMinServersTest, MeetsTargetMinimally) {
  const double lambda = 20.0;
  const double mu = 1.0;
  const double target = 1.2;
  const std::uint64_t m = mmm_min_servers(lambda, mu, target);
  EXPECT_LE(mmm_response_time(m, lambda, mu), target);
  EXPECT_GT(mmm_response_time(m - 1, lambda, mu), target);
}

TEST(MmmMinServersTest, ZeroLoadZeroServers) {
  EXPECT_EQ(mmm_min_servers(0.0, 1.0, 2.0), 0u);
}

TEST(MmmMinServersTest, ImpossibleTargetThrows) {
  EXPECT_THROW(mmm_min_servers(1.0, 1.0, 0.9), std::invalid_argument);
}

}  // namespace
}  // namespace billcap::queueing
