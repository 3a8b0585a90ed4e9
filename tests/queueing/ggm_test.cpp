#include "queueing/ggm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include "queueing/closed_forms.hpp"

namespace billcap::queueing {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

GgmParams markovian(double mu) { return GgmParams{mu, 1.0, 1.0}; }

TEST(AllenCunneenTest, ReducesToServiceTimeAtZeroLoad) {
  EXPECT_DOUBLE_EQ(allen_cunneen_response_time(markovian(4.0), 10.0, 0.0),
                   0.25);
}

TEST(AllenCunneenTest, UnstableReturnsInfinity) {
  EXPECT_EQ(allen_cunneen_response_time(markovian(1.0), 5.0, 5.0), kInf);
  EXPECT_EQ(allen_cunneen_response_time(markovian(1.0), 5.0, 6.0), kInf);
  EXPECT_EQ(allen_cunneen_response_time(markovian(1.0), 5.0, -1.0), kInf);
}

TEST(AllenCunneenTest, SimplifiedFormulaMatchesPaperEq3) {
  // R = 1/mu + K / (n mu - lambda), K = (CA2 + CB2)/2.
  const GgmParams params{2.0, 0.8, 1.4};
  const double r = allen_cunneen_response_time(params, 8.0, 10.0);
  EXPECT_DOUBLE_EQ(r, 0.5 + (0.5 * (0.8 + 1.4)) / (16.0 - 10.0));
}

TEST(AllenCunneenTest, MonotoneIncreasingInLoad) {
  const GgmParams params = markovian(3.0);
  double prev = 0.0;
  for (double lambda = 0.0; lambda < 29.0; lambda += 1.0) {
    const double r = allen_cunneen_response_time(params, 10.0, lambda);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

TEST(AllenCunneenTest, MonotoneDecreasingInServers) {
  const GgmParams params = markovian(3.0);
  double prev = kInf;
  for (double n = 4.0; n <= 64.0; n *= 2.0) {
    const double r = allen_cunneen_response_time(params, n, 10.0);
    EXPECT_LT(r, prev);
    prev = r;
  }
}

TEST(AllenCunneenTest, SimplifiedIsExactForMm1HeavyTraffic) {
  // For m = 1 and Markovian traffic the simplified formula gives
  // 1/mu + 1/(mu - lambda), vs exact M/M/1 R = 1/(mu - lambda); the two
  // converge as rho -> 1 (relative error -> the vanishing 1/mu share).
  const double mu = 1.0;
  for (double rho : {0.9, 0.99, 0.999}) {
    const double lambda = rho * mu;
    const double approx =
        allen_cunneen_response_time(markovian(mu), 1.0, lambda);
    const double exact = mm1_response_time(lambda, mu);
    EXPECT_NEAR(approx / exact, 1.0, 1.5 * (1.0 - rho));
  }
}

TEST(AllenCunneenTest, FullFormulaTracksErlangCForMarkovian) {
  // With CA2 = CB2 = 1 the full Allen-Cunneen approximation should stay
  // within ~15% of the exact M/M/m response time in heavy traffic.
  const double mu = 2.0;
  for (std::uint64_t m : {2ull, 8ull, 32ull}) {
    for (double rho : {0.8, 0.9, 0.95}) {
      const double lambda = rho * static_cast<double>(m) * mu;
      const double approx =
          allen_cunneen_full_response_time(markovian(mu), m, lambda);
      const double exact = mmm_response_time(m, lambda, mu);
      EXPECT_NEAR(approx / exact, 1.0, 0.15)
          << "m=" << m << " rho=" << rho;
    }
  }
}

TEST(ServerSizingTest, ZeroArrivalsNeedZeroServers) {
  EXPECT_EQ(min_servers_for_response_time(markovian(2.0), 0.0, 1.0), 0u);
}

TEST(ServerSizingTest, MeetsTargetAndIsMinimal) {
  const GgmParams params{2.0, 1.0, 1.2};
  const double target = 0.75;
  for (double lambda : {1.0, 5.0, 42.0, 1000.0, 123456.0}) {
    const std::uint64_t n =
        min_servers_for_response_time(params, lambda, target);
    EXPECT_LE(allen_cunneen_response_time(params, static_cast<double>(n),
                                          lambda),
              target + 1e-9)
        << "lambda " << lambda;
    if (n > 0) {
      EXPECT_GT(allen_cunneen_response_time(params, static_cast<double>(n - 1),
                                            lambda),
                target - 1e-9)
          << "lambda " << lambda;
    }
  }
}

TEST(ServerSizingTest, TighterTargetNeedsMoreServers) {
  const GgmParams params = markovian(2.0);
  const std::uint64_t loose =
      min_servers_for_response_time(params, 100.0, 2.0);
  const std::uint64_t tight =
      min_servers_for_response_time(params, 100.0, 0.51);
  EXPECT_GT(tight, loose);
}

TEST(ServerSizingTest, ImpossibleTargetThrows) {
  // Response time can never beat the bare service time 1/mu.
  EXPECT_THROW(
      min_servers_for_response_time(markovian(2.0), 10.0, 0.5),
      std::invalid_argument);
  EXPECT_THROW(
      min_servers_for_response_time(markovian(2.0), 10.0, 0.4),
      std::invalid_argument);
}

TEST(ServerSizingTest, FractionalFormIsAffine) {
  const GgmParams params{2.0, 1.0, 1.0};
  const double target = 1.0;
  const auto c = server_requirement_coefficients(params, target);
  for (double lambda : {1.0, 10.0, 500.0}) {
    EXPECT_NEAR(
        fractional_servers_for_response_time(params, lambda, target),
        c.slope * lambda + c.intercept, 1e-12);
  }
}

TEST(ServerSizingTest, CoefficientsMatchAlgebra) {
  // slope = 1/mu;  intercept = K / (mu (Rs - 1/mu)).
  const GgmParams params{4.0, 0.5, 1.5};
  const auto c = server_requirement_coefficients(params, 2.0);
  EXPECT_DOUBLE_EQ(c.slope, 0.25);
  EXPECT_DOUBLE_EQ(c.intercept, 1.0 / (4.0 * (2.0 - 0.25)));
}

TEST(ServerSizingTest, CeilingNeverUndershoots) {
  const GgmParams params{3.0, 1.1, 0.9};
  const double target = 0.8;
  for (double lambda = 0.5; lambda < 200.0; lambda += 7.3) {
    const double frac =
        fractional_servers_for_response_time(params, lambda, target);
    const std::uint64_t n =
        min_servers_for_response_time(params, lambda, target);
    EXPECT_GE(static_cast<double>(n) + 1e-9, frac);
    EXPECT_LT(static_cast<double>(n), frac + 1.0);
  }
}

TEST(GgmParamsTest, InvalidParamsThrow) {
  EXPECT_THROW(fractional_servers_for_response_time({0.0, 1.0, 1.0}, 1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(fractional_servers_for_response_time({1.0, -0.1, 1.0}, 1.0, 2.0),
               std::invalid_argument);
  EXPECT_THROW(fractional_servers_for_response_time({1.0, 1.0, 1.0}, -1.0, 2.0),
               std::invalid_argument);
}

/// Property sweep: sizing is monotone non-decreasing in lambda across a
/// range of service rates and variability mixes.
class SizingMonotoneTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SizingMonotoneTest, MonotoneInArrivalRate) {
  const auto [mu, cv2] = GetParam();
  const GgmParams params{mu, cv2, cv2};
  const double target = 2.0 / mu;  // always feasible (> 1/mu)
  std::uint64_t prev = 0;
  for (double lambda = 0.0; lambda < 50.0 * mu; lambda += mu) {
    const std::uint64_t n =
        min_servers_for_response_time(params, lambda, target);
    EXPECT_GE(n, prev) << "mu=" << mu << " cv2=" << cv2;
    prev = n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SizingMonotoneTest,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0, 8.0),
                       ::testing::Values(0.25, 1.0, 4.0)));

}  // namespace
}  // namespace billcap::queueing
