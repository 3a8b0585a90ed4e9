#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace billcap::util {

/// Deterministic, fast pseudo-random generator (xoshiro256**), seeded via
/// SplitMix64. Used everywhere randomness is needed so that every trace,
/// test and benchmark in the repository is exactly reproducible from a
/// 64-bit seed. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes from `seed` using SplitMix64, which
  /// guarantees well-mixed non-zero state for any seed (including 0).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit draw.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's unbiased
  /// multiply-shift rejection method.
  std::uint64_t below(std::uint64_t n) noexcept;

  /// Standard normal draw (Marsaglia polar method; caches the spare value).
  double normal() noexcept;

  /// Normal draw with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Lognormal draw: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) noexcept;

  /// The four xoshiro lanes, for durable checkpointing of a stream's
  /// position. The cached spare normal is not part of the state: set_state
  /// discards it, so save/restore is exact for the uniform/bernoulli draws
  /// the checkpointed streams use, and merely re-draws a pending normal.
  std::array<std::uint64_t, 4> state() const noexcept;
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept;

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace billcap::util
