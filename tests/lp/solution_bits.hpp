#pragma once

// Bitwise comparison of two lp::Solutions, for the history-independence
// tests: a long-lived ArenaSolver must answer every problem exactly as a
// fresh one does, down to the last bit of every value and the search
// effort counters.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#include "lp/arena_solver.hpp"
#include "lp/problem.hpp"

namespace billcap::lp {

inline void expect_bitwise_equal(const Solution& fresh, const Solution& got,
                                 const std::string& tag) {
  ASSERT_EQ(fresh.status, got.status)
      << tag << ": fresh=" << to_string(fresh.status)
      << " got=" << to_string(got.status);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fresh.objective),
            std::bit_cast<std::uint64_t>(got.objective))
      << tag << ": objective " << fresh.objective << " vs " << got.objective;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fresh.best_bound),
            std::bit_cast<std::uint64_t>(got.best_bound))
      << tag << ": best_bound";
  EXPECT_EQ(fresh.nodes, got.nodes) << tag << ": nodes";
  EXPECT_EQ(fresh.iterations, got.iterations) << tag << ": iterations";
  ASSERT_EQ(fresh.x.size(), got.x.size()) << tag << ": x size";
  for (std::size_t j = 0; j < fresh.x.size(); ++j)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fresh.x[j]),
              std::bit_cast<std::uint64_t>(got.x[j]))
        << tag << ": x[" << j << "] " << fresh.x[j] << " vs " << got.x[j];
}

/// Solves `problem` on the long-lived `solver`, expects the answer to be
/// bitwise a fresh solver's, and returns it.
inline Solution solve_history_free(ArenaSolver& solver, const Problem& problem,
                                   const std::string& tag) {
  Solution got = solver.solve(problem);
  ArenaSolver fresh;
  expect_bitwise_equal(fresh.solve(problem), got, tag);
  return got;
}

}  // namespace billcap::lp
