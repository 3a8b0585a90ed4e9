#include "market/grid.hpp"

#include <gtest/gtest.h>

namespace billcap::market {
namespace {

TEST(GridTest, BusIndexing) {
  Grid g;
  EXPECT_EQ(g.add_bus("A"), 0);
  EXPECT_EQ(g.add_bus("B"), 1);
  EXPECT_EQ(g.num_buses(), 2);
  EXPECT_EQ(g.bus_name(1), "B");
  EXPECT_THROW(g.bus_name(2), std::out_of_range);
}

TEST(GridTest, LineValidation) {
  Grid g;
  g.add_bus("A");
  g.add_bus("B");
  EXPECT_EQ(g.add_line("A-B", 0, 1, 0.1, 100.0), 0);
  EXPECT_THROW(g.add_line("bad", 0, 5, 0.1), std::out_of_range);
  EXPECT_THROW(g.add_line("loop", 0, 0, 0.1), std::invalid_argument);
  EXPECT_THROW(g.add_line("zero-x", 0, 1, 0.0), std::invalid_argument);
}

TEST(GridTest, GeneratorValidation) {
  Grid g;
  g.add_bus("A");
  EXPECT_EQ(g.add_generator("G1", 0, 100.0, 12.0), 0);
  EXPECT_THROW(g.add_generator("bad-bus", 3, 100.0, 12.0), std::out_of_range);
  EXPECT_THROW(g.add_generator("no-cap", 0, 0.0, 12.0),
               std::invalid_argument);
}

TEST(GridTest, TotalCapacity) {
  Grid g;
  g.add_bus("A");
  g.add_generator("G1", 0, 100.0, 12.0);
  g.add_generator("G2", 0, 250.0, 20.0);
  EXPECT_DOUBLE_EQ(g.total_capacity_mw(), 350.0);
}

TEST(GridTest, AccessorsReturnStoredData) {
  Grid g;
  g.add_bus("A");
  g.add_bus("B");
  g.add_line("A-B", 0, 1, 0.05, 240.0);
  g.add_generator("G", 1, 600.0, 10.0);
  EXPECT_EQ(g.line(0).name, "A-B");
  EXPECT_DOUBLE_EQ(g.line(0).limit_mw, 240.0);
  EXPECT_EQ(g.generator(0).bus, 1);
  EXPECT_DOUBLE_EQ(g.generator(0).marginal_cost, 10.0);
}

}  // namespace
}  // namespace billcap::market
