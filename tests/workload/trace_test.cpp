#include "workload/trace.hpp"

#include <gtest/gtest.h>

namespace billcap::workload {
namespace {

TEST(TraceTest, BasicAccessors) {
  const Trace t({10.0, 20.0, 30.0});
  EXPECT_EQ(t.hours(), 3u);
  EXPECT_FALSE(t.empty());
  EXPECT_DOUBLE_EQ(t.at(1), 20.0);
  EXPECT_DOUBLE_EQ(t.total(), 60.0);
  EXPECT_DOUBLE_EQ(t.mean(), 20.0);
}

TEST(TraceTest, EmptyTrace) {
  const Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.mean(), 0.0);
}

TEST(TraceTest, RejectsNegativeArrivals) {
  EXPECT_THROW(Trace({1.0, -2.0}), std::invalid_argument);
}

TEST(TraceTest, OutOfRangeAccessThrows) {
  const Trace t({1.0});
  EXPECT_THROW(t.at(1), std::out_of_range);
}

TEST(TraceTest, SliceExtractsWindow) {
  const Trace t({0.0, 1.0, 2.0, 3.0, 4.0});
  const Trace s = t.slice(1, 3);
  EXPECT_EQ(s.hours(), 3u);
  EXPECT_DOUBLE_EQ(s.at(0), 1.0);
  EXPECT_DOUBLE_EQ(s.at(2), 3.0);
  EXPECT_THROW(t.slice(3, 5), std::out_of_range);
}

TEST(PremiumSplitTest, PaperDefaultEightyTwenty) {
  const PremiumSplit split;
  EXPECT_DOUBLE_EQ(split.premium_share(), 0.8);
  EXPECT_DOUBLE_EQ(split.premium(100.0), 80.0);
  EXPECT_DOUBLE_EQ(split.ordinary(100.0), 20.0);
}

TEST(PremiumSplitTest, SharesSumToWhole) {
  const PremiumSplit split(0.65);
  EXPECT_DOUBLE_EQ(split.premium(42.0) + split.ordinary(42.0), 42.0);
}

TEST(PremiumSplitTest, Validation) {
  EXPECT_THROW(PremiumSplit(-0.1), std::invalid_argument);
  EXPECT_THROW(PremiumSplit(1.1), std::invalid_argument);
  EXPECT_NO_THROW(PremiumSplit(0.0));
  EXPECT_NO_THROW(PremiumSplit(1.0));
}

}  // namespace
}  // namespace billcap::workload
