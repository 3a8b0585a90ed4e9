#include "datacenter/cooling.hpp"

#include <gtest/gtest.h>

namespace billcap::datacenter {
namespace {

TEST(CoolingModelTest, PowerIsItOverCoe) {
  const CoolingModel c(2.0);
  EXPECT_DOUBLE_EQ(c.power_watts(100.0), 50.0);
  EXPECT_DOUBLE_EQ(c.power_watts(0.0), 0.0);
}

TEST(CoolingModelTest, PaperEfficiencies) {
  // coe 1.94 / 1.39 / 1.74: cooling is 51 % / 72 % / 57 % of IT power —
  // consistent with "cooling can take up to 25-50 % of the total".
  for (double coe : {1.94, 1.39, 1.74}) {
    const CoolingModel c(coe);
    const double cooling_share =
        c.power_watts(1.0) / (1.0 + c.power_watts(1.0));
    EXPECT_GT(cooling_share, 0.30);
    EXPECT_LT(cooling_share, 0.45);
  }
}

TEST(CoolingModelTest, HigherCoeMeansLessCoolingPower) {
  EXPECT_LT(CoolingModel(1.94).power_watts(100.0),
            CoolingModel(1.39).power_watts(100.0));
}

TEST(CoolingModelTest, OverheadFactor) {
  const CoolingModel c(2.0);
  EXPECT_DOUBLE_EQ(c.overhead_factor(), 1.5);
  // total = IT * overhead must equal IT + cooling(IT).
  EXPECT_DOUBLE_EQ(100.0 * c.overhead_factor(),
                   100.0 + c.power_watts(100.0));
}

TEST(CoolingModelTest, RejectsBadInputs) {
  EXPECT_THROW(CoolingModel(0.0), std::invalid_argument);
  EXPECT_THROW(CoolingModel(-1.0), std::invalid_argument);
  EXPECT_THROW(CoolingModel(1.0).power_watts(-5.0), std::invalid_argument);
}

}  // namespace
}  // namespace billcap::datacenter
