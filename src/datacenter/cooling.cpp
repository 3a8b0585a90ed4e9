#include "datacenter/cooling.hpp"

#include <stdexcept>

namespace billcap::datacenter {

CoolingModel::CoolingModel(double coe) : coe_(coe) {
  if (!(coe > 0.0))
    throw std::invalid_argument("CoolingModel: coe must be > 0");
}

double CoolingModel::power_watts(double it_power_watts) const {
  if (it_power_watts < 0.0)
    throw std::invalid_argument("CoolingModel: negative IT power");
  return it_power_watts / coe_;
}

}  // namespace billcap::datacenter
