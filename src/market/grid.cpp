#include "market/grid.hpp"

#include <stdexcept>

namespace billcap::market {

int Grid::add_bus(std::string name) {
  buses_.push_back(std::move(name));
  return static_cast<int>(buses_.size()) - 1;
}

int Grid::add_line(std::string name, int from_bus, int to_bus,
                   double reactance, double limit_mw) {
  if (from_bus < 0 || from_bus >= num_buses() || to_bus < 0 ||
      to_bus >= num_buses())
    throw std::out_of_range("Grid::add_line: bad bus index for " + name);
  if (from_bus == to_bus)
    throw std::invalid_argument("Grid::add_line: self-loop " + name);
  if (!(reactance > 0.0))
    throw std::invalid_argument("Grid::add_line: reactance must be > 0");
  lines_.push_back(Line{std::move(name), from_bus, to_bus, reactance, limit_mw});
  return static_cast<int>(lines_.size()) - 1;
}

int Grid::add_generator(std::string name, int bus, double capacity_mw,
                        double marginal_cost) {
  if (bus < 0 || bus >= num_buses())
    throw std::out_of_range("Grid::add_generator: bad bus index for " + name);
  if (!(capacity_mw > 0.0))
    throw std::invalid_argument("Grid::add_generator: capacity must be > 0");
  generators_.push_back(
      Generator{std::move(name), bus, capacity_mw, marginal_cost});
  return static_cast<int>(generators_.size()) - 1;
}

double Grid::total_capacity_mw() const noexcept {
  double total = 0.0;
  for (const auto& g : generators_) total += g.capacity_mw;
  return total;
}

}  // namespace billcap::market
