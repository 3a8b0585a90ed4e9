#pragma once

#include <string>
#include <vector>

namespace billcap::market {

/// A transmission line in the DC power-flow model, characterized by its
/// series reactance (per unit) and thermal limit.
struct Line {
  std::string name;
  int from_bus = -1;
  int to_bus = -1;
  double reactance = 0.0;  ///< x > 0, per unit
  double limit_mw = 0.0;   ///< thermal limit; <= 0 means unlimited
};

/// A dispatchable generator with a constant marginal cost.
struct Generator {
  std::string name;
  int bus = -1;
  double capacity_mw = 0.0;
  double marginal_cost = 0.0;  ///< $/MWh
};

/// A small transmission grid for locational-marginal-price studies: buses,
/// lines with reactances/limits, and generators with offer curves. This is
/// the physical substrate behind the step pricing policies (Section II).
class Grid {
 public:
  /// Adds a bus and returns its index.
  int add_bus(std::string name);

  /// Adds a line between existing buses; throws on bad indices or x <= 0.
  int add_line(std::string name, int from_bus, int to_bus, double reactance,
               double limit_mw = 0.0);

  /// Adds a generator at an existing bus; throws on bad indices or
  /// non-positive capacity.
  int add_generator(std::string name, int bus, double capacity_mw,
                    double marginal_cost);

  int num_buses() const noexcept { return static_cast<int>(buses_.size()); }
  int num_lines() const noexcept { return static_cast<int>(lines_.size()); }
  int num_generators() const noexcept {
    return static_cast<int>(generators_.size());
  }

  const std::string& bus_name(int b) const { return buses_.at(static_cast<std::size_t>(b)); }
  const Line& line(int l) const { return lines_.at(static_cast<std::size_t>(l)); }
  const Generator& generator(int g) const { return generators_.at(static_cast<std::size_t>(g)); }
  const std::vector<Line>& lines() const noexcept { return lines_; }
  const std::vector<Generator>& generators() const noexcept {
    return generators_;
  }

  /// Total generation capacity (MW).
  double total_capacity_mw() const noexcept;

 private:
  std::vector<std::string> buses_;
  std::vector<Line> lines_;
  std::vector<Generator> generators_;
};

}  // namespace billcap::market
