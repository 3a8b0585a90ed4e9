#include "rebate.hpp"

#include <algorithm>
#include <stdexcept>

namespace billcap::market {

void RebateProgram::validate() const {
  if (baseline_mw < 0.0)
    throw std::invalid_argument("RebateProgram: negative baseline");
  if (rebate_per_mwh < 0.0)
    throw std::invalid_argument("RebateProgram: negative rebate");
}

lp::PiecewiseAffine apply_rebate(const lp::PiecewiseAffine& curve,
                                 const RebateProgram& program) {
  program.validate();
  curve.validate();
  if (program.rebate_per_mwh == 0.0 || program.baseline_mw <= 0.0)
    return curve;

  const double baseline = program.baseline_mw;
  const double rebate = program.rebate_per_mwh;

  lp::PiecewiseAffine out;
  out.breaks.push_back(curve.breaks.front());
  for (std::size_t k = 0; k < curve.num_segments(); ++k) {
    const double lo = curve.breaks[k];
    const double hi = curve.breaks[k + 1];
    const double slope = curve.slopes[k];
    const double intercept = curve.intercepts[k];
    auto emit = [&out](double upper, double s, double b) {
      out.breaks.push_back(upper);
      out.slopes.push_back(s);
      out.intercepts.push_back(b);
    };
    if (hi <= baseline) {
      // Entirely below the baseline: marginal cost up, intercept credited.
      emit(hi, slope + rebate, intercept - rebate * baseline);
    } else if (lo >= baseline) {
      emit(hi, slope, intercept);
    } else {
      // Straddles the baseline: split.
      emit(baseline, slope + rebate, intercept - rebate * baseline);
      emit(hi, slope, intercept);
    }
  }
  out.validate();
  return out;
}

double rebated_cost(const PricingPolicy& policy, const RebateProgram& program,
                    bool peak_hour, double dc_power_mw,
                    double other_demand_mw) {
  program.validate();
  const double energy = policy.cost_for(dc_power_mw, other_demand_mw);
  if (!peak_hour) return energy;
  const double credit =
      program.rebate_per_mwh *
      std::max(0.0, program.baseline_mw - dc_power_mw);
  return energy - credit;
}

}  // namespace billcap::market
