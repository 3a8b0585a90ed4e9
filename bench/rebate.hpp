// Peak Power Rebate programs: a Section II extension that no billcap run
// uses. It only transforms the public cost curves, so it lives beside
// bench/rebate_experiment as the billcap_rebate library, which that bench
// and the market tests link.
#pragma once

#include "lp/piecewise.hpp"
#include "market/pricing_policy.hpp"

namespace billcap::market {

/// A Peak Power Rebate program (Section II): "many power suppliers offer
/// Peak Power Rebate pricing policies such that large power consumers get
/// a temporarily lowered price for voluntarily reducing electricity use
/// during peak times" (e.g. Ameren's Power Smart Pricing, ~20 % savings).
///
/// Model: during designated peak hours the consumer is credited
/// `rebate_per_mwh` for every MWh it stays below its committed baseline:
///   cost(p) = price(p + d) * p - rebate * max(0, baseline - p).
/// The credit makes curtailment valuable exactly when the grid is tight —
/// one more lever the bill capper can trade against throughput. Which
/// hours are peak hours is the caller's choice (`rebated_cost`'s
/// `peak_hour`).
struct RebateProgram {
  double baseline_mw = 0.0;     ///< committed draw during peak hours
  double rebate_per_mwh = 0.0;  ///< credit per MWh of curtailment

  /// Validates shape; throws std::invalid_argument.
  void validate() const;
};

/// Applies the rebate credit to a data-center cost curve (as produced by
/// PricingPolicy::dc_cost_curve): below the baseline every segment's
/// marginal cost rises by the rebate (drawing one more MW forfeits one MWh
/// of credit) and the intercept drops by rebate * baseline; above the
/// baseline the curve is unchanged. Segments straddling the baseline are
/// split. The result stays piecewise-affine and MILP-ready.
lp::PiecewiseAffine apply_rebate(const lp::PiecewiseAffine& curve,
                                 const RebateProgram& program);

/// Ground-truth hourly cost under the program ($, possibly negative when
/// the credit exceeds the energy charge).
double rebated_cost(const PricingPolicy& policy, const RebateProgram& program,
                    bool peak_hour, double dc_power_mw,
                    double other_demand_mw);

}  // namespace billcap::market
