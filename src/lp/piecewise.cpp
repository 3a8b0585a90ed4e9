#include "lp/piecewise.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace billcap::lp {

void PiecewiseAffine::validate() const {
  if (breaks.size() < 2)
    throw std::invalid_argument("PiecewiseAffine: need at least one segment");
  if (slopes.size() + 1 != breaks.size())
    throw std::invalid_argument("PiecewiseAffine: slopes/breaks size mismatch");
  if (intercepts.size() != slopes.size())
    throw std::invalid_argument(
        "PiecewiseAffine: intercepts/slopes size mismatch");
  if (breaks.front() != 0.0)
    throw std::invalid_argument("PiecewiseAffine: breaks must start at 0");
  for (std::size_t k = 1; k < breaks.size(); ++k) {
    if (!(breaks[k] > breaks[k - 1]))
      throw std::invalid_argument(
          "PiecewiseAffine: breaks must be strictly increasing");
  }
  if (!std::isfinite(breaks.back()))
    throw std::invalid_argument("PiecewiseAffine: final break must be finite");
}

std::size_t PiecewiseAffine::segment_of(double x) const {
  const double clamped = std::clamp(x, breaks.front(), breaks.back());
  // Right-closed convention at the top cap; otherwise segment k covers
  // [breaks[k], breaks[k+1]).
  if (clamped >= breaks.back()) return num_segments() - 1;
  const auto it = std::upper_bound(breaks.begin(), breaks.end(), clamped);
  const auto idx = static_cast<std::size_t>(it - breaks.begin());
  return idx - 1;
}

PiecewiseVars add_piecewise_cost(Problem& problem, const PiecewiseAffine& pw,
                                 const std::string& prefix, double scale) {
  pw.validate();
  const std::size_t m = pw.num_segments();

  PiecewiseVars vars;
  // x <= breaks.back() is implied: x = sum_k q_k, q_k <= breaks[k+1] z_k
  // and sum_k z_k = 1. An explicit bound would cost a tableau row.
  vars.x = problem.add_variable(prefix + ".x", 0.0, kInfinity);
  vars.selectors.reserve(m);
  vars.amounts.reserve(m);

  std::vector<Term> select_terms;
  std::vector<Term> sum_terms;
  select_terms.reserve(m);
  sum_terms.reserve(m + 1);

  for (std::size_t k = 0; k < m; ++k) {
    const std::string tag = prefix + ".seg" + std::to_string(k);
    const int z = problem.add_binary(tag + ".z", scale * pw.intercepts[k]);
    // q_k <= breaks[k+1] is implied by the .ub row below with z_k <= 1.
    const int q = problem.add_variable(tag + ".q", 0.0, kInfinity,
                                       scale * pw.slopes[k]);
    vars.selectors.push_back(z);
    vars.amounts.push_back(q);
    select_terms.push_back({z, 1.0});
    sum_terms.push_back({q, 1.0});

    // q_k <= hi_k z_k  and  q_k >= lo_k z_k.
    problem.add_constraint(tag + ".ub", {{q, 1.0}, {z, -pw.breaks[k + 1]}},
                           Relation::kLessEqual, 0.0);
    if (pw.breaks[k] > 0.0) {
      problem.add_constraint(tag + ".lb", {{q, 1.0}, {z, -pw.breaks[k]}},
                             Relation::kGreaterEqual, 0.0);
    }
  }

  problem.add_constraint(prefix + ".one_segment", std::move(select_terms),
                         Relation::kEqual, 1.0);
  sum_terms.push_back({vars.x, -1.0});
  problem.add_constraint(prefix + ".aggregate", std::move(sum_terms),
                         Relation::kEqual, 0.0);
  return vars;
}

}  // namespace billcap::lp
