#include "lp/problem.hpp"

#include <cmath>
#include <stdexcept>

namespace billcap::lp {

int Problem::add_variable(std::string name, double lower, double upper,
                          double objective, bool is_integer) {
  if (lower > upper)
    throw std::invalid_argument("Problem::add_variable: empty bound interval for " + name);
  vars_.push_back(Variable{std::move(name), lower, upper, objective, is_integer});
  return static_cast<int>(vars_.size()) - 1;
}

int Problem::add_binary(std::string name, double objective) {
  return add_variable(std::move(name), 0.0, 1.0, objective, /*is_integer=*/true);
}

int Problem::add_constraint(std::string name, std::vector<Term> terms,
                            Relation relation, double rhs) {
  for (const Term& t : terms) {
    if (t.var < 0 || t.var >= num_variables())
      throw std::out_of_range("Problem::add_constraint: bad variable index in " + name);
  }
  rows_.push_back(Constraint{std::move(name), std::move(terms), relation, rhs});
  return static_cast<int>(rows_.size()) - 1;
}

void Problem::set_objective(int var, double coef) {
  vars_.at(static_cast<std::size_t>(var)).objective = coef;
}

void Problem::set_rhs(int row, double rhs) {
  rows_.at(static_cast<std::size_t>(row)).rhs = rhs;
}

void Problem::set_bounds(int var, double lower, double upper) {
  if (lower > upper + 1e-9)
    throw std::invalid_argument("Problem::set_bounds: empty interval");
  auto& v = vars_.at(static_cast<std::size_t>(var));
  v.lower = lower;
  v.upper = std::max(lower, upper);
}

void Problem::set_integer(int var, bool is_integer) {
  vars_.at(static_cast<std::size_t>(var)).is_integer = is_integer;
}

bool Problem::has_integers() const noexcept {
  for (const auto& v : vars_)
    if (v.is_integer) return true;
  return false;
}

double Problem::objective_value(std::span<const double> x) const {
  double obj = objective_constant_;
  for (std::size_t j = 0; j < vars_.size(); ++j) obj += vars_[j].objective * x[j];
  return obj;
}

double Problem::row_activity(int row, std::span<const double> x) const {
  const Constraint& c = rows_.at(static_cast<std::size_t>(row));
  double activity = 0.0;
  for (const Term& t : c.terms)
    activity += t.coef * x[static_cast<std::size_t>(t.var)];
  return activity;
}

bool Problem::is_feasible(std::span<const double> x, double tol) const {
  if (x.size() != vars_.size()) return false;
  for (std::size_t j = 0; j < vars_.size(); ++j) {
    const Variable& v = vars_[j];
    if (x[j] < v.lower - tol || x[j] > v.upper + tol) return false;
    if (v.is_integer && std::abs(x[j] - std::round(x[j])) > tol) return false;
  }
  for (int i = 0; i < num_constraints(); ++i) {
    const double a = row_activity(i, x);
    const Constraint& c = rows_[static_cast<std::size_t>(i)];
    switch (c.relation) {
      case Relation::kLessEqual:
        if (a > c.rhs + tol) return false;
        break;
      case Relation::kGreaterEqual:
        if (a < c.rhs - tol) return false;
        break;
      case Relation::kEqual:
        if (std::abs(a - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration_limit";
    case SolveStatus::kNodeLimit: return "node_limit";
    case SolveStatus::kArenaExhausted: return "arena_exhausted";
  }
  return "unknown";
}

}  // namespace billcap::lp
