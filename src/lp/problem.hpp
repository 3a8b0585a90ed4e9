#pragma once

#include <limits>
#include <span>
#include <string>
#include <vector>

namespace billcap::lp {

/// Positive infinity used for unbounded variable bounds.
inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Optimization direction.
enum class Sense { kMinimize, kMaximize };

/// Row relation.
enum class Relation { kLessEqual, kGreaterEqual, kEqual };

/// One nonzero of a constraint row.
struct Term {
  int var = -1;     ///< variable index from Problem::add_variable
  double coef = 0;  ///< coefficient
};

/// A decision variable with simple bounds. Integer variables restrict the
/// branch-and-bound search; the LP relaxation ignores integrality.
struct Variable {
  std::string name;
  double lower = 0.0;
  double upper = kInfinity;
  double objective = 0.0;
  bool is_integer = false;
};

/// A linear constraint  sum(terms) <relation> rhs.
struct Constraint {
  std::string name;
  std::vector<Term> terms;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

/// A mixed-integer linear program:
///   min/max  c'x + constant
///   s.t.     A x {<=,>=,=} b,   l <= x <= u,   x_j integer for marked j.
///
/// This is the single interchange format between the bill-capping
/// formulations (src/core), the DC-OPF (src/market) and the solvers
/// (simplex / branch-and-bound). Variables and constraints are identified by
/// the dense indices returned from the add_* calls.
class Problem {
 public:
  /// Adds a variable and returns its index.
  int add_variable(std::string name, double lower, double upper,
                   double objective = 0.0, bool is_integer = false);

  /// Adds a {0,1} variable and returns its index.
  int add_binary(std::string name, double objective = 0.0);

  /// Adds a constraint and returns its row index. Terms referencing the same
  /// variable repeatedly are allowed (coefficients are summed by solvers).
  int add_constraint(std::string name, std::vector<Term> terms,
                     Relation relation, double rhs);

  /// Replaces the objective coefficient of a variable.
  void set_objective(int var, double coef);

  /// Replaces a constraint's right-hand side.
  void set_rhs(int row, double rhs);

  /// Sets a constant added to the objective value (default 0).
  void set_objective_constant(double c) noexcept { objective_constant_ = c; }
  double objective_constant() const noexcept { return objective_constant_; }

  void set_sense(Sense sense) noexcept { sense_ = sense; }
  Sense sense() const noexcept { return sense_; }

  /// Tightens variable bounds (used by branch-and-bound). Throws if the
  /// resulting interval is empty beyond tolerance.
  void set_bounds(int var, double lower, double upper);

  /// Marks or unmarks a variable as integer (used by the LP-format parser).
  void set_integer(int var, bool is_integer);

  int num_variables() const noexcept { return static_cast<int>(vars_.size()); }
  int num_constraints() const noexcept {
    return static_cast<int>(rows_.size());
  }
  const Variable& variable(int j) const { return vars_.at(static_cast<std::size_t>(j)); }
  const Constraint& constraint(int i) const { return rows_.at(static_cast<std::size_t>(i)); }
  const std::vector<Variable>& variables() const noexcept { return vars_; }
  const std::vector<Constraint>& constraints() const noexcept { return rows_; }

  /// True if any variable is marked integer.
  bool has_integers() const noexcept;

  /// Objective value (including the constant) of a full assignment.
  double objective_value(std::span<const double> x) const;

  /// Row activity sum(terms) for a full assignment.
  double row_activity(int row, std::span<const double> x) const;

  /// True if `x` satisfies all rows, bounds and integrality within `tol`.
  bool is_feasible(std::span<const double> x, double tol = 1e-6) const;

 private:
  std::vector<Variable> vars_;
  std::vector<Constraint> rows_;
  Sense sense_ = Sense::kMinimize;
  double objective_constant_ = 0.0;
};

/// Termination status of a solve.
enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNodeLimit,
  /// An ArenaSolver solve with a byte cap (MilpOptions::max_arena_bytes)
  /// refused to grow its arena. A typed, recoverable condition — callers
  /// treat it like an iteration limit (degrade), never as a feasible answer;
  /// Solution::has_incumbent() is false for it.
  kArenaExhausted,
};

/// Printable status name.
const char* to_string(SolveStatus status) noexcept;

/// Result of an LP or MILP solve.
struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;        ///< includes the problem's constant
  std::vector<double> x;         ///< primal values, one per variable
  std::vector<double> duals;     ///< LP only: d(objective)/d(rhs_i) per row
  long iterations = 0;           ///< simplex pivots (accumulated for MILP)
  long nodes = 0;                ///< branch-and-bound nodes explored
  double best_bound = 0.0;       ///< MILP: proven bound on the optimum

  bool ok() const noexcept { return status == SolveStatus::kOptimal; }

  /// True when `x` holds a feasible assignment: proven optimal, or the best
  /// incumbent found before the node limit cut the search short.
  /// Degraded-mode callers may act on such a solution without optimality.
  bool has_incumbent() const noexcept {
    return !x.empty() &&
           (status == SolveStatus::kOptimal ||
            status == SolveStatus::kNodeLimit);
  }
};

}  // namespace billcap::lp
