#include "lp/arena_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace billcap::lp {

namespace {

constexpr double kNegInf = -kInfinity;

/// Dual-simplex pivot budget for one warm re-solve. A handful of pivots is
/// the expected case; anything past this bound smells like cycling or a
/// badly stale basis, and the caller falls back to the cold two-phase path.
long dual_pivot_budget(int m) { return std::max<long>(200, 4L * m); }

/// Minimum |pivot| the warm paths will accept. The resident tableau *is*
/// the factorization: one pivot on a 1e-8 element scales a row by 1e8 and
/// silently destroys B^-1 for every later warm re-solve (observed as bogus
/// node bounds on the paper's MILPs). Warm repairs refuse such pivots and
/// report a repair failure so the caller rebuilds cold; the cold two-phase
/// path keeps the reference simplex's pivot_tol rule, bit for bit. A node's
/// dual repair scales the floor by the leaving row's largest entry (at
/// least 1): on a row whose entries have grown, an absolute 1e-7 once
/// admitted a pivot that drove a row's rhs to -6e16.
constexpr double kStablePivot = 1e-7;

/// The pivot's two row kernels, d[j] *= s and d[j] -= f * s[j] over a whole
/// padded tableau row (the cold build's cost loaders reuse the second; f = 1.0
/// is exact, so they match the scalar subtraction). They are free functions so
/// the rows can be restrict-qualified parameters (restrict on local pointers
/// inside a member function does not reach GCC's vectorizer), and `n` is
/// rounded down to even so the trip count is a known multiple of the two-double
/// vector: at GCC's default -O2 ("very cheap") cost model the loops then
/// vectorize with no alias check and no scalar epilogue. Without FMA
/// contraction each lane computes the scalar loop's IEEE result, so the pivot
/// sequence stays bitwise the reference simplex's. tools/ci.sh fails if the
/// row_sub_scaled loop stops being reported vectorized. GCC 12 rejects the
/// one-statement form of row_scale ("no vectype"); the body of two lanes per
/// iteration vectorizes.
void row_scale(double* __restrict d, double s, std::size_t n) {
  n &= ~std::size_t{1};
  for (std::size_t j = 0; j < n; j += 2) {
    d[j] *= s;
    d[j + 1] *= s;
  }
}

void row_sub_scaled(double* __restrict d, const double* __restrict s, double f,
                    std::size_t n) {
  n &= ~std::size_t{1};
  for (std::size_t j = 0; j < n; ++j) d[j] -= f * s[j];
}

}  // namespace

/// All solver state lives here, in flat capacity-reserved storage. The
/// tableau layout matches the reference simplex — columns
/// [structural | slack/surplus | artificial | rhs], rows normalized to
/// rhs >= 0 at build time — and the columns that started as the identity
/// (identity_col) read back B^-1 for the duals and the rhs walk. Each row
/// (and the cost row) is padded from its logical width n_total + 1 to an
/// even stride for the row kernels; the padding lanes start at zero, pivots
/// and cost loads keep them zero, and no scan reads them.
///
/// Bounded columns: an integer variable that maps to one shifted column
/// with a finite upper bound gets no bound row. Its column carries the
/// bound (col_hi) and sits nonbasic at 0 or at col_hi (at_upper), so the
/// simplex is the bounded-variable one: an entering column may stop at its
/// own bound (a flip, no basis change) and a basic one may leave to its
/// upper bound. Every other finite bound keeps its row, so a problem
/// without integer marks builds the reference's tableau and replays its
/// pivot sequence bit for bit. The rhs column holds the basic variables'
/// current values, nonbasic-at-upper contributions included.
struct ArenaSolver::Impl {
  ArenaStats stat;
  std::size_t max_arena_bytes = 0;  ///< this call's byte cap; 0 = unlimited

  // ---- variable mapping onto the nonnegative standard form --------------
  enum class Kind : unsigned char { kShifted, kMirrored, kSplit };
  struct VarMap {
    Kind kind = Kind::kShifted;
    int primary = -1;
    int secondary = -1;
  };
  std::vector<VarMap> maps;
  int n_orig = 0;
  int n_struct = 0;

  // ---- std-row metadata: how to recompute a row's rhs from bounds -------
  struct RowMeta {
    int orig_row = -1;   ///< >= 0: problem constraint; -1: synthesized bound
    int bound_var = -1;  ///< original variable of a bound row
    bool flipped = false;
    Relation relation = Relation::kLessEqual;  ///< after the build-time flip
  };
  std::vector<RowMeta> rows;

  // ---- the flat tableau arena -------------------------------------------
  std::vector<double> tab;        ///< m x stride
  std::vector<double> cost_row;   ///< reduced costs, stride wide
  std::vector<double> std_costs;  ///< current min-sense structural costs
  std::vector<int> basis;
  std::vector<int> identity_col;  ///< per row: the column that was e_i at build
  std::vector<char> is_artificial;
  std::vector<double> col_hi;     ///< per column: upper bound, kInfinity if none
  std::vector<char> at_upper;     ///< per column: nonbasic at col_hi, not at 0
  std::size_t width = 0;   ///< logical row width, n_total + 1
  std::size_t stride = 0;  ///< width rounded up to even
  /// The largest logical tableau and cost row ever held, in doubles. The
  /// byte cap counts these, never the padded capacity, so padding cannot
  /// change a kArenaExhausted decision.
  std::size_t tab_held = 0;
  std::size_t cost_held = 0;
  int m = 0;
  int n_total = 0;
  int first_artificial = 0;
  int num_artificial = 0;
  /// The current phase's objective, kept by pivots and flips. Phase 1 reads
  /// it as the artificials' sum; phase 2 only compares it with itself (a
  /// stall test), so it leaves out the nonbasic-at-upper columns' constant.
  double cost_value = 0.0;
  long iterations_this_solve = 0;
  long lp_iters = 0;  ///< pivots of the LP currently being solved (both phases)

  /// Tableau holds phase-2 reduced costs over a consistent basis, so a
  /// dual-simplex warm re-solve from it is sound.
  bool resident_valid = false;
  /// Every integer variable is kShifted with a finite upper bound, so
  /// branching moves only column bounds and children can warm start.
  bool fast_path_ok = false;

  // ---- per-solve working buffers (reserved once per shape) --------------
  std::vector<double> cur_lo, cur_hi;
  std::vector<double> root_lo, root_hi;
  /// The integer variables' bounds the resident tableau was left at: a
  /// warm node moves only the columns whose bounds differ from these.
  std::vector<double> res_lo, res_hi;
  std::vector<int> int_vars;
  std::vector<double> work_x;    ///< original-space recovery
  std::vector<double> row_buf;   ///< dense std coefficients of one row
  std::vector<double> snap_buf;  ///< incumbent snapping scratch

  // ---- pooled branch-and-bound nodes ------------------------------------
  struct NodeSlot {
    int var = -1;  ///< branched variable; -1 for the root
    double lo = 0.0, hi = 0.0;
    int parent = -1;
    double parent_bound = kNegInf;
  };
  std::vector<NodeSlot> pool;
  std::vector<int> dfs;  ///< open nodes, indices into pool

  // =======================================================================

  double& at(int i, int j) {
    return tab[static_cast<std::size_t>(i) * stride + static_cast<std::size_t>(j)];
  }
  double at(int i, int j) const {
    return tab[static_cast<std::size_t>(i) * stride + static_cast<std::size_t>(j)];
  }
  double rhs(int i) const { return at(i, n_total); }

  double* row_data(int i) {
    return tab.data() + static_cast<std::size_t>(i) * stride;
  }

  /// Logical bytes of the tableau plus its cost row.
  std::size_t tableau_bytes() const {
    return (static_cast<std::size_t>(m) + 1) * width * sizeof(double);
  }
  std::size_t footprint() const {
    return tab_held * sizeof(double) + cost_held * sizeof(double) +
           pool.capacity() * sizeof(NodeSlot);
  }

  double offset_of(int j) const {
    switch (maps[static_cast<std::size_t>(j)].kind) {
      case Kind::kShifted: return cur_lo[static_cast<std::size_t>(j)];
      case Kind::kMirrored: return cur_hi[static_cast<std::size_t>(j)];
      case Kind::kSplit: return 0.0;
    }
    return 0.0;
  }

  // ---- per-solve setup ---------------------------------------------------

  void load_bounds(const Problem& problem) {
    const std::size_t n = static_cast<std::size_t>(problem.num_variables());
    n_orig = problem.num_variables();
    root_lo.resize(n);
    root_hi.resize(n);
    int_vars.clear();
    int_vars.reserve(n);
    for (int j = 0; j < problem.num_variables(); ++j) {
      const Variable& v = problem.variable(j);
      root_lo[static_cast<std::size_t>(j)] = v.lower;
      root_hi[static_cast<std::size_t>(j)] = v.upper;
      if (v.is_integer) int_vars.push_back(j);
    }
    cur_lo = root_lo;
    cur_hi = root_hi;
  }

  void build_maps() {
    maps.resize(static_cast<std::size_t>(n_orig));
    n_struct = 0;
    fast_path_ok = true;
    for (int j = 0; j < n_orig; ++j) {
      VarMap& mp = maps[static_cast<std::size_t>(j)];
      const double lo = cur_lo[static_cast<std::size_t>(j)];
      const double hi = cur_hi[static_cast<std::size_t>(j)];
      if (lo == kNegInf && hi == kInfinity) {
        mp.kind = Kind::kSplit;
        mp.primary = n_struct++;
        mp.secondary = n_struct++;
      } else if (lo == kNegInf) {
        mp.kind = Kind::kMirrored;
        mp.primary = n_struct++;
        mp.secondary = -1;
      } else {
        mp.kind = Kind::kShifted;
        mp.primary = n_struct++;
        mp.secondary = -1;
      }
    }
    for (const int j : int_vars) {
      const VarMap& mp = maps[static_cast<std::size_t>(j)];
      if (mp.kind != Kind::kShifted ||
          cur_hi[static_cast<std::size_t>(j)] == kInfinity)
        fast_path_ok = false;
    }
  }

  void build_std_costs(const Problem& problem) {
    const bool maximize = problem.sense() == Sense::kMaximize;
    std_costs.assign(static_cast<std::size_t>(n_struct), 0.0);
    for (int j = 0; j < n_orig; ++j) {
      const VarMap& mp = maps[static_cast<std::size_t>(j)];
      const double c = maximize ? -problem.variable(j).objective
                                : problem.variable(j).objective;
      switch (mp.kind) {
        case Kind::kShifted:
          std_costs[static_cast<std::size_t>(mp.primary)] += c;
          break;
        case Kind::kMirrored:
          std_costs[static_cast<std::size_t>(mp.primary)] -= c;
          break;
        case Kind::kSplit:
          std_costs[static_cast<std::size_t>(mp.primary)] += c;
          std_costs[static_cast<std::size_t>(mp.secondary)] -= c;
          break;
      }
    }
  }

  /// Raw (pre-flip) std rhs of row meta `rm` under the current bounds.
  double raw_rhs(const Problem& problem, const RowMeta& rm) const {
    if (rm.orig_row >= 0) {
      const Constraint& c = problem.constraint(rm.orig_row);
      double r = c.rhs;
      for (const Term& t : c.terms) r -= t.coef * offset_of(t.var);
      return r;
    }
    const std::size_t v = static_cast<std::size_t>(rm.bound_var);
    if (maps[v].kind == Kind::kShifted) return cur_hi[v] - cur_lo[v];
    return cur_lo[v] - cur_hi[v];  // mirrored lower-bound row
  }

  // ---- cold build: two-phase from scratch --------------------------------

  /// Builds the tableau from `problem` under the current bounds and runs
  /// phase 1 + phase 2. Mirrors the reference simplex construction exactly
  /// (including the rhs-sign row flips). Returns kIterationLimit-class
  /// statuses as the reference simplex does; kArenaExhausted when the call's
  /// byte cap would be exceeded.
  SolveStatus cold_build(const Problem& problem, const SimplexOptions& lp) {
    lp_iters = 0;
    build_maps();
    // An integer kShifted variable with a finite upper bound is a bounded
    // column: its bound is carried by the column, not by a row.
    const auto bounded = [&](int j) {
      const std::size_t v = static_cast<std::size_t>(j);
      return problem.variable(j).is_integer && maps[v].kind == Kind::kShifted &&
             cur_hi[v] != kInfinity;
    };

    // Row metas: original constraints, then the bound rows of every finite
    // bound that is not a bounded column's.
    rows.clear();
    rows.reserve(static_cast<std::size_t>(problem.num_constraints() + n_orig));
    for (int i = 0; i < problem.num_constraints(); ++i) {
      RowMeta rm;
      rm.orig_row = i;
      rm.relation = problem.constraint(i).relation;
      rows.push_back(rm);
    }
    for (int j = 0; j < n_orig; ++j) {
      const VarMap& mp = maps[static_cast<std::size_t>(j)];
      const double hi = cur_hi[static_cast<std::size_t>(j)];
      const double lo = cur_lo[static_cast<std::size_t>(j)];
      if (mp.kind == Kind::kShifted && hi != kInfinity && !bounded(j)) {
        RowMeta rm;
        rm.bound_var = j;
        rm.relation = Relation::kLessEqual;
        rows.push_back(rm);
      } else if (mp.kind == Kind::kMirrored && lo != kNegInf) {
        RowMeta rm;
        rm.bound_var = j;
        rm.relation = Relation::kGreaterEqual;
        rows.push_back(rm);
      }
    }
    m = static_cast<int>(rows.size());

    // Decide flips and count slack/artificial columns.
    int n_slack = 0;
    num_artificial = 0;
    for (RowMeta& rm : rows) {
      rm.flipped = false;
      rm.relation = rm.orig_row >= 0 ? problem.constraint(rm.orig_row).relation
                                     : rm.relation;
      if (rm.bound_var >= 0)
        rm.relation = maps[static_cast<std::size_t>(rm.bound_var)].kind ==
                              Kind::kShifted
                          ? Relation::kLessEqual
                          : Relation::kGreaterEqual;
      const double r = raw_rhs(problem, rm);
      if (r < 0.0) {
        rm.flipped = true;
        if (rm.relation == Relation::kLessEqual)
          rm.relation = Relation::kGreaterEqual;
        else if (rm.relation == Relation::kGreaterEqual)
          rm.relation = Relation::kLessEqual;
      }
      if (rm.relation != Relation::kEqual) ++n_slack;
      if (rm.relation != Relation::kLessEqual) ++num_artificial;
    }
    n_total = n_struct + n_slack + num_artificial;
    width = static_cast<std::size_t>(n_total) + 1;
    stride = (width + 1) & ~std::size_t{1};
    first_artificial = n_struct + n_slack;

    if (max_arena_bytes != 0 &&
        tableau_bytes() + pool.capacity() * sizeof(NodeSlot) > max_arena_bytes) {
      resident_valid = false;
      return SolveStatus::kArenaExhausted;
    }

    tab.assign(static_cast<std::size_t>(m) * stride, 0.0);
    cost_row.assign(stride, 0.0);
    tab_held = std::max(tab_held, static_cast<std::size_t>(m) * width);
    cost_held = std::max(cost_held, width);
    basis.assign(static_cast<std::size_t>(m), -1);
    identity_col.assign(static_cast<std::size_t>(m), -1);
    is_artificial.assign(static_cast<std::size_t>(n_total), 0);
    col_hi.assign(static_cast<std::size_t>(n_total), kInfinity);
    at_upper.assign(static_cast<std::size_t>(n_total), 0);
    for (const int j : int_vars) {
      const std::size_t v = static_cast<std::size_t>(j);
      if (bounded(j))
        col_hi[static_cast<std::size_t>(maps[v].primary)] = cur_hi[v] - cur_lo[v];
    }
    res_lo = cur_lo;
    res_hi = cur_hi;
    row_buf.assign(static_cast<std::size_t>(n_struct), 0.0);

    int next_slack = n_struct;
    int next_art = first_artificial;
    for (int i = 0; i < m; ++i) {
      const RowMeta& rm = rows[static_cast<std::size_t>(i)];
      // Dense std coefficients of this row.
      std::fill(row_buf.begin(), row_buf.end(), 0.0);
      if (rm.orig_row >= 0) {
        for (const Term& t : problem.constraint(rm.orig_row).terms) {
          const VarMap& mp = maps[static_cast<std::size_t>(t.var)];
          switch (mp.kind) {
            case Kind::kShifted:
              row_buf[static_cast<std::size_t>(mp.primary)] += t.coef;
              break;
            case Kind::kMirrored:
              row_buf[static_cast<std::size_t>(mp.primary)] -= t.coef;
              break;
            case Kind::kSplit:
              row_buf[static_cast<std::size_t>(mp.primary)] += t.coef;
              row_buf[static_cast<std::size_t>(mp.secondary)] -= t.coef;
              break;
          }
        }
      } else {
        const VarMap& mp = maps[static_cast<std::size_t>(rm.bound_var)];
        row_buf[static_cast<std::size_t>(mp.primary)] +=
            mp.kind == Kind::kShifted ? 1.0 : -1.0;
      }
      double r = raw_rhs(problem, rm);
      if (rm.flipped) {
        for (double& c : row_buf) c = -c;
        r = -r;
      }
      for (int j = 0; j < n_struct; ++j)
        at(i, j) = row_buf[static_cast<std::size_t>(j)];
      at(i, n_total) = r;

      switch (rm.relation) {
        case Relation::kLessEqual:
          at(i, next_slack) = 1.0;
          basis[static_cast<std::size_t>(i)] = next_slack;
          identity_col[static_cast<std::size_t>(i)] = next_slack;
          ++next_slack;
          break;
        case Relation::kGreaterEqual:
          at(i, next_slack) = -1.0;
          ++next_slack;
          at(i, next_art) = 1.0;
          is_artificial[static_cast<std::size_t>(next_art)] = 1;
          basis[static_cast<std::size_t>(i)] = next_art;
          identity_col[static_cast<std::size_t>(i)] = next_art;
          ++next_art;
          break;
        case Relation::kEqual:
          at(i, next_art) = 1.0;
          is_artificial[static_cast<std::size_t>(next_art)] = 1;
          basis[static_cast<std::size_t>(i)] = next_art;
          identity_col[static_cast<std::size_t>(i)] = next_art;
          ++next_art;
          break;
      }
    }

    build_std_costs(problem);
    if (num_artificial > 0) {
      load_phase1_costs();
      const SolveStatus st = primal_iterate(/*phase1=*/true, lp);
      if (st != SolveStatus::kOptimal) {
        resident_valid = false;
        return st;
      }
      if (cost_value > lp.feasibility_tol) {
        resident_valid = false;
        return SolveStatus::kInfeasible;
      }
      purge_artificials(lp);
    }
    load_phase2_costs();
    const SolveStatus st = primal_iterate(/*phase1=*/false, lp);
    resident_valid = (st == SolveStatus::kOptimal);
    return st;
  }

  void load_phase1_costs() {
    std::fill(cost_row.begin(), cost_row.end(), 0.0);
    for (int j = first_artificial; j < n_total; ++j)
      cost_row[static_cast<std::size_t>(j)] = 1.0;
    for (int i = 0; i < m; ++i) {
      if (!is_artificial[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])])
        continue;
      row_sub_scaled(cost_row.data(), row_data(i), 1.0, stride);
    }
    cost_value = -cost_row[static_cast<std::size_t>(n_total)];
    cost_row[static_cast<std::size_t>(n_total)] = 0.0;
  }

  void load_phase2_costs() {
    std::fill(cost_row.begin(), cost_row.end(), 0.0);
    for (int j = 0; j < n_struct; ++j)
      cost_row[static_cast<std::size_t>(j)] = std_costs[static_cast<std::size_t>(j)];
    for (int i = 0; i < m; ++i) {
      const int b = basis[static_cast<std::size_t>(i)];
      const double cb = (b < n_struct) ? std_costs[static_cast<std::size_t>(b)] : 0.0;
      if (cb == 0.0) continue;
      row_sub_scaled(cost_row.data(), row_data(i), cb, stride);
    }
    cost_value = -cost_row[static_cast<std::size_t>(n_total)];
    cost_row[static_cast<std::size_t>(n_total)] = 0.0;
  }

  void purge_artificials(const SimplexOptions& lp) {
    for (int i = 0; i < m; ++i) {
      const int b = basis[static_cast<std::size_t>(i)];
      if (!is_artificial[static_cast<std::size_t>(b)]) continue;
      int entering = -1;
      for (int j = 0; j < first_artificial; ++j) {
        if (std::abs(at(i, j)) > lp.pivot_tol) {
          entering = j;
          break;
        }
      }
      if (entering >= 0) pivot_to(i, entering, /*to_upper=*/false);
    }
  }

  // ---- primal simplex (reference rules, drift-free ratio tie-break) -----

  /// `stable_pivot` > 0 makes the iteration refuse pivot elements below
  /// that magnitude (returning kIterationLimit, i.e. "repair failed, go
  /// cold"). Warm polishing passes set it; the cold path leaves it 0 to
  /// match the reference simplex's pivot sequence exactly. A flip (the
  /// entering column reaching its own bound first) changes no basis: it
  /// counts toward max_iterations but is not a pivot.
  SolveStatus primal_iterate(bool phase1, const SimplexOptions& lp,
                             double stable_pivot = 0.0) {
    long since_improvement = 0;
    double best_seen = cost_value;
    bool bland = false;
    for (;;) {
      if (lp_iters >= lp.max_iterations) return SolveStatus::kIterationLimit;

      const int entering = choose_entering(phase1, bland, lp);
      if (entering < 0) return SolveStatus::kOptimal;

      const Leaving out = choose_leaving(entering, lp);
      if (out.flip) {
        flip(entering);
        ++lp_iters;
      } else {
        if (out.row < 0) return SolveStatus::kUnbounded;
        if (stable_pivot > 0.0 &&
            std::abs(at(out.row, entering)) < stable_pivot)
          return SolveStatus::kIterationLimit;
        pivot_to(out.row, entering, out.to_upper);
        ++lp_iters;
        ++iterations_this_solve;
        ++stat.primal_iterations;
      }

      if (cost_value < best_seen - 1e-12) {
        best_seen = cost_value;
        since_improvement = 0;
        bland = false;
      } else if (++since_improvement > lp.stall_threshold) {
        bland = true;
      }
    }
  }

  /// +1 when column j would enter by rising from 0, -1 when it would fall
  /// from its upper bound.
  double direction(int j) const {
    return at_upper[static_cast<std::size_t>(j)] ? -1.0 : 1.0;
  }

  /// Dantzig pricing over the reduced costs read in each column's
  /// direction (an at-upper column improves when its cost is positive). A
  /// fixed column (upper bound 0) cannot move and never enters.
  int choose_entering(bool phase1, bool bland, const SimplexOptions& lp) const {
    int best = -1;
    double best_rc = -lp.optimality_tol;
    for (int j = 0; j < n_total; ++j) {
      if (!phase1 && is_artificial[static_cast<std::size_t>(j)]) continue;
      const double rc = direction(j) * cost_row[static_cast<std::size_t>(j)];
      if (rc < -lp.optimality_tol) {
        if (col_hi[static_cast<std::size_t>(j)] == 0.0) continue;
        if (bland) return j;
        if (rc < best_rc) {
          best_rc = rc;
          best = j;
        }
      }
    }
    return best;
  }

  /// The outcome of a primal ratio test.
  struct Leaving {
    int row = -1;           ///< leaving row; -1 with !flip means unbounded
    bool to_upper = false;  ///< the leaving variable stops at its upper bound
    bool flip = false;      ///< the entering column reaches its own bound first
  };

  /// Exact-minimum ratio test with a smallest-basis-index tie-break inside
  /// one absolute epsilon of the true minimum. Anchoring the window at the
  /// exact minimum (instead of letting it drift with each accepted tie)
  /// keeps degenerate pivots deterministic and cycling-resistant; the same
  /// rule is pinned by tests/lp/simplex_test.cpp. A basic variable stops
  /// at 0 or, on a bounded column, at its upper bound; the entering column
  /// flips instead when its own bound is no farther than every row's.
  Leaving choose_leaving(int entering, const SimplexOptions& lp) const {
    const double dir = direction(entering);
    const auto ratio_of = [&](int i, double& ratio) {
      const double a = dir * at(i, entering);
      if (a > lp.pivot_tol) {
        ratio = std::max(rhs(i), 0.0) / a;
        return true;
      }
      if (a < -lp.pivot_tol) {
        const double hi =
            col_hi[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])];
        if (hi == kInfinity) return false;
        ratio = std::max(hi - rhs(i), 0.0) / -a;
        return true;
      }
      return false;
    };
    double min_ratio = kInfinity;
    double ratio = 0.0;
    for (int i = 0; i < m; ++i)
      if (ratio_of(i, ratio) && ratio < min_ratio) min_ratio = ratio;
    Leaving out;
    const double own = col_hi[static_cast<std::size_t>(entering)];
    if (own != kInfinity && own <= min_ratio) {
      out.flip = true;
      return out;
    }
    if (min_ratio == kInfinity) return out;
    for (int i = 0; i < m; ++i) {
      if (!ratio_of(i, ratio)) continue;
      if (ratio <= min_ratio + 1e-12 &&
          (out.row < 0 || basis[static_cast<std::size_t>(i)] <
                              basis[static_cast<std::size_t>(out.row)])) {
        out.row = i;
        out.to_upper = dir * at(i, entering) < 0.0;
      }
    }
    return out;
  }

  /// Moves nonbasic column e from one bound to the other: every basic
  /// value shifts by its column times the step. O(m), no basis change.
  void flip(int e) {
    const std::size_t c = static_cast<std::size_t>(e);
    const double step = direction(e) * col_hi[c];
    for (int i = 0; i < m; ++i) at(i, n_total) -= at(i, e) * step;
    cost_value += cost_row[c] * step;
    at_upper[c] = at_upper[c] ? 0 : 1;
  }

  /// pivot() for the bounded simplex: the leaving variable stops at 0 or at
  /// its upper bound, and the entering one starts from where it sits. The
  /// row kernels move every rhs by the pivot row's rhs; taking the leaving
  /// bound out of that rhs first makes it the entering variable's step, and
  /// adding its starting bound back afterwards makes it its value. Both
  /// adjustments are skipped at 0, so an unbounded problem pivots exactly
  /// as the reference simplex does.
  void pivot_to(int leaving_row, int entering_col, bool to_upper) {
    const std::size_t leaving =
        static_cast<std::size_t>(basis[static_cast<std::size_t>(leaving_row)]);
    const std::size_t e = static_cast<std::size_t>(entering_col);
    if (to_upper) at(leaving_row, n_total) -= col_hi[leaving];
    const bool from_upper = at_upper[e] != 0;
    pivot(leaving_row, entering_col);
    if (from_upper) {
      at(leaving_row, n_total) += col_hi[e];
      at_upper[e] = 0;
    }
    at_upper[leaving] = to_upper ? 1 : 0;
  }

  void pivot(int leaving_row, int entering_col) {
    const std::size_t e = static_cast<std::size_t>(entering_col);
    double* const prow = row_data(leaving_row);
    row_scale(prow, 1.0 / prow[e], stride);
    prow[e] = 1.0;

    for (int i = 0; i < m; ++i) {
      if (i == leaving_row) continue;
      double* const r = row_data(i);
      const double factor = r[e];
      if (factor == 0.0) continue;
      row_sub_scaled(r, prow, factor, stride);
      r[e] = 0.0;
    }
    const double cfactor = cost_row[e];
    if (cfactor != 0.0) {
      row_sub_scaled(cost_row.data(), prow, cfactor, stride);
      cost_row[e] = 0.0;
      cost_value += cfactor * rhs(leaving_row);
    }
    basis[static_cast<std::size_t>(leaving_row)] = entering_col;
  }

  // ---- dual simplex: repair primal feasibility after a bound move --------

  /// Requires a dual-feasible resident tableau (every column's reduced cost
  /// read in its direction >= -tol, which bound moves preserve). A basic
  /// variable below 0 or above its column's upper bound leaves to the bound
  /// it breaks, the most violated first. Terminates kOptimal (primal
  /// feasible again), kInfeasible (dual unbounded: no feasible point for
  /// these bounds), or kIterationLimit (budget blown or no stable pivot —
  /// caller falls back cold).
  SolveStatus dual_iterate(const SimplexOptions& lp) {
    const long budget = dual_pivot_budget(m);
    long local = 0;
    for (;;) {
      int r = -1;
      bool to_upper = false;
      double most = lp.feasibility_tol;
      for (int i = 0; i < m; ++i) {
        const double v = rhs(i);
        const double over =
            v - col_hi[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])];
        const bool up = over > -v;
        const double excess = up ? over : -v;
        if (excess > most ||
            (excess == most && r >= 0 &&
             basis[static_cast<std::size_t>(i)] <
                 basis[static_cast<std::size_t>(r)])) {
          most = excess;
          r = i;
          to_upper = up;
        }
      }
      if (r < 0) return SolveStatus::kOptimal;
      if (++local > budget) return SolveStatus::kIterationLimit;
      double row_max = 1.0;
      for (int j = 0; j < n_total; ++j)
        if (!is_artificial[static_cast<std::size_t>(j)])
          row_max = std::max(row_max, std::abs(at(r, j)));
      int e = -1;
      const SolveStatus st =
          dual_entering(r, to_upper, kStablePivot * row_max, lp, e);
      if (st != SolveStatus::kOptimal) return st;
      pivot_to(r, e, to_upper);
      ++iterations_this_solve;
      ++stat.dual_iterations;
    }
  }

  /// Entering column `e` of a dual-simplex pivot on row r, whose basic
  /// variable leaves up to 0 (`to_upper` false) or down to its upper bound.
  /// A column can carry it there when moving the column off its bound
  /// moves the basic variable that way; among those, exact minimum of
  /// |reduced cost| / |a_rj|, smallest index inside the epsilon window
  /// (same anchored tie-break as the primal ratio test). Only numerically
  /// solid pivots (|a_rj| > `floor`) are eligible. Returns kOptimal with
  /// `e` set; kInfeasible, certified only when no column can move the
  /// variable at all; or kIterationLimit when some can but none is safe to
  /// pivot on, so the warm repair cannot proceed reliably and the caller
  /// rebuilds cold instead.
  SolveStatus dual_entering(int r, bool to_upper, double floor,
                            const SimplexOptions& lp, int& e) const {
    const double sense = to_upper ? -1.0 : 1.0;
    const int leaving = basis[static_cast<std::size_t>(r)];
    // The row entry in the leaving variable's pull (< 0 when column j
    // helps), or 0 for a column that cannot enter.
    const auto pull = [&](int j) {
      const std::size_t c = static_cast<std::size_t>(j);
      if (is_artificial[c] || j == leaving || col_hi[c] == 0.0) return 0.0;
      return sense * direction(j) * at(r, j);
    };
    double min_ratio = kInfinity;
    bool any_pull = false;
    for (int j = 0; j < n_total; ++j) {
      const double a = pull(j);
      if (a >= -lp.pivot_tol) continue;
      any_pull = true;
      if (a >= -floor) continue;
      const double ratio =
          std::max(direction(j) * cost_row[static_cast<std::size_t>(j)], 0.0) /
          (-a);
      if (ratio < min_ratio) min_ratio = ratio;
    }
    if (min_ratio == kInfinity)
      return any_pull ? SolveStatus::kIterationLimit : SolveStatus::kInfeasible;
    e = -1;
    for (int j = 0; j < n_total; ++j) {
      const double a = pull(j);
      if (a >= -floor) continue;
      const double ratio =
          std::max(direction(j) * cost_row[static_cast<std::size_t>(j)], 0.0) /
          (-a);
      if (ratio <= min_ratio + 1e-12) {
        e = j;
        break;  // smallest index in the window
      }
    }
    return e < 0 ? SolveStatus::kIterationLimit : SolveStatus::kOptimal;
  }

  /// Brings the resident tableau to the current node's integer bounds. A
  /// nonbasic column whose bounds moved goes to the bound its reduced cost
  /// keeps dual feasible, and every basic value shifts by its column times
  /// the step: O(m) per moved variable. A basic one only re-anchors its
  /// value at the new lower bound; if that leaves it outside its interval,
  /// the dual simplex repairs it.
  void move_bounds(const SimplexOptions& lp) {
    for (const int j : int_vars) {
      const std::size_t v = static_cast<std::size_t>(j);
      const double lo = cur_lo[v];
      const double hi = cur_hi[v];
      if (lo == res_lo[v] && hi == res_hi[v]) continue;
      const int col = maps[v].primary;
      const std::size_t c = static_cast<std::size_t>(col);
      int row = -1;
      for (int i = 0; i < m && row < 0; ++i)
        if (basis[static_cast<std::size_t>(i)] == col) row = i;
      if (row >= 0) {
        at(row, n_total) -= lo - res_lo[v];
      } else {
        const double d = cost_row[c];
        bool up = at_upper[c] != 0;
        if (up ? d > lp.optimality_tol : d < -lp.optimality_tol) up = !up;
        const double step = (up ? hi : lo) - (at_upper[c] ? res_hi[v] : res_lo[v]);
        if (step != 0.0)
          for (int i = 0; i < m; ++i) at(i, n_total) -= at(i, col) * step;
        at_upper[c] = up ? 1 : 0;
      }
      col_hi[c] = hi - lo;
      res_lo[v] = lo;
      res_hi[v] = hi;
    }
  }

  /// Warm re-solve of the current node's LP: move the changed bounds into
  /// the resident tableau, repair with dual simplex, polish primal.
  SolveStatus warm_eval(const SimplexOptions& lp) {
    lp_iters = 0;
    move_bounds(lp);
    SolveStatus st = dual_iterate(lp);
    if (st != SolveStatus::kOptimal) return st;
    st = primal_iterate(/*phase1=*/false, lp, kStablePivot);
    if (st != SolveStatus::kOptimal) return st;
    // A basic artificial that phase 1 parked at zero (redundant row) may go
    // positive under the new bounds; the "solution" then violates its
    // original constraint and its objective is not a valid node bound. The
    // dual simplex cannot fix this (artificials never re-enter), so surface
    // it as a repair failure and let the caller rebuild cold.
    for (int i = 0; i < m; ++i) {
      if (is_artificial[static_cast<std::size_t>(
              basis[static_cast<std::size_t>(i)])] &&
          rhs(i) > lp.feasibility_tol)
        return SolveStatus::kIterationLimit;
    }
    return SolveStatus::kOptimal;
  }

  // ---- solution recovery -------------------------------------------------

  void recover_x(Solution& sol) {
    work_x.assign(static_cast<std::size_t>(n_orig), 0.0);
    // Structural std values from the basis.
    snap_buf.assign(static_cast<std::size_t>(n_struct), 0.0);
    for (int i = 0; i < m; ++i) {
      const int b = basis[static_cast<std::size_t>(i)];
      if (b < n_struct) snap_buf[static_cast<std::size_t>(b)] = rhs(i);
    }
    for (int j = 0; j < n_orig; ++j) {
      const VarMap& mp = maps[static_cast<std::size_t>(j)];
      double value = 0.0;
      switch (mp.kind) {
        case Kind::kShifted:
          value = at_upper[static_cast<std::size_t>(mp.primary)]
                      ? cur_hi[static_cast<std::size_t>(j)]
                      : cur_lo[static_cast<std::size_t>(j)] +
                            snap_buf[static_cast<std::size_t>(mp.primary)];
          break;
        case Kind::kMirrored:
          value = cur_hi[static_cast<std::size_t>(j)] -
                  snap_buf[static_cast<std::size_t>(mp.primary)];
          break;
        case Kind::kSplit:
          value = snap_buf[static_cast<std::size_t>(mp.primary)] -
                  snap_buf[static_cast<std::size_t>(mp.secondary)];
          break;
      }
      work_x[static_cast<std::size_t>(j)] = value;
    }
    sol.x = work_x;
  }

  /// Row duals of an optimal LP, read off the resident tableau exactly as
  /// the reference simplex does: y_i = -(reduced cost of row i's identity
  /// column), undoing the build-time flip and the max-sense negation.
  /// Original constraints are the first rows of the tableau.
  double row_dual(const Problem& problem, int i) const {
    double y = -cost_row[static_cast<std::size_t>(
        identity_col[static_cast<std::size_t>(i)])];
    if (rows[static_cast<std::size_t>(i)].flipped) y = -y;
    if (problem.sense() == Sense::kMaximize) y = -y;
    return y;
  }

  void recover_duals(const Problem& problem, Solution& sol) const {
    sol.duals.resize(static_cast<std::size_t>(problem.num_constraints()));
    for (int i = 0; i < problem.num_constraints(); ++i)
      sol.duals[static_cast<std::size_t>(i)] = row_dual(problem, i);
  }

  // ---- rhs ranging: a parametric dual-simplex walk on one row -----------

  void range_rhs(const Problem& problem, int row, double direction,
                 double t_max, RhsRange& out) {
    if (problem.has_integers())
      throw std::invalid_argument("ArenaSolver::range_rhs: LP only");
    if (row < 0 || row >= problem.num_constraints())
      throw std::invalid_argument("ArenaSolver::range_rhs: row out of range");
    out.breakpoints.clear();
    out.start = solve(problem, MilpOptions{});
    if (!out.start.ok()) {
      out.end = RhsRange::End::kRefused;
      out.end_t = 0.0;
      return;
    }
    // An LP's only node is the root, so its optimal tableau is resident.
    // In the build-time row convention the rhs moves by `d` per unit t.
    const double d = rows[static_cast<std::size_t>(row)].flipped ? -direction
                                                                 : direction;
    const int col = identity_col[static_cast<std::size_t>(row)];
    const SimplexOptions lp;
    const long budget = dual_pivot_budget(m);
    long pivots = 0;
    const auto refuse = [&](double t) {
      out.end = RhsRange::End::kRefused;
      out.end_t = t;
      ++stat.range_refusals;
    };
    double t = 0.0;
    for (;;) {
      // Basic values move as x_B(t + s) = x_B(t) + s * d * B^-1 e_row; the
      // first to reach zero leaves (exact-minimum ratio, smallest basis
      // index inside the epsilon window, as in the primal ratio test).
      double step = kInfinity;
      for (int i = 0; i < m; ++i) {
        const double g = d * at(i, col);
        if (g > lp.pivot_tol &&
            is_artificial[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])])
          return refuse(t);  // a redundant row's artificial would go positive
        if (g < -lp.pivot_tol) step = std::min(step, std::max(rhs(i), 0.0) / -g);
      }
      if (step == kInfinity || t + step > t_max) {
        out.end = RhsRange::End::kReachedMax;
        out.end_t = t_max;
        return;
      }
      int leave = -1;
      for (int i = 0; i < m; ++i) {
        const double g = d * at(i, col);
        if (g >= -lp.pivot_tol) continue;
        if (std::max(rhs(i), 0.0) / -g <= step + 1e-12 &&
            (leave < 0 || basis[static_cast<std::size_t>(i)] <
                              basis[static_cast<std::size_t>(leave)]))
          leave = i;
      }
      t += step;
      for (int i = 0; i < m; ++i) at(i, n_total) += step * d * at(i, col);
      at(leave, n_total) = 0.0;  // exactly at its bound at the breakpoint

      // One dual-simplex pivot replaces it. A row with no negative entry
      // certifies that no rhs past t is feasible.
      int e = -1;
      const SolveStatus st =
          dual_entering(leave, /*to_upper=*/false, kStablePivot, lp, e);
      if (st == SolveStatus::kInfeasible) {
        out.end = RhsRange::End::kInfeasible;
        out.end_t = t;
        return;
      }
      if (st != SolveStatus::kOptimal || ++pivots > budget) return refuse(t);
      pivot(leave, e);
      ++stat.dual_iterations;
      out.breakpoints.push_back({t, row_dual(problem, row)});
    }
  }

  // ---- branch-and-bound ---------------------------------------------------

  /// Applies node `idx`'s bound chain onto cur_lo/cur_hi (integer variables
  /// only — continuous bounds never change during the search). Returns
  /// false when some interval is empty (the node is pruned).
  bool apply_node_bounds(int idx) {
    for (const int j : int_vars) {
      cur_lo[static_cast<std::size_t>(j)] = root_lo[static_cast<std::size_t>(j)];
      cur_hi[static_cast<std::size_t>(j)] = root_hi[static_cast<std::size_t>(j)];
    }
    for (int i = idx; i >= 0; i = pool[static_cast<std::size_t>(i)].parent) {
      const NodeSlot& s = pool[static_cast<std::size_t>(i)];
      if (s.var < 0) continue;
      const std::size_t v = static_cast<std::size_t>(s.var);
      cur_lo[v] = std::max(cur_lo[v], s.lo);
      cur_hi[v] = std::min(cur_hi[v], s.hi);
    }
    for (const int j : int_vars) {
      const std::size_t v = static_cast<std::size_t>(j);
      if (cur_lo[v] > cur_hi[v] + 1e-9) return false;
      cur_hi[v] = std::max(cur_lo[v], cur_hi[v]);
    }
    return true;
  }

  /// True when `x` satisfies every row of `problem` to within 1e-6.
  static bool rows_hold(const Problem& problem, std::span<const double> x) {
    for (int i = 0; i < problem.num_constraints(); ++i) {
      const Constraint& c = problem.constraint(i);
      const double a = problem.row_activity(i, x);
      if ((c.relation != Relation::kGreaterEqual && a > c.rhs + 1e-6) ||
          (c.relation != Relation::kLessEqual && a < c.rhs - 1e-6))
        return false;
    }
    return true;
  }

  int pick_branch_variable(const Problem& problem, std::span<const double> x,
                           double tol) const {
    int best = -1;
    double best_frac_dist = tol;
    for (int j = 0; j < problem.num_variables(); ++j) {
      if (!problem.variable(j).is_integer) continue;
      const double value = x[static_cast<std::size_t>(j)];
      const double frac = value - std::floor(value);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > best_frac_dist) {
        best_frac_dist = dist;
        best = j;
      }
    }
    return best;
  }

  /// Grows the node pool (between node expansions, never inside the
  /// simplex loops). Returns false when the call's byte cap forbids it.
  bool ensure_pool_capacity(std::size_t needed) {
    if (needed <= pool.capacity()) return true;
    std::size_t next = std::max<std::size_t>(1024, pool.capacity() * 2);
    while (next < needed) next *= 2;
    if (max_arena_bytes != 0 &&
        tableau_bytes() + next * sizeof(NodeSlot) > max_arena_bytes)
      return false;
    pool.reserve(next);
    dfs.reserve(next);
    return true;
  }

  Solution solve(const Problem& problem, const MilpOptions& options) {
    // An arena already holding more than this call's cap is exhausted by
    // definition: a pool grown by an earlier solve would otherwise sail past
    // the growth checks.
    max_arena_bytes = options.max_arena_bytes;
    if (max_arena_bytes != 0 && footprint() > max_arena_bytes) {
      Solution sol;
      sol.status = SolveStatus::kArenaExhausted;
      return sol;
    }
    const bool maximize = problem.sense() == Sense::kMaximize;
    const auto to_min = [maximize](double obj) { return maximize ? -obj : obj; };
    iterations_this_solve = 0;

    Solution best;
    best.status = SolveStatus::kInfeasible;
    double incumbent = kInfinity;
    long nodes = 0;
    bool hit_node_limit = false;
    bool exhausted = false;
    double root_bound = kNegInf;
    bool root_known = false;

    // ---- root: always cold; no basis survives from an earlier solve -----
    load_bounds(problem);
    resident_valid = false;

    // ---- depth-first search over pooled nodes ---------------------------
    pool.clear();
    dfs.clear();
    if (!ensure_pool_capacity(4)) {
      best.status = SolveStatus::kArenaExhausted;
      return best;
    }
    pool.push_back(NodeSlot{});  // root
    dfs.push_back(0);

    while (!dfs.empty()) {
      if (nodes >= options.max_nodes) {
        hit_node_limit = true;
        break;
      }
      const int idx = dfs.back();
      dfs.pop_back();
      const NodeSlot node = pool[static_cast<std::size_t>(idx)];

      if (node.parent_bound >= incumbent - options.absolute_gap) continue;
      if (!apply_node_bounds(idx)) continue;

      ++nodes;
      ++stat.nodes_explored;

      // ---- node LP -------------------------------------------------------
      SolveStatus st = SolveStatus::kIterationLimit;
      bool solved_warm = false;
      if (resident_valid && fast_path_ok) {
        st = warm_eval(options.lp);
        if (st == SolveStatus::kOptimal || st == SolveStatus::kInfeasible) {
          solved_warm = true;
          ++stat.node_warm_solves;
        }
      }
      if (!solved_warm) {
        st = cold_build(problem, options.lp);
        if (st == SolveStatus::kArenaExhausted) {
          exhausted = true;
          break;
        }
        if (idx == 0)
          ++stat.cold_solves;
        else
          ++stat.node_cold_solves;
      }

      if (st == SolveStatus::kUnbounded) {
        Solution sol;
        sol.status = SolveStatus::kUnbounded;
        sol.nodes = nodes;
        sol.iterations = iterations_this_solve;
        return sol;
      }
      if (st != SolveStatus::kOptimal) {
        // Without integer marks the root is the whole problem: it reports
        // its own status (kIterationLimit too), not an infeasible node.
        if (int_vars.empty()) best.status = st;
        continue;
      }

      Solution relax;
      relax.status = SolveStatus::kOptimal;
      recover_x(relax);
      // A warm repair through a tiny pivot can leave the resident tableau
      // inconsistent, and every later warm node would inherit it. So a warm
      // answer counts only while it satisfies the problem's rows; otherwise
      // this node is re-solved cold, which rebuilds the tableau.
      if (solved_warm && !rows_hold(problem, relax.x)) {
        st = cold_build(problem, options.lp);
        ++stat.node_cold_solves;
        if (st == SolveStatus::kArenaExhausted) {
          exhausted = true;
          break;
        }
        if (st != SolveStatus::kOptimal) continue;
        recover_x(relax);
        solved_warm = false;
      }
      relax.objective = problem.objective_value(relax.x);

      const double bound = to_min(relax.objective);
      if (!root_known) {
        root_bound = bound;
        root_known = true;
      }
      if (bound >= incumbent - options.absolute_gap &&
          bound >= incumbent - options.relative_gap * std::abs(incumbent))
        continue;

      int branch_var =
          pick_branch_variable(problem, relax.x, options.integrality_tol);
      if (branch_var < 0) {
        // Integral: candidate incumbent. A warm-solved node's solution is
        // re-checked against the root problem; numerical drift in the
        // resident tableau falls back to a cold re-solve of this node.
        snap_buf = relax.x;
        for (const int j : int_vars)
          snap_buf[static_cast<std::size_t>(j)] =
              std::round(snap_buf[static_cast<std::size_t>(j)]);
        if (solved_warm && !problem.is_feasible(snap_buf, 1e-6)) {
          st = cold_build(problem, options.lp);
          ++stat.node_cold_solves;
          if (st == SolveStatus::kArenaExhausted) {
            exhausted = true;
            break;
          }
          if (st != SolveStatus::kOptimal) continue;
          recover_x(relax);
          relax.objective = problem.objective_value(relax.x);
          branch_var =
              pick_branch_variable(problem, relax.x, options.integrality_tol);
          if (branch_var >= 0) {
            // The cold re-solve landed on a fractional vertex: branch on it.
          } else {
            snap_buf = relax.x;
            for (const int j : int_vars)
              snap_buf[static_cast<std::size_t>(j)] =
                  std::round(snap_buf[static_cast<std::size_t>(j)]);
          }
        }
        if (branch_var < 0) {
          const double node_bound = to_min(relax.objective);
          if (node_bound < incumbent) {
            incumbent = node_bound;
            best = std::move(relax);
            if (int_vars.empty())
              recover_duals(problem, best);
            else
              best.duals.clear();
            best.x = snap_buf;
            best.objective = problem.objective_value(best.x);
          }
          continue;
        }
      }

      // Branch: floor side and ceil side, closer-to-fractional first.
      const double value = relax.x[static_cast<std::size_t>(branch_var)];
      const double floor_value = std::floor(value);
      const double cur_l = cur_lo[static_cast<std::size_t>(branch_var)];
      const double cur_h = cur_hi[static_cast<std::size_t>(branch_var)];

      if (!ensure_pool_capacity(pool.size() + 2)) {
        exhausted = true;
        break;
      }
      NodeSlot down;
      down.var = branch_var;
      down.lo = cur_l;
      down.hi = std::min(cur_h, floor_value);
      down.parent = idx;
      down.parent_bound = bound;
      NodeSlot up;
      up.var = branch_var;
      up.lo = std::max(cur_l, floor_value + 1.0);
      up.hi = cur_h;
      up.parent = idx;
      up.parent_bound = bound;

      const double frac = value - floor_value;
      if (frac <= 0.5) {
        pool.push_back(up);
        dfs.push_back(static_cast<int>(pool.size()) - 1);
        pool.push_back(down);
        dfs.push_back(static_cast<int>(pool.size()) - 1);
      } else {
        pool.push_back(down);
        dfs.push_back(static_cast<int>(pool.size()) - 1);
        pool.push_back(up);
        dfs.push_back(static_cast<int>(pool.size()) - 1);
      }
    }

    best.nodes = nodes;
    best.iterations = iterations_this_solve;
    const bool cut_short = hit_node_limit || exhausted;
    if (best.status == SolveStatus::kOptimal) {
      double open_bound = incumbent;
      if (cut_short) {
        for (const int i : dfs)
          open_bound =
              std::min(open_bound, pool[static_cast<std::size_t>(i)].parent_bound);
        open_bound = std::max(open_bound, root_known ? root_bound : kNegInf);
      }
      best.best_bound = maximize ? -open_bound : open_bound;
      if (exhausted) best.status = SolveStatus::kArenaExhausted;
      else if (hit_node_limit) best.status = SolveStatus::kNodeLimit;
    } else if (cut_short) {
      best.status = exhausted ? SolveStatus::kArenaExhausted
                              : SolveStatus::kNodeLimit;
    }

    return best;
  }
};

ArenaSolver::ArenaSolver() : impl_(std::make_unique<Impl>()) {}

ArenaSolver::~ArenaSolver() = default;
ArenaSolver::ArenaSolver(ArenaSolver&&) noexcept = default;

Solution ArenaSolver::solve(const Problem& problem, const MilpOptions& options) {
  return impl_->solve(problem, options);
}

void ArenaSolver::range_rhs(const Problem& problem, int row, double direction,
                            double t_max, RhsRange& out) {
  impl_->range_rhs(problem, row, direction, t_max, out);
}

const ArenaStats& ArenaSolver::stats() const noexcept { return impl_->stat; }

}  // namespace billcap::lp
