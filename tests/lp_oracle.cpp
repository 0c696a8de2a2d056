#include "lp_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace flex::solver {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Tableau storage for one oracle solve. */
struct Tableau {
  // Flat, row-major, stride = cols + 1; last column = rhs.
  std::vector<double> cells;
  std::vector<double> phase2_cost;
  std::vector<double> phase1_cost;
  std::vector<double> reduced;
  std::vector<int> basis;
  std::vector<char> artificial;
};

/** Pivot driver over an assembled tableau; only pivots and prices. */
class TableauSolver {
 public:
  TableauSolver(Tableau& t, int rows, int cols, double tol, int max_iters)
      : t_(t), rows_(rows), cols_(cols), stride_(cols + 1), tol_(tol),
        max_iters_(max_iters)
  {
  }

  /** Phase 1 from the natural slack/artificial basis, then Phase 2. */
  LpStatus RunTwoPhase();

  /** Pivot operations performed across both phases. */
  int pivots() const { return pivots_; }

  double at(int i, int j) const { return t_.cells[Idx(i, j)]; }

 private:
  std::size_t
  Idx(int i, int j) const
  {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(stride_) +
           static_cast<std::size_t>(j);
  }

  /** Rebuilds the reduced-cost row for the given column costs. */
  void PriceOut(const std::vector<double>& cost);
  void Pivot(int row, int col);
  /** One simplex phase; @p allow_artificial permits artificials entering. */
  LpStatus Phase(bool allow_artificial);

  Tableau& t_;
  int rows_;
  int cols_;
  int stride_;
  double tol_;
  int max_iters_;
  int pivots_ = 0;
};

void
TableauSolver::PriceOut(const std::vector<double>& cost)
{
  t_.reduced.assign(static_cast<std::size_t>(stride_), 0.0);
  // reduced[j] = z_j - c_j where z_j = c_B^T (B^-1 A_j); the tableau rows
  // already hold B^-1 A.
  for (int i = 0; i < rows_; ++i) {
    const double cb =
        cost[static_cast<std::size_t>(t_.basis[static_cast<std::size_t>(i)])];
    if (cb == 0.0)
      continue;
    const double* row = &t_.cells[Idx(i, 0)];
    for (int j = 0; j <= cols_; ++j)
      t_.reduced[static_cast<std::size_t>(j)] += cb * row[j];
  }
  for (int j = 0; j < cols_; ++j)
    t_.reduced[static_cast<std::size_t>(j)] -= cost[static_cast<std::size_t>(j)];
}

void
TableauSolver::Pivot(int row, int col)
{
  ++pivots_;
  double* pivot_row = &t_.cells[Idx(row, 0)];
  const double pivot = pivot_row[col];
  FLEX_CHECK_MSG(std::fabs(pivot) > 1e-12, "zero pivot element");
  for (int j = 0; j <= cols_; ++j)
    pivot_row[j] /= pivot;
  for (int i = 0; i < rows_; ++i) {
    if (i == row)
      continue;
    double* other = &t_.cells[Idx(i, 0)];
    const double factor = other[col];
    if (factor == 0.0)
      continue;
    for (int j = 0; j <= cols_; ++j)
      other[j] -= factor * pivot_row[j];
    other[col] = 0.0;
  }
  const double rfactor = t_.reduced[static_cast<std::size_t>(col)];
  if (rfactor != 0.0) {
    for (int j = 0; j <= cols_; ++j)
      t_.reduced[static_cast<std::size_t>(j)] -= rfactor * pivot_row[j];
    t_.reduced[static_cast<std::size_t>(col)] = 0.0;
  }
  t_.basis[static_cast<std::size_t>(row)] = col;
}

LpStatus
TableauSolver::Phase(bool allow_artificial)
{
  int iterations = 0;
  int stalled = 0;
  const int bland_threshold = 2 * (rows_ + cols_);
  double last_objective = -kInf;
  while (true) {
    if (++iterations > max_iters_)
      return LpStatus::kIterationLimit;

    const bool use_bland = stalled > bland_threshold;
    int entering = -1;
    double best = -tol_;
    for (int j = 0; j < cols_; ++j) {
      if (!allow_artificial && t_.artificial[static_cast<std::size_t>(j)])
        continue;
      const double rc = t_.reduced[static_cast<std::size_t>(j)];
      if (rc < best - 1e-15) {
        if (use_bland) {
          // Bland: first improving index.
          entering = j;
          break;
        }
        best = rc;
        entering = j;
      }
    }
    if (entering < 0)
      return LpStatus::kOptimal;

    // Ratio test.
    int leaving = -1;
    double best_ratio = kInf;
    for (int i = 0; i < rows_; ++i) {
      const double aij = at(i, entering);
      if (aij > tol_) {
        const double ratio = at(i, cols_) / aij;
        if (ratio < best_ratio - 1e-12 ||
            (use_bland && std::fabs(ratio - best_ratio) <= 1e-12 &&
             leaving >= 0 &&
             t_.basis[static_cast<std::size_t>(i)] <
                 t_.basis[static_cast<std::size_t>(leaving)])) {
          best_ratio = ratio;
          leaving = i;
        }
      }
    }
    if (leaving < 0)
      return LpStatus::kUnbounded;

    Pivot(leaving, entering);

    const double objective = t_.reduced[static_cast<std::size_t>(cols_)];
    if (objective > last_objective + tol_) {
      stalled = 0;
      last_objective = objective;
    } else {
      ++stalled;
    }
  }
}

LpStatus
TableauSolver::RunTwoPhase()
{
  // Phase 1: maximize -(sum of artificials).
  bool has_artificial = false;
  t_.phase1_cost.assign(static_cast<std::size_t>(cols_), 0.0);
  for (int j = 0; j < cols_; ++j) {
    if (t_.artificial[static_cast<std::size_t>(j)]) {
      t_.phase1_cost[static_cast<std::size_t>(j)] = -1.0;
      has_artificial = true;
    }
  }

  if (has_artificial) {
    PriceOut(t_.phase1_cost);
    const LpStatus status = Phase(/*allow_artificial=*/true);
    if (status != LpStatus::kOptimal)
      return status == LpStatus::kUnbounded ? LpStatus::kInfeasible : status;
    // The z-row rhs holds the phase-1 objective -(sum of artificials),
    // which is <= 0; a strictly negative optimum means infeasible.
    const double phase1_objective = t_.reduced[static_cast<std::size_t>(cols_)];
    if (phase1_objective < -1e-6)
      return LpStatus::kInfeasible;
    // Drive basic artificials out where possible; remaining ones sit at
    // zero and are forbidden from re-entering in phase 2.
    for (int i = 0; i < rows_; ++i) {
      const int b = t_.basis[static_cast<std::size_t>(i)];
      if (!t_.artificial[static_cast<std::size_t>(b)])
        continue;
      for (int j = 0; j < cols_; ++j) {
        if (t_.artificial[static_cast<std::size_t>(j)])
          continue;
        if (std::fabs(at(i, j)) > tol_) {
          Pivot(i, j);
          break;
        }
      }
    }
  }

  PriceOut(t_.phase2_cost);
  return Phase(/*allow_artificial=*/false);
}

/** Value of column @p j in the current basic solution. */
double
ColumnValue(const TableauSolver& solver, const Tableau& t, int rows, int cols,
            int j)
{
  for (int i = 0; i < rows; ++i) {
    if (t.basis[static_cast<std::size_t>(i)] == j)
      return solver.at(i, cols);
  }
  return 0.0;
}

}  // namespace

LpResult
DenseOracleSolve(const Model& model, const BoundOverrides& overrides)
{
  constexpr double kTolerance = 1e-9;
  const int n = model.NumVariables();
  FLEX_REQUIRE(overrides.empty() || static_cast<int>(overrides.size()) == n,
               "bound overrides must be empty or cover every variable");

  // Effective bounds.
  std::vector<double> lower(static_cast<std::size_t>(n), 0.0);
  std::vector<double> upper(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j) {
    const Variable& v = model.variables()[static_cast<std::size_t>(j)];
    double lo = v.lower;
    double hi = v.upper;
    if (!overrides.empty() && overrides[static_cast<std::size_t>(j)]) {
      lo = std::max(lo, overrides[static_cast<std::size_t>(j)]->first);
      hi = std::min(hi, overrides[static_cast<std::size_t>(j)]->second);
    }
    if (lo > hi + 1e-12) {
      LpResult infeasible;
      infeasible.status = LpStatus::kInfeasible;
      return infeasible;
    }
    FLEX_REQUIRE(std::isfinite(lo),
                 "the dense oracle requires finite lower bounds");
    lower[static_cast<std::size_t>(j)] = lo;
    upper[static_cast<std::size_t>(j)] = hi;
  }

  // Shift y_j = x_j - lower_j. Fixed variables (lo == hi) become constants
  // and drop out of the LP entirely.
  std::vector<int> column_of(static_cast<std::size_t>(n), -1);
  int n_struct = 0;
  for (int j = 0; j < n; ++j) {
    if (upper[static_cast<std::size_t>(j)] - lower[static_cast<std::size_t>(j)] >
        1e-12)
      column_of[static_cast<std::size_t>(j)] = n_struct++;
  }

  const double sign = model.sense() == Sense::kMaximize ? 1.0 : -1.0;

  // Rows: model constraints with constants substituted, plus finite upper
  // bounds on the shifted variables (flat coefficient matrix over the
  // structural columns).
  std::vector<double> row_coef;
  std::vector<Relation> row_rel;
  std::vector<double> row_rhs;
  auto append_row = [&](Relation relation, double rhs) {
    row_coef.resize(row_coef.size() + static_cast<std::size_t>(n_struct), 0.0);
    row_rel.push_back(relation);
    row_rhs.push_back(rhs);
    // data() + offset, not &operator[]: n_struct may be 0 (all
    // variables fixed), where indexing even one-past-the-end of the
    // empty vector is undefined.
    return row_coef.data() +
           (row_coef.size() - static_cast<std::size_t>(n_struct));
  };
  for (const Constraint& c : model.constraints()) {
    double rhs = c.rhs;
    for (const auto& [var, coef] : c.terms)
      rhs -= coef * lower[static_cast<std::size_t>(var)];
    double* coef_row = append_row(c.relation, rhs);
    for (const auto& [var, coef] : c.terms) {
      const int col = column_of[static_cast<std::size_t>(var)];
      if (col >= 0)
        coef_row[col] += coef;
    }
  }
  // Upper bounds become explicit rows, except where a model constraint
  // already implies them: if some all-non-negative <= row contains the
  // (shifted) variable with coefficient a > 0 and rhs/a <= bound, then
  // y_j <= rhs/a holds at any feasible point and the extra row would be
  // redundant.
  const std::size_t model_rows = row_rhs.size();
  std::vector<char> row_usable(model_rows, 0);
  for (std::size_t r = 0; r < model_rows; ++r) {
    if (row_rel[r] != Relation::kLessEqual || row_rhs[r] < 0.0)
      continue;
    const double* coef_row =
        row_coef.data() + r * static_cast<std::size_t>(n_struct);
    row_usable[r] = std::none_of(coef_row, coef_row + n_struct,
                                 [](double a) { return a < 0.0; });
  }
  for (int j = 0; j < n; ++j) {
    const int col = column_of[static_cast<std::size_t>(j)];
    if (col < 0 || !std::isfinite(upper[static_cast<std::size_t>(j)]))
      continue;
    const double bound =
        upper[static_cast<std::size_t>(j)] - lower[static_cast<std::size_t>(j)];
    bool implied = false;
    for (std::size_t r = 0; r < model_rows && !implied; ++r) {
      if (!row_usable[r])
        continue;
      const double a = row_coef[r * static_cast<std::size_t>(n_struct) +
                                static_cast<std::size_t>(col)];
      implied = a > 0.0 && row_rhs[r] / a <= bound + 1e-12;
    }
    if (implied)
      continue;
    double* coef_row = append_row(Relation::kLessEqual, bound);
    coef_row[col] = 1.0;
  }

  // Normalize to rhs >= 0 and count slack/artificial columns.
  const int m = static_cast<int>(row_rhs.size());
  int n_slack = 0;
  int n_artificial = 0;
  for (std::size_t r = 0; r < row_rhs.size(); ++r) {
    if (row_rhs[r] < 0.0) {
      double* coef_row =
          row_coef.data() + r * static_cast<std::size_t>(n_struct);
      for (int j = 0; j < n_struct; ++j)
        coef_row[j] = -coef_row[j];
      row_rhs[r] = -row_rhs[r];
      if (row_rel[r] == Relation::kLessEqual)
        row_rel[r] = Relation::kGreaterEqual;
      else if (row_rel[r] == Relation::kGreaterEqual)
        row_rel[r] = Relation::kLessEqual;
    }
    n_slack += row_rel[r] != Relation::kEqual ? 1 : 0;
    n_artificial += row_rel[r] != Relation::kLessEqual ? 1 : 0;
  }

  // Assemble the tableau with the natural slack/artificial basis.
  const int cols = n_struct + n_slack + n_artificial;
  const std::size_t stride = static_cast<std::size_t>(cols) + 1;
  Tableau t;
  t.cells.assign(static_cast<std::size_t>(m) * stride, 0.0);
  t.phase2_cost.assign(static_cast<std::size_t>(cols), 0.0);
  t.basis.assign(static_cast<std::size_t>(m), -1);
  t.artificial.assign(static_cast<std::size_t>(cols), 0);
  for (int j = 0; j < n; ++j) {
    const int col = column_of[static_cast<std::size_t>(j)];
    if (col >= 0) {
      t.phase2_cost[static_cast<std::size_t>(col)] =
          sign * model.variables()[static_cast<std::size_t>(j)].objective;
    }
  }
  int next_slack = n_struct;
  int next_artificial = n_struct + n_slack;
  for (int i = 0; i < m; ++i) {
    const std::size_t r = static_cast<std::size_t>(i);
    double* tab_row = &t.cells[r * stride];
    const double* coef_row =
        row_coef.data() + r * static_cast<std::size_t>(n_struct);
    std::copy(coef_row, coef_row + n_struct, tab_row);
    tab_row[cols] = row_rhs[r];
    switch (row_rel[r]) {
      case Relation::kLessEqual:
        tab_row[next_slack] = 1.0;
        t.basis[r] = next_slack++;
        break;
      case Relation::kGreaterEqual:
        tab_row[next_slack++] = -1.0;
        [[fallthrough]];
      case Relation::kEqual:
        tab_row[next_artificial] = 1.0;
        t.artificial[static_cast<std::size_t>(next_artificial)] = 1;
        t.basis[r] = next_artificial++;
        break;
    }
  }

  TableauSolver solver(t, m, cols, kTolerance, 50 * (m + cols) + 1000);
  LpResult result;
  result.status = solver.RunTwoPhase();
  result.iterations = solver.pivots();
  if (!result.IsOptimal())
    return result;

  result.x.assign(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j) {
    const int col = column_of[static_cast<std::size_t>(j)];
    const double shifted =
        col >= 0 ? ColumnValue(solver, t, m, cols, col) : 0.0;
    result.x[static_cast<std::size_t>(j)] =
        lower[static_cast<std::size_t>(j)] + shifted;
  }
  result.objective = model.ObjectiveValue(result.x);
  return result;
}

}  // namespace flex::solver
