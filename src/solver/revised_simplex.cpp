#include "simplex.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace flex::solver {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Rows whose pivot-column entry is below this do not block the ratio
 * test and are never chosen as pivots. */
constexpr double kRatioTolerance = 1e-9;

/** Minimum magnitude of a committed pivot element. Stricter than
 * kRatioTolerance: an entry can be numerically nonzero yet far too
 * small to divide by — replacing a basis column through a ~1e-9 pivot
 * produces a numerically singular basis that the next refactorization
 * rejects. Rows below this threshold simply do not participate in the
 * ratio test (their basic variable drifts by at most step * 1e-7,
 * within the feasibility tolerances). */
constexpr double kPivotTolerance = 1e-7;

/** Absolute slack allowed when judging a warm basis primal feasible. */
constexpr double kWarmFeasTolerance = 1e-7;

/** Absolute slack allowed when judging a warm basis dual feasible (the
 * entry ticket for the dual-simplex repair path). */
constexpr double kDualFeasTolerance = 1e-7;

/** Phase-1 optimum above this level of residual infeasibility means the
 * LP has no feasible point. */
constexpr double kInfeasibilityTolerance = 1e-6;

/** A variable whose bound range is below this is treated as fixed: it
 * never enters the basis (a "flip" of a fixed variable would loop). */
constexpr double kFixedTolerance = 1e-12;

/** Pricing and stall tolerance: reduced costs, objective progress and
 * ratio steps within this of zero count as zero. */
constexpr double kTolerance = 1e-9;

/** Forrest–Tomlin updates between scheduled refactorizations. */
constexpr int kRefactorInterval = 64;

/** Extraction refactorizes ("polishes") only when at least this many
 * Forrest–Tomlin updates have accumulated; warm re-solves extract
 * straight from the loaded factors. Sits just under kRefactorInterval:
 * the FT stability test bounds per-update drift, so polishing more
 * eagerly than the iteration loop itself refactorizes only burns the
 * refactorizations the adoption/patch routes exist to avoid. */
constexpr int kPolishUpdateThreshold = 48;

/** Process-wide basis snapshot ids; only equality is ever consulted. */
std::atomic<std::uint64_t> g_next_basis_id{0};

/** Where a nonbasic column currently sits. */
enum VarState : signed char {
  kBasic = 0,
  kAtLower = 1,
  kAtUpper = 2,
  kFreeAtZero = 3,  ///< both bounds infinite; parked at zero
};

/**
 * One LP solve over the column space [structural | slacks | artificials].
 * Structural column j is model variable j; the slack of row i is column
 * n + i with coefficient +1 and bounds encoding the relation
 * (<=: [0,inf), >=: (-inf,0], =: [0,0]); artificial columns are appended
 * on demand (cold Phase 1, warm installs of artificial snapshot rows).
 * Costs are kept in minimize orientation throughout.
 */
class RevisedSolver {
 public:
  RevisedSolver(const Model& model, SimplexWorkspace& ws)
      : model_(model), ws_(ws)
  {
  }

  LpResult Solve(const BoundOverrides& overrides,
                 const SimplexBasis* warm_basis, SimplexBasis* basis_out);

 private:
  bool PrepareBounds(const BoundOverrides& overrides);
  bool UpdateStructuralBounds(const BoundOverrides& overrides);
  void BuildColumns();
  void SetupCosts();
  int AppendColumn(int entry_row, double coef, double lower, double upper);
  void SetNonbasicDefaults(const SimplexBasis* basis);
  void SetupColdBasis();
  bool InstallWarmBasis(const SimplexBasis& basis);
  bool TryAdoptResident(const SimplexBasis& basis);
  bool TryPatchResident(const SimplexBasis& basis,
                        const BoundOverrides& overrides,
                        bool* box_infeasible);
  void ReparkNonbasicStructurals();
  bool PrimalFeasibleClamp();
  bool DualFeasibleBasis();
  bool RefactorizeBasis();
  void ComputeBeta();
  void ComputeDuals(bool phase_one);
  double Cost(int j, bool phase_one) const;
  double ReducedCost(int j, bool phase_one) const;
  double Objective(bool phase_one) const;
  int PriceEntering(bool bland, bool phase_one, double* reduced_cost);
  LpStatus RunTwoPhase(int max_iters, int& iterations);
  LpStatus Iterate(bool phase_one, int max_iters, int& iterations);
  LpStatus IterateDual(int max_iters, int& iterations);

  const Model& model_;
  SimplexWorkspace& ws_;
  /** The safe-mode retry shrinks it. */
  int refactor_interval_ = kRefactorInterval;

  int n_ = 0;          ///< structural columns (model variables)
  int m_ = 0;          ///< rows (model constraints)
  int num_cols_ = 0;   ///< total columns including slacks + artificials
  int first_artificial_ = 0;
  int pricing_cursor_ = 0;
  int dual_pivots_ = 0;
  bool used_dual_ = false;
};

bool
RevisedSolver::PrepareBounds(const BoundOverrides& overrides)
{
  ws_.sp_lower.assign(static_cast<std::size_t>(n_), 0.0);
  ws_.sp_upper.assign(static_cast<std::size_t>(n_), 0.0);
  return UpdateStructuralBounds(overrides);
}

/** Writes the effective child bounds of the structural columns into
 * sp_lower/sp_upper[0..n) in place (slack/artificial entries, if any,
 * are untouched). False means the bound box itself is empty. */
bool
RevisedSolver::UpdateStructuralBounds(const BoundOverrides& overrides)
{
  for (int j = 0; j < n_; ++j) {
    const Variable& v = model_.variables()[static_cast<std::size_t>(j)];
    double lo = v.lower;
    double hi = v.upper;
    if (!overrides.empty() && overrides[static_cast<std::size_t>(j)]) {
      lo = std::max(lo, overrides[static_cast<std::size_t>(j)]->first);
      hi = std::min(hi, overrides[static_cast<std::size_t>(j)]->second);
    }
    if (lo > hi + 1e-12)
      return false;
    ws_.sp_lower[static_cast<std::size_t>(j)] = lo;
    ws_.sp_upper[static_cast<std::size_t>(j)] = hi;
  }
  return true;
}

void
RevisedSolver::BuildColumns()
{
  // Rebuilding the column file discards whatever factorization the
  // workspace held, so any resident-basis claim is void from here on.
  ws_.resident_basis_id = 0;
  BuildCsc(model_, &ws_.columns);
  ws_.sp_lower.resize(static_cast<std::size_t>(n_));
  ws_.sp_upper.resize(static_cast<std::size_t>(n_));
  for (int i = 0; i < m_; ++i) {
    ws_.columns.AppendSingleton(i, 1.0);
    switch (model_.constraints()[static_cast<std::size_t>(i)].relation) {
      case Relation::kLessEqual:
        ws_.sp_lower.push_back(0.0);
        ws_.sp_upper.push_back(kInf);
        break;
      case Relation::kGreaterEqual:
        ws_.sp_lower.push_back(-kInf);
        ws_.sp_upper.push_back(0.0);
        break;
      case Relation::kEqual:
        ws_.sp_lower.push_back(0.0);
        ws_.sp_upper.push_back(0.0);
        break;
    }
  }
  num_cols_ = n_ + m_;
  first_artificial_ = num_cols_;
  ws_.sp_value.assign(static_cast<std::size_t>(num_cols_), 0.0);
  ws_.sp_state.assign(static_cast<std::size_t>(num_cols_), kAtLower);
  ws_.factorization.Reset(m_);
  pricing_cursor_ = 0;
}

void
RevisedSolver::SetupCosts()
{
  ws_.sp_cost.assign(static_cast<std::size_t>(num_cols_), 0.0);
  const double sgn = model_.sense() == Sense::kMaximize ? -1.0 : 1.0;
  for (int j = 0; j < n_; ++j) {
    ws_.sp_cost[static_cast<std::size_t>(j)] =
        sgn * model_.variables()[static_cast<std::size_t>(j)].objective;
  }
}

int
RevisedSolver::AppendColumn(int entry_row, double coef, double lower,
                            double upper)
{
  const int c = ws_.columns.AppendSingleton(entry_row, coef);
  ws_.sp_lower.push_back(lower);
  ws_.sp_upper.push_back(upper);
  ws_.sp_cost.push_back(0.0);
  ws_.sp_value.push_back(0.0);
  ws_.sp_state.push_back(kAtLower);
  num_cols_ = c + 1;
  return c;
}

/**
 * Parks every column at its natural nonbasic position: structural
 * variables at a finite bound (lower preferred; @p basis's at_upper
 * list overrides toward the upper bound) or at zero when free; slacks
 * at the zero end of their relation-shaped bounds.
 */
void
RevisedSolver::SetNonbasicDefaults(const SimplexBasis* basis)
{
  for (int j = 0; j < n_; ++j) {
    const std::size_t sj = static_cast<std::size_t>(j);
    const double lo = ws_.sp_lower[sj];
    const double hi = ws_.sp_upper[sj];
    const bool wants_upper =
        basis != nullptr &&
        std::binary_search(basis->at_upper.begin(), basis->at_upper.end(), j);
    if (wants_upper && std::isfinite(hi)) {
      ws_.sp_state[sj] = kAtUpper;
      ws_.sp_value[sj] = hi;
    } else if (std::isfinite(lo)) {
      ws_.sp_state[sj] = kAtLower;
      ws_.sp_value[sj] = lo;
    } else if (std::isfinite(hi)) {
      ws_.sp_state[sj] = kAtUpper;
      ws_.sp_value[sj] = hi;
    } else {
      ws_.sp_state[sj] = kFreeAtZero;
      ws_.sp_value[sj] = 0.0;
    }
  }
  for (int i = 0; i < m_; ++i) {
    const std::size_t s = static_cast<std::size_t>(n_ + i);
    const Relation rel =
        model_.constraints()[static_cast<std::size_t>(i)].relation;
    ws_.sp_state[s] = rel == Relation::kGreaterEqual ? kAtUpper : kAtLower;
    ws_.sp_value[s] = 0.0;
  }
}

void
RevisedSolver::SetupColdBasis()
{
  SetNonbasicDefaults(nullptr);

  // Row residuals with every column nonbasic: r_i = b_i - A x_N.
  ws_.sp_rhs.assign(static_cast<std::size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i) {
    ws_.sp_rhs[static_cast<std::size_t>(i)] =
        model_.constraints()[static_cast<std::size_t>(i)].rhs;
  }
  for (int j = 0; j < num_cols_; ++j) {
    const double v = ws_.sp_value[static_cast<std::size_t>(j)];
    if (v == 0.0)
      continue;
    for (int k = ws_.columns.start[static_cast<std::size_t>(j)];
         k < ws_.columns.start[static_cast<std::size_t>(j) + 1]; ++k) {
      ws_.sp_rhs[static_cast<std::size_t>(
          ws_.columns.row[static_cast<std::size_t>(k)])] -=
          ws_.columns.value[static_cast<std::size_t>(k)] * v;
    }
  }

  // Each row takes its own slack when the residual fits the slack
  // bounds; otherwise a phase-1 artificial absorbs the residual.
  first_artificial_ = num_cols_;
  ws_.sp_basic_of_row.assign(static_cast<std::size_t>(m_), -1);
  for (int i = 0; i < m_; ++i) {
    const double r = ws_.sp_rhs[static_cast<std::size_t>(i)];
    const std::size_t s = static_cast<std::size_t>(n_ + i);
    if (r >= ws_.sp_lower[s] - kRatioTolerance &&
        r <= ws_.sp_upper[s] + kRatioTolerance) {
      ws_.sp_basic_of_row[static_cast<std::size_t>(i)] = n_ + i;
      ws_.sp_state[s] = kBasic;
      ws_.sp_value[s] = r;
    } else {
      const int a = AppendColumn(i, r >= 0.0 ? 1.0 : -1.0, 0.0, kInf);
      ws_.sp_state[static_cast<std::size_t>(a)] = kBasic;
      ws_.sp_value[static_cast<std::size_t>(a)] = std::fabs(r);
      ws_.sp_basic_of_row[static_cast<std::size_t>(i)] = a;
    }
  }
}

/**
 * Fast warm path: the workspace's loaded factorization already realises
 * the snapshot being installed, so the column file, basis, states, and
 * LU factors are all still valid. Only the structural bounds changed;
 * refresh them, re-park nonbasic structurals on their (possibly moved)
 * bounds, and recompute beta with one Ftran — no column rebuild, no
 * refactorization.
 *
 * Two routes establish the match. The id route recognises the exact
 * snapshot this workspace extracted last (the dive / re-solve pattern).
 * The content route compares the snapshot's row arrangement and
 * nonbasic parking against what is loaded — this is what fires when a
 * sibling re-solves from the parent snapshot after a degenerate child
 * (final basis == parent basis), and it is what lets long solve chains
 * run on Forrest–Tomlin updates alone instead of one refactorization
 * per node.
 */
bool
RevisedSolver::TryAdoptResident(const SimplexBasis& basis)
{
  if (ws_.resident_model != static_cast<const void*>(&model_))
    return false;
  if (ws_.resident_num_cols < n_ + m_ ||
      static_cast<int>(ws_.sp_lower.size()) != ws_.resident_num_cols ||
      static_cast<int>(ws_.sp_state.size()) != ws_.resident_num_cols ||
      static_cast<int>(ws_.sp_basic_of_row.size()) != m_)
    return false;
  const auto adopt = [&] {
    num_cols_ = ws_.resident_num_cols;
    first_artificial_ = ws_.resident_first_artificial;
    return true;
  };
  if (basis.id != 0 && basis.id == ws_.resident_basis_id)
    return adopt();

  // Content route: every row must hold exactly the column the snapshot
  // prescribes (which also proves the basic sets are identical), and
  // every nonbasic column must be parked on the side the install path
  // would choose, so the starting vertex matches a fresh install.
  if (ws_.resident_basis_id == 0 ||
      static_cast<int>(basis.rows.size()) != m_)
    return false;
  std::vector<char> seen(static_cast<std::size_t>(m_), 0);
  for (const SimplexBasis::RowEntry& entry : basis.rows) {
    if (entry.row_id < 0 || entry.row_id >= m_ ||
        seen[static_cast<std::size_t>(entry.row_id)])
      return false;
    seen[static_cast<std::size_t>(entry.row_id)] = 1;
    int expect = -1;
    if (entry.kind == SimplexBasis::Kind::kStructural && entry.col_id >= 0 &&
        entry.col_id < n_) {
      expect = entry.col_id;
    } else if (entry.kind == SimplexBasis::Kind::kSlack &&
               entry.col_id >= 0 && entry.col_id < m_) {
      expect = n_ + entry.col_id;
    } else {
      return false;  // artificial or malformed entry: no content match
    }
    // Set membership, not positional equality: the factorization
    // represents the basis MATRIX, and which factor row a basic column
    // is labelled with is bookkeeping, not mathematics — pivoting
    // permutes rows freely, so a row-permuted loaded basis is just as
    // adoptable as an arrangement-exact one.
    if (ws_.sp_state[static_cast<std::size_t>(expect)] != kBasic)
      return false;
  }
  for (int j = 0; j < n_; ++j) {
    const signed char s = ws_.sp_state[static_cast<std::size_t>(j)];
    if (s == kBasic)
      continue;
    // ReparkNonbasicStructurals resolves kAtLower and kFreeAtZero to
    // the same side SetNonbasicDefaults would pick, so only the
    // at-upper bit has to agree with the snapshot's prescription.
    const bool wants_upper =
        std::binary_search(basis.at_upper.begin(), basis.at_upper.end(), j);
    if (wants_upper != (s == kAtUpper))
      return false;
  }
  for (int i = 0; i < m_; ++i) {
    const std::size_t s = static_cast<std::size_t>(n_ + i);
    if (ws_.sp_state[s] == kBasic)
      continue;
    if (ws_.sp_upper[s] - ws_.sp_lower[s] <= kFixedTolerance)
      continue;  // equality-row slack: both sides are the same point
    const Relation rel =
        model_.constraints()[static_cast<std::size_t>(i)].relation;
    const signed char want =
        rel == Relation::kGreaterEqual ? kAtUpper : kAtLower;
    if (ws_.sp_state[s] != want)
      return false;
  }
  return adopt();
}

/**
 * Middle warm path: the loaded factorization realises a basis that
 * differs from the snapshot in only a few rows (the sibling pattern —
 * the workspace last solved this node's sibling, which started from
 * the same parent snapshot and moved a handful of columns). Instead of
 * rebuilding and refactorizing, pivot each differing row's prescribed
 * column into the factors with one Ftran + Forrest–Tomlin update
 * apiece — the same O(diff · m) a dual pivot costs, against the
 * O(m · nnz) of a refactorization. Any rejected update (singular or
 * unstable intermediate basis, e.g. a row-permuted diff) simply falls
 * back to the install route, which refactorizes from scratch.
 *
 * On success the starting vertex is bit-for-bit what InstallWarmBasis
 * would have produced — same basis arrangement, same nonbasic parking
 * via SetNonbasicDefaults — only the factor representation differs by
 * roundoff, the same accepted trade the id/content adoption routes
 * make.
 */
bool
RevisedSolver::TryPatchResident(const SimplexBasis& basis,
                                const BoundOverrides& overrides,
                                bool* box_infeasible)
{
  if (ws_.resident_basis_id == 0 ||
      ws_.resident_model != static_cast<const void*>(&model_)) {
    return false;
  }
  if (ws_.resident_num_cols < n_ + m_ ||
      static_cast<int>(ws_.sp_lower.size()) != ws_.resident_num_cols ||
      static_cast<int>(ws_.sp_state.size()) != ws_.resident_num_cols ||
      static_cast<int>(ws_.sp_basic_of_row.size()) != m_ ||
      static_cast<int>(basis.rows.size()) != m_) {
    return false;
  }

  // Resolve the snapshot's prescription per row; bail on anything but
  // plain structural/slack entries (artificial rows are the cold
  // path's business) or on duplicate rows.
  std::vector<int> target(static_cast<std::size_t>(m_), -1);
  for (const SimplexBasis::RowEntry& entry : basis.rows) {
    if (entry.row_id < 0 || entry.row_id >= m_ ||
        target[static_cast<std::size_t>(entry.row_id)] >= 0)
      return false;
    int expect = -1;
    if (entry.kind == SimplexBasis::Kind::kStructural && entry.col_id >= 0 &&
        entry.col_id < n_) {
      expect = entry.col_id;
    } else if (entry.kind == SimplexBasis::Kind::kSlack &&
               entry.col_id >= 0 && entry.col_id < m_) {
      expect = n_ + entry.col_id;
    } else {
      return false;
    }
    target[static_cast<std::size_t>(entry.row_id)] = expect;
  }

  // Diff the basic SETS, not the row arrangements: every
  // refactorization re-pivots and so re-permutes rows, which makes the
  // loaded arrangement essentially unrelated to the snapshot's even
  // when the sets are a pivot or two apart (the sibling pattern).
  // Only columns genuinely entering the basis need factor work; a set
  // member sitting in a different row is bookkeeping, not mathematics.
  std::vector<char> wanted(static_cast<std::size_t>(ws_.resident_num_cols),
                           0);
  for (int r = 0; r < m_; ++r)
    wanted[static_cast<std::size_t>(target[static_cast<std::size_t>(r)])] = 1;
  const int max_patch = std::max(2, m_ / 4);
  std::vector<int> out_rows;  // rows whose basic column must leave
  for (int r = 0; r < m_; ++r) {
    const int loaded = ws_.sp_basic_of_row[static_cast<std::size_t>(r)];
    if (loaded >= n_ + m_) {
      // An evicted appended artificial would leave stale state behind
      // (those columns are not covered by SetNonbasicDefaults).
        return false;
    }
    if (!wanted[static_cast<std::size_t>(loaded)]) {
      out_rows.push_back(r);
      if (static_cast<int>(out_rows.size()) > max_patch)
        return false;  // patching stops paying off against a refactor
    }
  }
  std::vector<int> in_cols;  // prescribed columns not currently basic
  for (int r = 0; r < m_; ++r) {
    const int want = target[static_cast<std::size_t>(r)];
    if (ws_.sp_state[static_cast<std::size_t>(want)] != kBasic)
      in_cols.push_back(want);
  }
  if (in_cols.size() != out_rows.size())
    return false;  // states out of sync with the row file: do not touch

  if (!UpdateStructuralBounds(overrides)) {
    *box_infeasible = true;
    return true;
  }

  // Pivot each incoming column into some departing row: Ftran it and
  // greedily take the unmatched departing row with the largest pivot
  // magnitude (deterministic: ties keep the lowest row). A column with
  // no viable pivot, or an update the factorization rejects as
  // unstable, bails to the install route — which rebuilds everything
  // from scratch, so half-patched factors are harmless; the stale
  // residency claim is revoked so nothing can adopt them either.
  bool mutated = false;
  std::vector<char> matched(out_rows.size(), 0);
  for (const int want : in_cols) {
    ws_.sp_alpha.assign(static_cast<std::size_t>(m_), 0.0);
    for (int k = ws_.columns.start[static_cast<std::size_t>(want)];
         k < ws_.columns.start[static_cast<std::size_t>(want) + 1]; ++k) {
      ws_.sp_alpha[static_cast<std::size_t>(
          ws_.columns.row[static_cast<std::size_t>(k)])] =
          ws_.columns.value[static_cast<std::size_t>(k)];
    }
    ws_.factorization.Ftran(ws_.sp_alpha);
    int best = -1;
    double best_mag = kPivotTolerance;
    for (std::size_t o = 0; o < out_rows.size(); ++o) {
      if (matched[o])
        continue;
      const double mag = std::fabs(
          ws_.sp_alpha[static_cast<std::size_t>(out_rows[o])]);
      if (mag > best_mag) {
        best = static_cast<int>(o);
        best_mag = mag;
      }
    }
    if (best < 0 ||
        !ws_.factorization.Update(out_rows[static_cast<std::size_t>(best)],
                                  ws_.sp_alpha)) {
      if (mutated)
        ws_.resident_basis_id = 0;
      return false;
    }
    mutated = true;
    matched[static_cast<std::size_t>(best)] = 1;
    const int row = out_rows[static_cast<std::size_t>(best)];
    const int evicted = ws_.sp_basic_of_row[static_cast<std::size_t>(row)];
    ws_.sp_basic_of_row[static_cast<std::size_t>(row)] = want;
    ws_.sp_state[static_cast<std::size_t>(want)] = kBasic;
    ws_.sp_state[static_cast<std::size_t>(evicted)] = kAtLower;
  }

  // Same basic set as the snapshot now, possibly in a different row
  // arrangement — the same accepted trade the set-adoption route
  // makes. Park every nonbasic column exactly as an install would, so
  // the starting vertex matches InstallWarmBasis bit for bit.
  num_cols_ = ws_.resident_num_cols;
  first_artificial_ = ws_.resident_first_artificial;
  SetNonbasicDefaults(&basis);
  for (int r = 0; r < m_; ++r) {
    ws_.sp_state[static_cast<std::size_t>(
        ws_.sp_basic_of_row[static_cast<std::size_t>(r)])] = kBasic;
  }
  ComputeBeta();
  return true;
}

/** Re-parks every nonbasic structural column on a bound that exists
 * under the current (child) bounds, keeping the previous side where
 * possible so the accompanying basis stays meaningful. */
void
RevisedSolver::ReparkNonbasicStructurals()
{
  for (int j = 0; j < n_; ++j) {
    const std::size_t sj = static_cast<std::size_t>(j);
    if (ws_.sp_state[sj] == kBasic)
      continue;
    const double lo = ws_.sp_lower[sj];
    const double hi = ws_.sp_upper[sj];
    if (ws_.sp_state[sj] == kAtUpper && std::isfinite(hi)) {
      ws_.sp_value[sj] = hi;
    } else if (std::isfinite(lo)) {
      ws_.sp_state[sj] = kAtLower;
      ws_.sp_value[sj] = lo;
    } else if (std::isfinite(hi)) {
      ws_.sp_state[sj] = kAtUpper;
      ws_.sp_value[sj] = hi;
    } else {
      ws_.sp_state[sj] = kFreeAtZero;
      ws_.sp_value[sj] = 0.0;
    }
  }
}

/** Primal feasibility gate over the basic values; on success clamps the
 * within-tolerance roundoff into the bounds and returns true. */
bool
RevisedSolver::PrimalFeasibleClamp()
{
  for (int r = 0; r < m_; ++r) {
    const int b = ws_.sp_basic_of_row[static_cast<std::size_t>(r)];
    const double lo = ws_.sp_lower[static_cast<std::size_t>(b)];
    const double hi = ws_.sp_upper[static_cast<std::size_t>(b)];
    if (ws_.sp_beta[static_cast<std::size_t>(r)] < lo - kWarmFeasTolerance ||
        ws_.sp_beta[static_cast<std::size_t>(r)] > hi + kWarmFeasTolerance)
      return false;
  }
  for (int r = 0; r < m_; ++r) {
    const int b = ws_.sp_basic_of_row[static_cast<std::size_t>(r)];
    double& beta = ws_.sp_beta[static_cast<std::size_t>(r)];
    beta = std::min(std::max(beta, ws_.sp_lower[static_cast<std::size_t>(b)]),
                    ws_.sp_upper[static_cast<std::size_t>(b)]);
  }
  return true;
}

/**
 * Dual feasibility of the current basis under the Phase-2 costs: every
 * nonbasic column's reduced cost has the optimal sign for the side it
 * sits on. A branching child inherits this automatically (costs and
 * basis are the parent's; only bounds moved), which is what licenses
 * the dual-simplex repair instead of a cold Phase 1.
 */
bool
RevisedSolver::DualFeasibleBasis()
{
  ComputeDuals(/*phase_one=*/false);
  const int limit = std::min(num_cols_, first_artificial_);
  for (int j = 0; j < limit; ++j) {
    const signed char s = ws_.sp_state[static_cast<std::size_t>(j)];
    if (s == kBasic)
      continue;
    if (ws_.sp_upper[static_cast<std::size_t>(j)] -
            ws_.sp_lower[static_cast<std::size_t>(j)] <= kFixedTolerance)
      continue;  // fixed columns never move; their sign is irrelevant
    const double rc = ReducedCost(j, /*phase_one=*/false);
    if (s == kAtLower && rc < -kDualFeasTolerance)
      return false;
    if (s == kAtUpper && rc > kDualFeasTolerance)
      return false;
    if (s == kFreeAtZero && std::fabs(rc) > kDualFeasTolerance)
      return false;
  }
  return true;
}

bool
RevisedSolver::InstallWarmBasis(const SimplexBasis& basis)
{
  ws_.sp_basic_of_row.assign(static_cast<std::size_t>(m_), -1);
  std::vector<char> used(static_cast<std::size_t>(num_cols_), 0);

  for (const SimplexBasis::RowEntry& entry : basis.rows) {
    if (entry.row_id < 0 || entry.row_id >= m_)
      continue;  // stale constraint; skip
    if (ws_.sp_basic_of_row[static_cast<std::size_t>(entry.row_id)] >= 0)
      continue;
    int col = -1;
    switch (entry.kind) {
      case SimplexBasis::Kind::kStructural:
        // A variable the child has since fixed (branch pin, propagation)
        // stays basic: the basis then has exactly the parent's columns,
        // which are provably nonsingular, and the dual ratio test drives
        // the variable onto its bound through a proper pivot. The old
        // swap-for-slack fallback routinely produced a singular or
        // dual-infeasible basis (replacing a structural column with a
        // unit column changes the span), which showed up as ~1/3 of all
        // warm installs failing back to the cold two-phase path.
        if (entry.col_id >= 0 && entry.col_id < n_)
          col = entry.col_id;
        break;
      case SimplexBasis::Kind::kSlack:
        if (entry.col_id >= 0 && entry.col_id < m_)
          col = n_ + entry.col_id;
        break;
      case SimplexBasis::Kind::kArtificial:
        // A basic artificial sits at zero; recreate it fixed at zero.
        col = AppendColumn(entry.row_id, 1.0, 0.0, 0.0);
        used.push_back(0);
        break;
      case SimplexBasis::Kind::kNone:
        break;
    }
    if (col < 0 || used[static_cast<std::size_t>(col)])
      continue;
    used[static_cast<std::size_t>(col)] = 1;
    ws_.sp_basic_of_row[static_cast<std::size_t>(entry.row_id)] = col;
  }

  // Unclaimed rows fall back to their own slack, or a zero-fixed
  // artificial if another row already claimed that slack.
  for (int i = 0; i < m_; ++i) {
    if (ws_.sp_basic_of_row[static_cast<std::size_t>(i)] >= 0)
      continue;
    const int slack = n_ + i;
    if (!used[static_cast<std::size_t>(slack)]) {
      used[static_cast<std::size_t>(slack)] = 1;
      ws_.sp_basic_of_row[static_cast<std::size_t>(i)] = slack;
    } else {
      ws_.sp_basic_of_row[static_cast<std::size_t>(i)] =
          AppendColumn(i, 1.0, 0.0, 0.0);
      used.push_back(1);
    }
  }

  SetNonbasicDefaults(&basis);
  for (int i = 0; i < m_; ++i) {
    ws_.sp_state[static_cast<std::size_t>(
        ws_.sp_basic_of_row[static_cast<std::size_t>(i)])] = kBasic;
  }

  if (!RefactorizeBasis())
    return false;  // singular under the child bounds; cold path decides
  ComputeBeta();
  return true;
}

bool
RevisedSolver::RefactorizeBasis()
{
  return ws_.factorization.Refactorize(ws_.columns, ws_.sp_basic_of_row);
}

void
RevisedSolver::ComputeBeta()
{
  ws_.sp_rhs.assign(static_cast<std::size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i) {
    ws_.sp_rhs[static_cast<std::size_t>(i)] =
        model_.constraints()[static_cast<std::size_t>(i)].rhs;
  }
  for (int j = 0; j < num_cols_; ++j) {
    if (ws_.sp_state[static_cast<std::size_t>(j)] == kBasic)
      continue;
    const double v = ws_.sp_value[static_cast<std::size_t>(j)];
    if (v == 0.0)
      continue;
    for (int k = ws_.columns.start[static_cast<std::size_t>(j)];
         k < ws_.columns.start[static_cast<std::size_t>(j) + 1]; ++k) {
      ws_.sp_rhs[static_cast<std::size_t>(
          ws_.columns.row[static_cast<std::size_t>(k)])] -=
          ws_.columns.value[static_cast<std::size_t>(k)] * v;
    }
  }
  ws_.factorization.Ftran(ws_.sp_rhs);
  ws_.sp_beta.assign(ws_.sp_rhs.begin(), ws_.sp_rhs.end());
}

void
RevisedSolver::ComputeDuals(bool phase_one)
{
  ws_.sp_dual.assign(static_cast<std::size_t>(m_), 0.0);
  for (int r = 0; r < m_; ++r) {
    ws_.sp_dual[static_cast<std::size_t>(r)] =
        Cost(ws_.sp_basic_of_row[static_cast<std::size_t>(r)], phase_one);
  }
  ws_.factorization.Btran(ws_.sp_dual);
}

double
RevisedSolver::Cost(int j, bool phase_one) const
{
  if (phase_one)
    return j >= first_artificial_ ? 1.0 : 0.0;
  return ws_.sp_cost[static_cast<std::size_t>(j)];
}

double
RevisedSolver::ReducedCost(int j, bool phase_one) const
{
  double rc = Cost(j, phase_one);
  for (int k = ws_.columns.start[static_cast<std::size_t>(j)];
       k < ws_.columns.start[static_cast<std::size_t>(j) + 1]; ++k) {
    rc -= ws_.columns.value[static_cast<std::size_t>(k)] *
          ws_.sp_dual[static_cast<std::size_t>(
              ws_.columns.row[static_cast<std::size_t>(k)])];
  }
  return rc;
}

double
RevisedSolver::Objective(bool phase_one) const
{
  double obj = 0.0;
  for (int j = 0; j < num_cols_; ++j) {
    if (ws_.sp_state[static_cast<std::size_t>(j)] != kBasic)
      obj += Cost(j, phase_one) * ws_.sp_value[static_cast<std::size_t>(j)];
  }
  for (int r = 0; r < m_; ++r) {
    obj += Cost(ws_.sp_basic_of_row[static_cast<std::size_t>(r)], phase_one) *
           ws_.sp_beta[static_cast<std::size_t>(r)];
  }
  return obj;
}

/**
 * Picks the entering column, or -1 at an optimum. Partial pricing:
 * columns are scanned in rotating windows starting at a persistent
 * cursor, and the best (most negative improving) reduced cost within
 * the first window containing any eligible column wins. Bland mode
 * scans everything and takes the lowest eligible index.
 */
int
RevisedSolver::PriceEntering(bool bland, bool phase_one, double* reduced_cost)
{
  // Artificials may move in Phase 1 only; in Phase 2 they are pinned.
  const int limit = phase_one ? num_cols_ : std::min(num_cols_, first_artificial_);
  if (limit <= 0)
    return -1;

  const auto eligible = [&](int j, double* d) {
    const signed char s = ws_.sp_state[static_cast<std::size_t>(j)];
    if (s == kBasic)
      return false;
    if (ws_.sp_upper[static_cast<std::size_t>(j)] -
            ws_.sp_lower[static_cast<std::size_t>(j)] <= kFixedTolerance)
      return false;
    const double rc = ReducedCost(j, phase_one);
    const bool can_increase = s == kAtLower || s == kFreeAtZero;
    const bool can_decrease = s == kAtUpper || s == kFreeAtZero;
    if ((can_increase && rc < -kTolerance) ||
        (can_decrease && rc > kTolerance)) {
      *d = rc;
      return true;
    }
    return false;
  };

  if (bland) {
    for (int j = 0; j < limit; ++j) {
      if (eligible(j, reduced_cost))
        return j;
    }
    return -1;
  }

  const int window = std::max(32, limit / 8);
  int cursor = pricing_cursor_ % limit;
  int scanned = 0;
  while (scanned < limit) {
    int best = -1;
    double best_score = kTolerance;
    for (int t = 0; t < window && scanned < limit; ++t, ++scanned) {
      const int j = cursor;
      cursor = cursor + 1 == limit ? 0 : cursor + 1;
      double d = 0.0;
      if (eligible(j, &d) && std::fabs(d) > best_score) {
        best_score = std::fabs(d);
        best = j;
        *reduced_cost = d;
      }
    }
    if (best >= 0) {
      pricing_cursor_ = cursor;
      return best;
    }
  }
  return -1;
}

LpStatus
RevisedSolver::Iterate(bool phase_one, int max_iters, int& iterations)
{
  int stalled = 0;
  const int bland_threshold = 2 * (m_ + num_cols_);
  double last_objective = kInf;
  while (true) {
    if (iterations >= max_iters)
      return LpStatus::kIterationLimit;
    const bool bland = stalled > bland_threshold;

    if (m_ > 0)
      ComputeDuals(phase_one);
    double dq = 0.0;
    const int q = PriceEntering(bland, phase_one, &dq);
    if (q < 0)
      return LpStatus::kOptimal;
    ++iterations;
    // dq < 0 means the entering variable wants to increase.
    const double dir = dq < 0.0 ? 1.0 : -1.0;

    // alpha = P B^-1 a_q, the entering column in row coordinates.
    ws_.sp_alpha.assign(static_cast<std::size_t>(m_), 0.0);
    for (int k = ws_.columns.start[static_cast<std::size_t>(q)];
         k < ws_.columns.start[static_cast<std::size_t>(q) + 1]; ++k) {
      ws_.sp_alpha[static_cast<std::size_t>(
          ws_.columns.row[static_cast<std::size_t>(k)])] =
          ws_.columns.value[static_cast<std::size_t>(k)];
    }
    ws_.factorization.Ftran(ws_.sp_alpha);

    // Bounded ratio test: the step is limited by the first basic
    // variable driven into one of its bounds, or by the entering
    // variable's own opposite bound (a bound flip, no basis change).
    int pr = -1;
    double best_t = kInf;
    double best_mag = 0.0;
    for (int r = 0; r < m_; ++r) {
      const double ar = dir * ws_.sp_alpha[static_cast<std::size_t>(r)];
      const int b = ws_.sp_basic_of_row[static_cast<std::size_t>(r)];
      const double beta = ws_.sp_beta[static_cast<std::size_t>(r)];
      double t;
      if (ar > kPivotTolerance) {
        const double lo = ws_.sp_lower[static_cast<std::size_t>(b)];
        if (lo == -kInf)
          continue;
        t = (beta - lo) / ar;
      } else if (ar < -kPivotTolerance) {
        const double hi = ws_.sp_upper[static_cast<std::size_t>(b)];
        if (hi == kInf)
          continue;
        t = (beta - hi) / ar;
      } else {
        continue;
      }
      if (t < 0.0)
        t = 0.0;  // tiny bound violations from roundoff
      const double mag = std::fabs(ar);
      if (t < best_t - kRatioTolerance) {
        best_t = t;
        pr = r;
        best_mag = mag;
      } else if (pr >= 0 && t < best_t + kRatioTolerance) {
        // Tie: Bland wants the smallest basic index (anti-cycling);
        // otherwise the largest pivot magnitude (stability).
        const bool take =
            bland ? b < ws_.sp_basic_of_row[static_cast<std::size_t>(pr)]
                  : mag > best_mag;
        if (take) {
          best_t = std::min(best_t, t);
          pr = r;
          best_mag = mag;
        }
      }
    }

    const double range = ws_.sp_upper[static_cast<std::size_t>(q)] -
                         ws_.sp_lower[static_cast<std::size_t>(q)];
    if (range <= best_t && std::isfinite(range)) {
      // Bound flip: q jumps to its opposite bound; the basis stays.
      const double t = range;
      for (int r = 0; r < m_; ++r) {
        ws_.sp_beta[static_cast<std::size_t>(r)] -=
            dir * t * ws_.sp_alpha[static_cast<std::size_t>(r)];
      }
      ws_.sp_state[static_cast<std::size_t>(q)] =
          dir > 0.0 ? kAtUpper : kAtLower;
      ws_.sp_value[static_cast<std::size_t>(q)] =
          dir > 0.0 ? ws_.sp_upper[static_cast<std::size_t>(q)]
                    : ws_.sp_lower[static_cast<std::size_t>(q)];
    } else if (pr < 0) {
      return LpStatus::kUnbounded;
    } else {
      // Absorb the pivot into the factors *before* touching any solver
      // state. A rejected (unstable) update leaves both the factors and
      // the iterate untouched, so stale-factor drift — which can
      // manufacture a phantom pivot entry out of a structurally zero
      // one — costs a refactorization and a re-price, never a
      // half-committed pivot on a singular basis.
      const bool fresh = ws_.factorization.updates_since_refactor() == 0;
      const bool absorbed = ws_.factorization.Update(pr, ws_.sp_alpha);
      if (!absorbed && !fresh) {
        if (!RefactorizeBasis())
          return LpStatus::kIterationLimit;  // numerical give-up; see Solve
        ComputeBeta();
        continue;  // re-price against accurate factors
      }
      const double t = best_t;
      const double xq = ws_.sp_value[static_cast<std::size_t>(q)] + dir * t;
      for (int r = 0; r < m_; ++r) {
        if (r != pr) {
          ws_.sp_beta[static_cast<std::size_t>(r)] -=
              dir * t * ws_.sp_alpha[static_cast<std::size_t>(r)];
        }
      }
      const int leaving = ws_.sp_basic_of_row[static_cast<std::size_t>(pr)];
      const double ar = dir * ws_.sp_alpha[static_cast<std::size_t>(pr)];
      if (ar > 0.0) {
        ws_.sp_value[static_cast<std::size_t>(leaving)] =
            ws_.sp_lower[static_cast<std::size_t>(leaving)];
        ws_.sp_state[static_cast<std::size_t>(leaving)] = kAtLower;
      } else {
        ws_.sp_value[static_cast<std::size_t>(leaving)] =
            ws_.sp_upper[static_cast<std::size_t>(leaving)];
        ws_.sp_state[static_cast<std::size_t>(leaving)] = kAtUpper;
      }
      ws_.sp_state[static_cast<std::size_t>(q)] = kBasic;
      ws_.sp_value[static_cast<std::size_t>(q)] = xq;
      ws_.sp_beta[static_cast<std::size_t>(pr)] = xq;
      ws_.sp_basic_of_row[static_cast<std::size_t>(pr)] = q;
      // An update rejected on *fresh* factors means the pair really is
      // marginal; the pivot magnitude still cleared kPivotTolerance, so
      // force the post-pivot basis through a refactorization instead.
      if (!absorbed ||
          ws_.factorization.updates_since_refactor() >= refactor_interval_) {
        // A refusal here means a pivot chosen through drifted update
        // factors landed on a structurally dependent column (drift can
        // exceed kPivotTolerance between refactorizations, so a
        // structurally zero entry can masquerade as a valid pivot).
        // Give up; Solve retries cold with a near-paranoid refactor
        // interval where phantom pivots cannot arise.
        if (!RefactorizeBasis())
          return LpStatus::kIterationLimit;
        ComputeBeta();
      }
    }

    const double objective = Objective(phase_one);
    if (objective < last_objective - kTolerance) {
      stalled = 0;
      last_objective = objective;
    } else {
      ++stalled;
    }
  }
}

/**
 * Bounded-variable dual simplex: starting from a dual-feasible basis,
 * drives primal infeasibilities out one leaving variable at a time
 * while the reduced-cost signs are preserved by the dual ratio test.
 * Returns kOptimal once every basic value is back inside its bounds
 * (the caller finishes with the primal Phase 2), kInfeasible when an
 * infeasible row admits no eligible entering column — with a
 * dual-feasible basis that row is a Farkas certificate — or
 * kIterationLimit on a stall, which the caller treats as "go cold".
 */
LpStatus
RevisedSolver::IterateDual(int max_iters, int& iterations)
{
  int degenerate = 0;
  const int bland_threshold = 2 * (m_ + num_cols_);
  const int limit = std::min(num_cols_, first_artificial_);
  // Per-call pivot budget. A dual repair that has not converged within a
  // small multiple of m is degenerate cycling, and every pivot past that
  // point compounds Forrest–Tomlin representation error: on room-scale
  // bases the drift eventually corrupts the ratio test badly enough to
  // admit a structurally dependent entering column (observed as a
  // refactorization failure tens of thousands of pivots in). A cold
  // two-phase solve costs ~2m pivots, so bailing here is also the faster
  // route. Deterministic: depends only on m and the pivot count.
  const int dual_pivot_budget = 5 * m_ + 100;
  int dual_pivots_here = 0;
  while (true) {
    if (iterations >= max_iters)
      return LpStatus::kIterationLimit;
    if (dual_pivots_here >= dual_pivot_budget)
      return LpStatus::kIterationLimit;  // caller goes cold

    // Leaving row: the basic variable farthest outside its bounds
    // (deterministic: strictly-worse wins, so ties keep the lowest
    // row). delta is the signed violation.
    int pr = -1;
    double worst = kWarmFeasTolerance;
    double delta = 0.0;
    for (int r = 0; r < m_; ++r) {
      const int b = ws_.sp_basic_of_row[static_cast<std::size_t>(r)];
      const double beta = ws_.sp_beta[static_cast<std::size_t>(r)];
      const double below =
          ws_.sp_lower[static_cast<std::size_t>(b)] - beta;
      const double above =
          beta - ws_.sp_upper[static_cast<std::size_t>(b)];
      if (below > worst) {
        worst = below;
        pr = r;
        delta = -below;
      }
      if (above > worst) {
        worst = above;
        pr = r;
        delta = above;
      }
    }
    if (pr < 0)
      return LpStatus::kOptimal;  // primal feasible again
    ++iterations;
    ++dual_pivots_;
    ++dual_pivots_here;
    const bool bland = degenerate > bland_threshold;

    // rho = row pr of the basis inverse (e_pr through Btran); the
    // pivot-row entry of column j is then a plain dot product.
    ws_.sp_dj.assign(static_cast<std::size_t>(m_), 0.0);
    ws_.sp_dj[static_cast<std::size_t>(pr)] = 1.0;
    ws_.factorization.Btran(ws_.sp_dj);
    ComputeDuals(/*phase_one=*/false);

    // Dual ratio test: among columns whose entry moves the leaving
    // variable toward its violated bound, the smallest |rc/alpha_r|
    // keeps every reduced-cost sign intact. Ties prefer the largest
    // pivot magnitude (stability), then the lowest index; Bland mode
    // (after a degenerate stall) takes the lowest eligible index
    // outright.
    const double dsign = delta > 0.0 ? 1.0 : -1.0;
    int q = -1;
    double best_ratio = kInf;
    double best_mag = 0.0;
    for (int j = 0; j < limit; ++j) {
      const std::size_t sj = static_cast<std::size_t>(j);
      const signed char s = ws_.sp_state[sj];
      if (s == kBasic)
        continue;
      if (ws_.sp_upper[sj] - ws_.sp_lower[sj] <= kFixedTolerance)
        continue;
      double arj = 0.0;
      for (int k = ws_.columns.start[sj]; k < ws_.columns.start[sj + 1];
           ++k) {
        arj += ws_.columns.value[static_cast<std::size_t>(k)] *
               ws_.sp_dj[static_cast<std::size_t>(
                   ws_.columns.row[static_cast<std::size_t>(k)])];
      }
      if (std::fabs(arj) <= kRatioTolerance)
        continue;
      const bool ok = s == kFreeAtZero ||
                      (s == kAtLower && dsign * arj > 0.0) ||
                      (s == kAtUpper && dsign * arj < 0.0);
      if (!ok)
        continue;
      if (bland) {
        q = j;
        break;
      }
      const double ratio =
          std::fabs(ReducedCost(j, /*phase_one=*/false)) / std::fabs(arj);
      const double mag = std::fabs(arj);
      bool take = false;
      if (q < 0 || ratio < best_ratio - kRatioTolerance)
        take = true;
      else if (ratio < best_ratio + kRatioTolerance && mag > best_mag)
        take = true;
      if (take) {
        best_ratio = q < 0 ? ratio : std::min(best_ratio, ratio);
        best_mag = mag;
        q = j;
      }
    }
    if (q < 0) {
      // The infeasibility verdict is trusted as a Farkas certificate, so
      // it must never rest on drifted update factors: resharpen first and
      // re-price; only a verdict reached on fresh factors is returned.
      if (ws_.factorization.updates_since_refactor() > 0) {
        if (!RefactorizeBasis())
          return LpStatus::kIterationLimit;  // caller goes cold
        ComputeBeta();
        continue;
      }
      return LpStatus::kInfeasible;
    }

    // Pivot: q enters through the factorized column, the leaving
    // variable lands exactly on its violated bound.
    ws_.sp_alpha.assign(static_cast<std::size_t>(m_), 0.0);
    for (int k = ws_.columns.start[static_cast<std::size_t>(q)];
         k < ws_.columns.start[static_cast<std::size_t>(q) + 1]; ++k) {
      ws_.sp_alpha[static_cast<std::size_t>(
          ws_.columns.row[static_cast<std::size_t>(k)])] =
          ws_.columns.value[static_cast<std::size_t>(k)];
    }
    ws_.factorization.Ftran(ws_.sp_alpha);
    const double arq = ws_.sp_alpha[static_cast<std::size_t>(pr)];
    if (std::fabs(arq) <= kPivotTolerance) {
      // The factorized entry is too small to pivot on. With stale
      // factors that is usually drift: resharpen and re-price this row.
      // With fresh factors it is structural — hand the solve to the
      // cold path rather than loop on the same tiny pivot.
      if (ws_.factorization.updates_since_refactor() == 0 ||
          !RefactorizeBasis())
        return LpStatus::kIterationLimit;
      ComputeBeta();
      ++degenerate;
      continue;
    }
    // As in the primal loop: absorb the pivot into the factors first,
    // so a stability rejection can fall back to refactorize-and-reprice
    // without unwinding any committed state.
    const bool fresh = ws_.factorization.updates_since_refactor() == 0;
    const bool absorbed = ws_.factorization.Update(pr, ws_.sp_alpha);
    if (!absorbed && !fresh) {
      if (!RefactorizeBasis())
        return LpStatus::kIterationLimit;  // caller goes cold
      ComputeBeta();
      ++degenerate;
      continue;
    }
    const int leaving = ws_.sp_basic_of_row[static_cast<std::size_t>(pr)];
    const double bound = delta > 0.0
                             ? ws_.sp_upper[static_cast<std::size_t>(leaving)]
                             : ws_.sp_lower[static_cast<std::size_t>(leaving)];
    const double step =
        (ws_.sp_beta[static_cast<std::size_t>(pr)] - bound) / arq;
    for (int r = 0; r < m_; ++r) {
      if (r != pr) {
        ws_.sp_beta[static_cast<std::size_t>(r)] -=
            step * ws_.sp_alpha[static_cast<std::size_t>(r)];
      }
    }
    ws_.sp_value[static_cast<std::size_t>(leaving)] = bound;
    ws_.sp_state[static_cast<std::size_t>(leaving)] =
        delta > 0.0 ? kAtUpper : kAtLower;
    const double xq = ws_.sp_value[static_cast<std::size_t>(q)] + step;
    ws_.sp_state[static_cast<std::size_t>(q)] = kBasic;
    ws_.sp_value[static_cast<std::size_t>(q)] = xq;
    ws_.sp_beta[static_cast<std::size_t>(pr)] = xq;
    ws_.sp_basic_of_row[static_cast<std::size_t>(pr)] = q;
    if (!absorbed ||
        ws_.factorization.updates_since_refactor() >= refactor_interval_) {
      // A refactorization refusal here means the committed pivot chain —
      // each step individually clearing kPivotTolerance through the
      // updated factors — has drifted onto a (near-)singular column set.
      // The warm path must never change an answer, so hand the solve to
      // the cold two-phase path, which rebuilds everything from scratch.
      if (!RefactorizeBasis())
        return LpStatus::kIterationLimit;  // caller goes cold
      ComputeBeta();
    }
    // Bland mode is sticky: once a degenerate stall forced it, leaving
    // it on a single improving step could re-enter the same cycle.
    if (bland || best_ratio <= kTolerance)
      ++degenerate;
    else
      degenerate = 0;
  }
}

LpStatus
RevisedSolver::RunTwoPhase(int max_iters, int& iterations)
{
  SetupColdBasis();
  if (m_ > 0) {
    FLEX_CHECK_MSG(RefactorizeBasis(), "initial simplex basis is singular");
    ComputeBeta();
  }

  if (num_cols_ > first_artificial_) {
    const LpStatus status = Iterate(/*phase_one=*/true, max_iters, iterations);
    if (status != LpStatus::kOptimal) {
      // Phase 1 minimizes a sum bounded below by zero; "unbounded" can
      // only be a numerical artifact of an infeasible system.
      return status == LpStatus::kUnbounded ? LpStatus::kInfeasible : status;
    }
    double infeasibility = 0.0;
    for (int r = 0; r < m_; ++r) {
      if (ws_.sp_basic_of_row[static_cast<std::size_t>(r)] >= first_artificial_)
        infeasibility += std::fabs(ws_.sp_beta[static_cast<std::size_t>(r)]);
    }
    if (infeasibility > kInfeasibilityTolerance)
      return LpStatus::kInfeasible;
    // Pin artificials at zero; basic ones stay basic but can no longer
    // move off zero, and Phase-2 pricing never lets one re-enter.
    for (int a = first_artificial_; a < num_cols_; ++a) {
      ws_.sp_upper[static_cast<std::size_t>(a)] = 0.0;
      if (ws_.sp_state[static_cast<std::size_t>(a)] != kBasic) {
        ws_.sp_state[static_cast<std::size_t>(a)] = kAtLower;
        ws_.sp_value[static_cast<std::size_t>(a)] = 0.0;
      }
    }
  }

  return Iterate(/*phase_one=*/false, max_iters, iterations);
}

LpResult
RevisedSolver::Solve(const BoundOverrides& overrides,
                     const SimplexBasis* warm_basis, SimplexBasis* basis_out)
{
  LpResult result;
  if (basis_out != nullptr)
    basis_out->clear();
  const BasisFactorization::Stats before = ws_.factorization.stats();
  n_ = model_.NumVariables();
  m_ = model_.NumConstraints();
  FLEX_REQUIRE(overrides.empty() || static_cast<int>(overrides.size()) == n_,
               "bound overrides must be empty or cover every variable");

  const int max_iters = 50 * (n_ + 3 * m_) + 1000;
  int iterations = 0;
  LpStatus status = LpStatus::kIterationLimit;
  bool solved = false;
  bool box_infeasible = false;

  auto finish_counters = [&] {
    const BasisFactorization::Stats after = ws_.factorization.stats();
    result.refactors = static_cast<int>(after.refactors - before.refactors);
    result.eta_updates =
        static_cast<int>(after.eta_updates - before.eta_updates);
    result.dual_pivots = dual_pivots_;
  };

  // Warm cleanup shared by the resident and install routes: a basis
  // still primal feasible goes straight to Phase 2; one pushed out of
  // primal range by the child bounds but still dual feasible (the
  // normal state of a branching child) is repaired by dual pivots
  // first. Either way Phase 1 is skipped. A dual-simplex infeasibility
  // verdict is trusted: with a dual-feasible basis the blocked row is a
  // Farkas certificate.
  auto run_warm = [&]() -> bool {
    if (PrimalFeasibleClamp()) {
      status = Iterate(/*phase_one=*/false, max_iters, iterations);
      return status == LpStatus::kOptimal;
    }
    if (!DualFeasibleBasis())
      return false;
    const LpStatus dual_status = IterateDual(max_iters, iterations);
    if (dual_status == LpStatus::kOptimal && PrimalFeasibleClamp()) {
      used_dual_ = true;
      status = Iterate(/*phase_one=*/false, max_iters, iterations);
      return status == LpStatus::kOptimal;
    }
    if (dual_status == LpStatus::kInfeasible) {
      used_dual_ = true;
      status = LpStatus::kInfeasible;
      return true;
    }
    return false;
  };

  if (warm_basis != nullptr && !warm_basis->empty() && m_ > 0) {
    result.warm_start_attempted = true;
    bool warm_ready = false;
    if (TryAdoptResident(*warm_basis)) {
      if (!UpdateStructuralBounds(overrides)) {
        box_infeasible = true;
      } else {
        ReparkNonbasicStructurals();
        ComputeBeta();
        warm_ready = true;
      }
    } else if (TryPatchResident(*warm_basis, overrides, &box_infeasible)) {
      warm_ready = !box_infeasible;
    } else if (PrepareBounds(overrides)) {
      BuildColumns();
      SetupCosts();
      warm_ready = InstallWarmBasis(*warm_basis);
    } else {
      box_infeasible = true;
    }
    if (warm_ready && run_warm()) {
      solved = true;
      result.warm_start_used = true;
      result.warm_dual_restart = used_dual_;
    }
    if (!solved && !box_infeasible) {
      // A warm basis must never change the answer, only the route:
      // rebuild the column file (installs may have appended artificial
      // columns, and the warm iterations moved everything) and run the
      // cold two-phase path. Structural bounds in sp_lower/sp_upper are
      // already the child's, so they carry over as-is.
      BuildColumns();
      SetupCosts();
    }
  } else if (!PrepareBounds(overrides)) {
    box_infeasible = true;
  } else {
    BuildColumns();
    SetupCosts();
  }
  if (box_infeasible) {
    // An empty bound box is decided before the factors are touched, so
    // whatever resident claim the workspace held is still accurate —
    // keep it for the next solve. (If the failing route was
    // PrepareBounds, its truncated bound arrays invalidate the claim
    // through the adoption size checks instead.)
    result.status = LpStatus::kInfeasible;
    finish_counters();
    return result;
  }
  if (!solved)
    status = RunTwoPhase(max_iters, iterations);
  if (status == LpStatus::kIterationLimit && iterations < max_iters) {
    // Numerical give-up, not budget exhaustion: somewhere a
    // refactorization refused a basis assembled through drifted
    // Forrest–Tomlin factors (between refactorizations the
    // representation error can exceed kPivotTolerance, letting a
    // structurally dependent column pass a ratio test). Retry the cold
    // two-phase path with a near-paranoid refactor interval — factors
    // are then always fresh when pivots are chosen, so phantom pivots
    // cannot arise. Deterministic: the retry depends only on the solve
    // inputs. Callers prune nodes whose LP is not optimal, so quietly
    // returning kIterationLimit here could silently change answers.
    const int saved_interval = refactor_interval_;
    refactor_interval_ = 4;
    status = RunTwoPhase(max_iters, iterations);
    refactor_interval_ = saved_interval;
  }

  result.status = status;
  result.iterations = iterations;
  // Every pivot commits its Forrest–Tomlin update before touching the
  // iterate, so at ANY exit — optimal or not — the loaded factors, row
  // file, and states are mutually consistent and realise a valid basis
  // of this model. Claim residency under a fresh id (no snapshot
  // carries it; only the content/patch adoption routes can match), so
  // the solve after a pruned-infeasible child can still patch instead
  // of refactorizing. A successful extraction below upgrades the claim
  // to the snapshot's own id.
  if (m_ > 0 && static_cast<int>(ws_.sp_basic_of_row.size()) == m_) {
    ws_.resident_basis_id = ++g_next_basis_id;
    ws_.resident_model = static_cast<const void*>(&model_);
    ws_.resident_num_cols = num_cols_;
    ws_.resident_first_artificial = first_artificial_;
  } else {
    ws_.resident_basis_id = 0;
  }
  if (status == LpStatus::kOptimal) {
    // Conditional polish: refactorize before extraction only when
    // enough Forrest–Tomlin updates have accumulated for beta and the
    // duals to have drifted; short warm re-solves (the common
    // branching-child case) extract straight from the loaded factors.
    if (m_ > 0 &&
        ws_.factorization.updates_since_refactor() >= kPolishUpdateThreshold &&
        RefactorizeBasis())
      ComputeBeta();
    for (int r = 0; r < m_; ++r) {
      ws_.sp_value[static_cast<std::size_t>(
          ws_.sp_basic_of_row[static_cast<std::size_t>(r)])] =
          ws_.sp_beta[static_cast<std::size_t>(r)];
    }
    result.x.assign(ws_.sp_value.begin(),
                    ws_.sp_value.begin() + static_cast<std::ptrdiff_t>(n_));
    result.objective = model_.ObjectiveValue(result.x);
    ComputeDuals(/*phase_one=*/false);
    result.dual.assign(ws_.sp_dual.begin(), ws_.sp_dual.end());
    result.reduced_costs.assign(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j) {
      result.reduced_costs[static_cast<std::size_t>(j)] =
          ReducedCost(j, /*phase_one=*/false);
    }
    if (basis_out != nullptr) {
      basis_out->rows.reserve(static_cast<std::size_t>(m_));
      for (int r = 0; r < m_; ++r) {
        const int b = ws_.sp_basic_of_row[static_cast<std::size_t>(r)];
        SimplexBasis::RowEntry entry;
        entry.row_id = r;
        if (b < n_) {
          entry.kind = SimplexBasis::Kind::kStructural;
          entry.col_id = b;
        } else if (b < n_ + m_) {
          entry.kind = SimplexBasis::Kind::kSlack;
          entry.col_id = b - n_;
        } else {
          entry.kind = SimplexBasis::Kind::kArtificial;
          entry.col_id = ws_.columns.row[static_cast<std::size_t>(
              ws_.columns.start[static_cast<std::size_t>(b)])];
        }
        basis_out->rows.push_back(entry);
      }
      for (int j = 0; j < n_; ++j) {
        if (ws_.sp_state[static_cast<std::size_t>(j)] == kAtUpper)
          basis_out->at_upper.push_back(j);
      }
      // Tag the snapshot and leave the workspace claiming it: a
      // follow-up warm solve handed this exact snapshot (the dive /
      // re-solve pattern) adopts the loaded factors with zero rebuild.
      basis_out->id = ++g_next_basis_id;
      ws_.resident_basis_id = basis_out->id;
      ws_.resident_model = static_cast<const void*>(&model_);
      ws_.resident_num_cols = num_cols_;
      ws_.resident_first_artificial = first_artificial_;
    }
  }

  finish_counters();
  return result;
}

}  // namespace

LpResult
SimplexSolver::Solve(const Model& model) const
{
  return SolveWithBounds(model, BoundOverrides{});
}

LpResult
SimplexSolver::SolveWithBounds(const Model& model,
                               const BoundOverrides& overrides) const
{
  return SolveWithBounds(model, overrides, nullptr, nullptr, nullptr);
}

LpResult
SimplexSolver::SolveWithBounds(const Model& model,
                               const BoundOverrides& overrides,
                               SimplexWorkspace* workspace,
                               const SimplexBasis* warm_basis,
                               SimplexBasis* basis_out) const
{
  SimplexWorkspace local;
  SimplexWorkspace& ws = workspace != nullptr ? *workspace : local;
  RevisedSolver solver(model, ws);
  return solver.Solve(overrides, warm_basis, basis_out);
}

}  // namespace flex::solver
