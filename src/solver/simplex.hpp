/**
 * @file
 * Primal simplex solver for bounded-variable linear programs.
 *
 * Solves the LP relaxation of a Model (integrality ignored). Variable
 * bounds may be overridden per solve, which is how branch-and-bound fixes
 * binaries without copying the model. The solver is a bounded-variable
 * revised simplex on CSC columns (revised_simplex.cpp). The basis is
 * held as a sparse LU with Forrest–Tomlin updates (BasisFactorization)
 * and refactorization on schedule or numerical distress; variable bounds
 * are handled natively (nonbasic variables sit at either bound and may
 * flip without a basis change), so no bound rows are ever materialized.
 * Pricing is partial (rotating segments, Dantzig within a segment) with
 * a Bland's-rule fallback on stall. A dual-simplex phase restores primal
 * feasibility of a warm basis that a bound change pushed out of range,
 * so branching children rarely go cold. The solver tests check it
 * against an independent dense-tableau oracle (tests/lp_oracle.hpp).
 *
 * Two features exist for the branch-and-bound caller:
 *  - SimplexWorkspace: all scratch storage (CSC columns + LU factors)
 *    lives in caller-owned buffers reused across solves, so a
 *    million node re-solves allocate the same few arrays instead of a
 *    fresh vector-of-vectors each. The workspace also remembers which
 *    basis snapshot its factorization currently represents: a warm
 *    solve handed the snapshot the same workspace just produced adopts
 *    the loaded factors directly — no column rebuild, no
 *    refactorization.
 *  - SimplexBasis: a structural snapshot of the optimal basis. A child
 *    node whose bounds differ from its parent by one variable installs
 *    the parent basis and skips Phase 1 entirely when that basis is
 *    still primal feasible; a basis pushed out of primal range by the
 *    tightened bound is still dual feasible and is repaired by a few
 *    dual-simplex pivots. Only when both routes fail does the solve
 *    silently fall back to the cold two-phase path.
 */
#ifndef FLEX_SOLVER_SIMPLEX_HPP_
#define FLEX_SOLVER_SIMPLEX_HPP_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "solver/basis_lu.hpp"
#include "solver/model.hpp"

namespace flex::solver {

/** Outcome of an LP solve. */
enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

/** Solution of an LP solve. */
struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;               ///< in the model's original sense
  std::vector<double> x;                ///< one entry per model variable
  int iterations = 0;                   ///< pivots (and bound flips) performed
  bool warm_start_attempted = false;    ///< a basis install was tried
  bool warm_start_used = false;         ///< ... and Phase 1 was skipped
  int refactors = 0;                    ///< basis LU refactorizations
  int eta_updates = 0;                  ///< Forrest–Tomlin basis updates
  int dual_pivots = 0;                  ///< dual-simplex pivots performed
  /** The warm basis was primal infeasible under the new bounds and the
   * dual simplex repaired (or refuted) it without a cold Phase 1. */
  bool warm_dual_restart = false;
  /**
   * Optimality certificate, filled on kOptimal. Both are stated for
   * the *minimization* orientation of the model (maximize models are
   * solved as minimize -c): at an optimum,
   * reduced_costs[j] >= -tol for variables at their lower bound,
   * <= tol at their upper bound, ~0 for basic variables, and
   * reduced_costs == c_min - A^T dual holds by construction. dual has
   * one entry per model constraint; <= rows have dual <= tol, >= rows
   * have dual >= -tol.
   */
  std::vector<double> dual;
  std::vector<double> reduced_costs;

  bool IsOptimal() const { return status == LpStatus::kOptimal; }
};

/** Per-variable [lower, upper] override used by branch-and-bound. */
using BoundOverrides = std::vector<std::optional<std::pair<double, double>>>;

/**
 * Structural snapshot of a simplex basis, stable across the bound
 * changes between a branch-and-bound parent and its children. Rows are
 * identified by the model constraint index. Basic columns are
 * identified as a structural variable, or the slack/artificial belonging
 * to one of those rows. Entries that do not fit the model being solved
 * are simply skipped on install.
 */
struct SimplexBasis {
  enum class Kind { kNone, kStructural, kSlack, kArtificial };
  struct RowEntry {
    int row_id = -1;            ///< constraint index
    Kind kind = Kind::kNone;    ///< what is basic in this row
    int col_id = -1;            ///< var index, or the owning row's row_id
  };
  std::vector<RowEntry> rows;
  /**
   * Structural variables nonbasic at their *upper* bound (sorted var
   * indices); every other nonbasic structural sits at its lower bound.
   */
  std::vector<int> at_upper;
  /**
   * Identity of the solve that produced this snapshot (0 = none;
   * process-unique otherwise). A warm solve whose workspace still holds
   * the factorization tagged with this id adopts it directly instead of
   * rebuilding columns and refactorizing. Only equality is ever
   * consulted, so the nondeterministic allocation order of ids across
   * threads cannot influence the search path.
   */
  std::uint64_t id = 0;

  bool empty() const { return rows.empty(); }
  void clear() {
    rows.clear();
    at_upper.clear();
    id = 0;
  }
};

/**
 * Caller-owned scratch buffers for SimplexSolver. Reusing one workspace
 * across solves bounds allocation: every buffer is assign()ed in place,
 * so steady-state re-solves perform no heap allocation at all. Contents
 * between calls are meaningless. Not thread-safe; use one workspace per
 * thread.
 */
struct SimplexWorkspace {
  BasisFactorization factorization;
  SparseColumns columns;           // structural + slack + artificial columns
  std::vector<double> sp_cost;     // phase-2 cost per column (minimize)
  std::vector<double> sp_lower;    // working bounds per column
  std::vector<double> sp_upper;
  std::vector<double> sp_value;    // current value of every column
  std::vector<signed char> sp_state;  // VarState per column
  std::vector<int> sp_basic_of_row;   // column basic in each row
  std::vector<double> sp_beta;     // values of basic columns, by row
  std::vector<double> sp_alpha;    // Ftran'd entering column
  std::vector<double> sp_rhs;      // working right-hand side per row
  std::vector<double> sp_dual;     // row duals (Btran scratch)
  std::vector<double> sp_dj;       // reduced-cost / dual-pricing scratch

  // Which basis snapshot the solver state (columns, factorization,
  // states/values) currently represents: the id of the SimplexBasis the
  // last solve in this workspace emitted, or 0 when the state is stale.
  // A warm solve matching on (id, model) reuses the loaded factors
  // as-is — zero column rebuilds and zero refactorizations.
  std::uint64_t resident_basis_id = 0;
  const void* resident_model = nullptr;
  int resident_num_cols = 0;
  int resident_first_artificial = 0;
};

/**
 * Bounded-variable revised primal simplex.
 *
 * Stateless between solves; safe to reuse for many LPs, and safe to
 * share across threads as long as each thread passes its own workspace.
 */
class SimplexSolver {
 public:
  /** Solves the LP relaxation of @p model. */
  LpResult Solve(const Model& model) const;

  /**
   * Solves with per-variable bound overrides; @p overrides may be empty
   * (same as Solve) or have one entry per variable.
   */
  LpResult SolveWithBounds(const Model& model,
                           const BoundOverrides& overrides) const;

  /**
   * Full-control overload. @p workspace supplies reusable scratch
   * storage (nullptr = a throwaway local). @p warm_basis, when non-null
   * and non-empty, is installed before Phase 2; if it is not primal
   * feasible under the new bounds the solve transparently reruns the
   * cold two-phase path (LpResult::warm_start_used reports which path
   * produced the answer). @p basis_out, when non-null, receives the
   * optimal basis snapshot on kOptimal (cleared otherwise).
   */
  LpResult SolveWithBounds(const Model& model, const BoundOverrides& overrides,
                           SimplexWorkspace* workspace,
                           const SimplexBasis* warm_basis,
                           SimplexBasis* basis_out) const;
};

}  // namespace flex::solver

#endif  // FLEX_SOLVER_SIMPLEX_HPP_
