/**
 * @file
 * Branch-and-bound solver for mixed 0/1 integer linear programs.
 *
 * Substitutes for the paper's Gurobi dependency. The Flex-Offline
 * placement ILP mixes binary placement indicators with a few continuous
 * auxiliaries (for the throttling-imbalance linearization); this solver
 * branches only on the integer variables, bounds each node with the
 * simplex LP relaxation, and dives greedily for early incumbents. Like
 * the paper's setup (Gurobi stopped after 5 minutes), solves honour a
 * wall-clock budget and report the best incumbent plus the optimality
 * gap.
 *
 * Node exploration is wave-synchronous: each iteration pops a fixed-size
 * wave of best-bound nodes, solves their LP relaxations concurrently on
 * a work-stealing pool (each warm-started from the parent basis), then
 * merges results serially in wave order. Because the wave size is
 * independent of the thread count and the merge is serial, a solve that
 * finishes within its budgets produces a bit-identical incumbent,
 * objective, and bound at 1 and N threads; only wall-clock time changes.
 */
#ifndef FLEX_SOLVER_BRANCH_AND_BOUND_HPP_
#define FLEX_SOLVER_BRANCH_AND_BOUND_HPP_

#include <cstdint>
#include <vector>

#include "solver/live_stats.hpp"
#include "solver/model.hpp"
#include "solver/simplex.hpp"
#include "solver/solver_trace.hpp"

namespace flex::common {
class ThreadPool;
}  // namespace flex::common

namespace flex::solver {

/** Outcome of a MILP solve. */
enum class MipStatus {
  kOptimal,       ///< incumbent proven optimal (within gap tolerance)
  kFeasible,      ///< budget exhausted with a feasible incumbent
  kInfeasible,    ///< no integer-feasible solution exists
  kNoSolution,    ///< budget exhausted before any incumbent was found
};

/** Solution of a MILP solve. */
struct MipResult {
  MipStatus status = MipStatus::kNoSolution;
  double objective = 0.0;      ///< incumbent objective (model sense)
  std::vector<double> x;       ///< incumbent solution
  double bound = 0.0;          ///< best proven bound on the optimum
  double gap = 0.0;            ///< |bound - objective| / max(1, |objective|)
  std::int64_t nodes_explored = 0;
  std::int64_t lp_solves = 0;      ///< LP relaxations solved (all callers)
  std::int64_t simplex_pivots = 0; ///< pivots summed over those solves
  // Revised-simplex + presolve telemetry (PR 6).
  std::int64_t simplex_refactors = 0;   ///< basis LU refactorizations
  std::int64_t eta_updates = 0;         ///< Forrest–Tomlin basis updates
  int presolve_rows_removed = 0;        ///< constraints removed at the root
  int presolve_cols_removed = 0;        ///< variables eliminated at the root
  // Dual-simplex warm restarts + node propagation (PR 9).
  std::int64_t dual_pivots = 0;         ///< dual-simplex pivots, all solves
  std::int64_t warm_dual_restarts = 0;  ///< warm solves repaired by dual phase
  std::int64_t propagation_prunes = 0;  ///< nodes pruned before any LP solve
  std::int64_t propagated_bounds = 0;   ///< node-local bound tightenings
  // Concurrency telemetry (PR 4).
  int threads_used = 1;            ///< pool width the solve ran with
  std::int64_t steal_count = 0;    ///< pool steals during this solve
  std::vector<std::int64_t> nodes_per_thread;  ///< node LPs per pool lane
  std::int64_t basis_reuse_attempts = 0;  ///< warm-basis installs tried
  std::int64_t basis_reuse_hits = 0;      ///< ... that skipped Phase 1

  bool HasSolution() const {
    return status == MipStatus::kOptimal || status == MipStatus::kFeasible;
  }
};

/**
 * Best-first branch-and-bound with LP bounding and greedy diving.
 */
class BranchAndBoundSolver {
 public:
  struct Options {
    double time_budget_seconds = 60.0;  ///< wall-clock cutoff
    std::int64_t max_nodes = 200000;    ///< node cutoff
    int dive_depth = 64;                ///< greedy dive length for incumbents
    /**
     * Run presolve once before the root relaxation and search the
     * reduced model (incumbents are postsolved back to the original
     * variable space and re-verified against the original model).
     * Reductions preserve the optimal objective value, never the set
     * of alternate optima.
     */
    bool presolve = true;
    /**
     * Solver thread count: 0 resolves via FLEX_SOLVER_THREADS (default:
     * hardware concurrency), 1 forces a serial solve, >1 runs node
     * waves on ThreadPool::Shared(). The search path and final answer
     * are identical at every setting; only wall-clock time changes.
     * Time-budget truncation is the one exception: a solve cut off
     * mid-search may have explored a different prefix of the tree.
     */
    int threads = 0;
    /**
     * Pool override for tests and embedders; when null and the resolved
     * thread count exceeds 1, ThreadPool::Shared() is used. Not owned.
     */
    common::ThreadPool* pool = nullptr;
    /**
     * Optional feasible starting point (one value per variable). If it
     * checks out against the model it seeds the incumbent, so a solve
     * that exhausts its budget can never return worse than the caller's
     * own heuristic.
     */
    std::vector<double> warm_start;
    /**
     * Optional convergence trace the solve appends to (root, every new
     * incumbent, every trace_node_interval nodes, termination). Not
     * owned; must outlive the Solve call.
     */
    SolverTrace* trace = nullptr;
    std::int64_t trace_node_interval = 32;
    /**
     * Optional live-progress sink updated at wave boundaries for the
     * observability plane. Not owned; must outlive the Solve call.
     * Purely write-only from the solver's perspective — never read back
     * into search decisions, so wiring it cannot change the answer.
     */
    LiveSolverStats* live = nullptr;
  };

  BranchAndBoundSolver() = default;
  explicit BranchAndBoundSolver(Options options) : options_(options) {}

  /** Solves @p model to (near-)optimality within the budgets. */
  MipResult Solve(const Model& model) const;

 private:
  Options options_;
};

}  // namespace flex::solver

#endif  // FLEX_SOLVER_BRANCH_AND_BOUND_HPP_
