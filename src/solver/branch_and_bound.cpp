#include "branch_and_bound.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "solver/presolve.hpp"

namespace flex::solver {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Activity-propagation passes per interior node. Two passes catch the
 * dominant pattern (a branched binary tightening its rows' partners);
 * a third sweeps up second-order implications cheaply. More passes give
 * diminishing returns against the LP the node solves anyway.
 */
constexpr int kPropagatePasses = 3;

/** Relative gap at which the incumbent is reported kOptimal. */
constexpr double kGapTolerance = 1e-6;

/** A value within this of an integer counts as integral. */
constexpr double kIntegralityTolerance = 1e-6;

/**
 * Nodes popped per wave. Deliberately independent of the thread
 * count so determinism never depends on the pool width; larger
 * waves expose more parallelism but prune slightly less eagerly.
 */
constexpr int kWaveSize = 8;

using Clock = std::chrono::steady_clock;

/**
 * A subproblem, stored as a bound-delta chain: each node records only
 * the single (var, lo, hi) restriction its branch added, plus a pointer
 * to its parent. Materializing the full override vector walks the chain
 * (nearest override wins — branching only ever tightens a bound), so a
 * frontier of a million nodes costs one small struct per node instead
 * of a full override vector per node.
 */
struct Node {
  std::shared_ptr<const Node> parent;
  int var = -1;          // branched variable; -1 for the root
  double lo = 0.0;
  double hi = 0.0;
  double bound = 0.0;    // parent LP bound, in "maximize" orientation
  int depth = 0;
  std::uint64_t seq = 0; // creation order; ties in bound break on this
  /** Parent's optimal LP basis; warm-starts this node's re-solve. */
  std::shared_ptr<const SimplexBasis> basis;
  /**
   * Wave slot in which the parent's LP was solved. Children prefer that
   * slot so the workspace whose factors realise (or sit one sibling
   * away from) the warm-start snapshot gets handed exactly that
   * snapshot — the resident-basis adoption/patch routes then skip the
   * refactorization an install would pay. Purely a placement hint;
   * a pure function of the search history, so it cannot affect results.
   */
  int pref_slot = -1;
};

/**
 * Frontier order: best (largest) bound first, ties newest-first. The
 * newest-first tie-break is best-bound with plunging: a freshly
 * branched child pops before the (often huge) plateau of equal-bound
 * nodes, so it is solved in the wave right after its parent — while
 * the parent's factorized basis is still resident in its wave slot,
 * which is what lets the adopt/patch warm routes skip the
 * refactorization an install would pay. Diving deeper first also
 * reaches integral incumbents sooner, which tightens pruning on the
 * plateau itself. The deterministic seq tie-break makes the pop order
 * — and therefore the wave composition — a pure function of the
 * search history, independent of heap internals and thread count.
 */
struct NodeOrder {
  bool
  operator()(const std::shared_ptr<const Node>& a,
             const std::shared_ptr<const Node>& b) const
  {
    if (a->bound != b->bound)
      return a->bound < b->bound;
    return a->seq < b->seq;
  }
};

/** One wave slot's LP outcome, produced concurrently, merged serially. */
struct WaveResult {
  LpResult lp;
  std::shared_ptr<SimplexBasis> basis;
  int lane = 0;  // pool lane that executed the LP (telemetry only)
  /** Bound propagation proved the node infeasible; no LP was solved. */
  bool propagation_pruned = false;
  int propagated_bounds = 0;  // bound tightenings applied before the LP
};

/** Most-fractional integer variable, or -1 when integral. */
int
PickBranchVariable(const Model& model, const std::vector<double>& x,
                   double tol)
{
  int best = -1;
  double best_score = tol;
  for (int j = 0; j < model.NumVariables(); ++j) {
    if (!model.variables()[static_cast<std::size_t>(j)].is_integer)
      continue;
    const double value = x[static_cast<std::size_t>(j)];
    const double frac = std::fabs(value - std::round(value));
    // Distance from integrality, maximized at 0.5.
    if (frac > best_score) {
      best_score = frac;
      best = j;
    }
  }
  return best;
}

double
RelativeGap(double bound, double incumbent)
{
  return std::fabs(bound - incumbent) / std::max(1.0, std::fabs(incumbent));
}

}  // namespace

MipResult
BranchAndBoundSolver::Solve(const Model& model) const
{
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options_.time_budget_seconds));

  // Live-progress plumbing: additive relaxed stores only, so several
  // concurrent solves can share one sink and a scraper thread can read
  // it mid-solve. The guard clears the per-solve gauges and counts the
  // solve finished on every exit path.
  LiveSolverStats* const live = options_.live;
  struct LiveGuard {
    LiveSolverStats* live;
    ~LiveGuard()
    {
      if (live != nullptr) {
        live->wave_nodes.store(0, std::memory_order_relaxed);
        live->open_nodes.store(0, std::memory_order_relaxed);
        live->solves_finished.fetch_add(1, std::memory_order_relaxed);
      }
    }
  } live_guard{live};
  if (live != nullptr)
    live->solves_started.fetch_add(1, std::memory_order_relaxed);
  const double sense = model.sense() == Sense::kMaximize ? 1.0 : -1.0;
  const SimplexSolver lp;

  // Presolve shrinks the model once, up front; the search then runs
  // entirely in the reduced variable space. Incumbents are postsolved
  // back to the original space (and re-verified against the original
  // model) before acceptance, and every LP bound is shifted by the
  // objective contribution of the eliminated variables.
  Presolved pre;
  bool use_presolve = false;
  double pre_offset = 0.0;
  MipResult result;
  if (options_.presolve) {
    if (Presolve(model, &pre) == PresolveStatus::kInfeasible) {
      result.status = MipStatus::kInfeasible;
      result.presolve_rows_removed = pre.rows_removed;
      result.presolve_cols_removed = pre.cols_removed;
      if (options_.trace != nullptr) {
        SolverTracePoint point;
        point.label = "final";
        options_.trace->Add(std::move(point));
      }
      return result;
    }
    use_presolve = true;
    pre_offset = pre.objective_offset;
    result.presolve_rows_removed = pre.rows_removed;
    result.presolve_cols_removed = pre.cols_removed;
  }
  const Model& search = use_presolve ? pre.reduced : model;
  const int n = search.NumVariables();

  // Resolve the execution width. An explicit pool always wins (tests
  // exercise real concurrency this way even on 1-core machines);
  // otherwise FLEX_SOLVER_THREADS / hardware concurrency decide whether
  // the shared pool is worth involving at all.
  common::ThreadPool* pool = options_.pool;
  if (pool == nullptr) {
    const int resolved = options_.threads > 0
                             ? options_.threads
                             : common::ThreadPool::ConfiguredThreads();
    if (resolved > 1 && options_.threads != 1)
      pool = &common::ThreadPool::Shared();
  }
  if (pool != nullptr && pool->size() <= 1)
    pool = nullptr;
  const int lanes = pool != nullptr ? pool->size() : 1;
  const std::int64_t steals_before = pool != nullptr ? pool->steal_count() : 0;

  result.threads_used = lanes;
  result.nodes_per_thread.assign(static_cast<std::size_t>(lanes), 0);

  // One workspace per wave slot plus one for serial solves (root,
  // dives). Slots are positional, not thread-identified: task i of a
  // wave always uses workspace i, so no two concurrent tasks can share
  // a buffer no matter which pool lane picks them up.
  std::vector<SimplexWorkspace> workspaces(
      static_cast<std::size_t>(kWaveSize) + 1);
  SimplexWorkspace& serial_ws = workspaces.back();

  double incumbent_max = -kInf;  // incumbent objective, maximize orientation
  double best_bound_max = kInf;  // best proven bound, maximize orientation

  auto solve_lp = [&](const BoundOverrides& overrides,
                      const SimplexBasis* warm, SimplexBasis* basis_out) {
    LpResult sub =
        lp.SolveWithBounds(search, overrides, &serial_ws, warm, basis_out);
    ++result.lp_solves;
    if (live != nullptr)
      live->lp_solves.fetch_add(1, std::memory_order_relaxed);
    result.simplex_pivots += sub.iterations;
    result.simplex_refactors += sub.refactors;
    result.eta_updates += sub.eta_updates;
    result.dual_pivots += sub.dual_pivots;
    if (sub.warm_start_attempted)
      ++result.basis_reuse_attempts;
    if (sub.warm_start_used)
      ++result.basis_reuse_hits;
    if (sub.warm_dual_restart) {
      ++result.warm_dual_restarts;
      if (live != nullptr)
        live->warm_dual_restarts.fetch_add(1, std::memory_order_relaxed);
    }
    if (live != nullptr && sub.dual_pivots > 0)
      live->dual_pivots.fetch_add(sub.dual_pivots, std::memory_order_relaxed);
    return sub;
  };

  auto emit_trace = [&](const char* label) {
    if (options_.trace == nullptr)
      return;
    SolverTracePoint point;
    point.label = label;
    point.elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    point.nodes = result.nodes_explored;
    point.lp_solves = result.lp_solves;
    point.pivots = result.simplex_pivots;
    point.basis_attempts = result.basis_reuse_attempts;
    point.basis_hits = result.basis_reuse_hits;
    point.refactors = result.simplex_refactors;
    point.eta_updates = result.eta_updates;
    point.presolve_rows_removed = result.presolve_rows_removed;
    point.presolve_cols_removed = result.presolve_cols_removed;
    point.dual_pivots = result.dual_pivots;
    point.warm_dual_restarts = result.warm_dual_restarts;
    point.propagation_prunes = result.propagation_prunes;
    point.propagated_bounds = result.propagated_bounds;
    point.has_incumbent = incumbent_max > -kInf;
    point.incumbent = point.has_incumbent ? sense * incumbent_max : 0.0;
    // Bound unknown until the root relaxation lands (warm-start points).
    point.bound = std::isfinite(best_bound_max) ? sense * best_bound_max
                                                : point.incumbent;
    if (point.has_incumbent && std::isfinite(best_bound_max))
      point.gap = RelativeGap(best_bound_max, incumbent_max);
    options_.trace->Add(std::move(point));
  };

  auto integral = [&](const std::vector<double>& x) {
    return PickBranchVariable(search, x, kIntegralityTolerance) < 0;
  };

  /**
   * Deterministic incumbent acceptance, in ORIGINAL variable space: a
   * candidate wins on strictly better objective, or — within tie
   * tolerance — on lexicographically smaller solution. The tie rule
   * makes the surviving incumbent a function of the set of candidates
   * seen, not of their arrival order, which keeps equal-objective
   * solves stable across search tweaks. Feasibility is always checked
   * against the original model: postsolve is exact by construction, but
   * the original model is the contract the incumbent must honour.
   */
  auto consider = [&](std::vector<double> candidate) {
    if (!model.IsFeasible(candidate, 1e-6))
      return;
    const double value = sense * model.ObjectiveValue(candidate);
    bool accept = value > incumbent_max + 1e-9;
    if (!accept && std::isfinite(incumbent_max) && !result.x.empty() &&
        value > incumbent_max - 1e-9) {
      accept = std::lexicographical_compare(candidate.begin(), candidate.end(),
                                            result.x.begin(), result.x.end());
    }
    if (!accept)
      return;
    incumbent_max = std::max(incumbent_max, value);
    result.x = std::move(candidate);
    result.objective = sense * value;
    result.status = MipStatus::kFeasible;
    emit_trace("incumbent");
  };

  /** Rounds a search-space LP point, lifts it, and offers it up. */
  auto accept_incumbent = [&](const std::vector<double>& x) {
    std::vector<double> rounded = x;
    for (int j = 0; j < n; ++j) {
      if (search.variables()[static_cast<std::size_t>(j)].is_integer) {
        rounded[static_cast<std::size_t>(j)] =
            std::round(rounded[static_cast<std::size_t>(j)]);
      }
    }
    if (use_presolve) {
      std::vector<double> original;
      Postsolve(pre, rounded, &original);
      consider(std::move(original));
    } else {
      consider(std::move(rounded));
    }
  };

  /**
   * Greedy dive: from a fractional LP solution, fix every near-integral
   * integer variable at once (plus the most fractional one, rounded),
   * re-solve, and repeat. Bulk fixing reaches integer-feasible points in
   * a handful of LP solves even for hundreds of binaries, which is what
   * makes large single-batch (Oracle-style) models productive within
   * small budgets. If a bulk step goes infeasible, retry fixing only the
   * single most fractional variable before giving up. Each re-solve is
   * warm-started from the previous step's basis: fixing variables near
   * their LP values usually leaves that basis primal feasible, so dives
   * are where basis reuse pays off the most.
   */
  auto dive = [&](BoundOverrides overrides, std::vector<double> x,
                  std::shared_ptr<const SimplexBasis> seed_basis) {
    if (overrides.empty())
      overrides.assign(static_cast<std::size_t>(n), std::nullopt);
    SimplexBasis basis_a;
    SimplexBasis basis_b;
    const SimplexBasis* warm =
        seed_basis != nullptr ? seed_basis.get() : nullptr;
    SimplexBasis* out = &basis_a;
    for (int step = 0; step < options_.dive_depth; ++step) {
      if (Clock::now() > deadline)
        return;
      const int j = PickBranchVariable(search, x, kIntegralityTolerance);
      if (j < 0) {
        accept_incumbent(x);
        return;
      }
      BoundOverrides bulk = overrides;
      constexpr double kNearIntegral = 0.05;
      for (int v = 0; v < n; ++v) {
        if (!search.variables()[static_cast<std::size_t>(v)].is_integer)
          continue;
        const double value = x[static_cast<std::size_t>(v)];
        const double rounded = std::round(value);
        if (std::fabs(value - rounded) <= kNearIntegral)
          bulk[static_cast<std::size_t>(v)] = {rounded, rounded};
      }
      const double target = std::round(x[static_cast<std::size_t>(j)]);
      bulk[static_cast<std::size_t>(j)] = {target, target};

      LpResult sub = solve_lp(bulk, warm, out);
      if (sub.IsOptimal()) {
        overrides = std::move(bulk);
      } else {
        // Bulk step infeasible: fall back to fixing just one variable,
        // trying the rounded value first and the other side of the
        // fraction second (in capacity-style models rounding up often
        // dead-ends where rounding down cannot).
        overrides[static_cast<std::size_t>(j)] = {target, target};
        sub = solve_lp(overrides, warm, out);
        if (!sub.IsOptimal()) {
          const Variable& vj = search.variables()[static_cast<std::size_t>(j)];
          const double other = target <= std::floor(x[static_cast<std::size_t>(j)])
                                   ? target + 1.0
                                   : target - 1.0;
          if (other < vj.lower - 1e-9 || other > vj.upper + 1e-9)
            return;  // dive dead-ends; fine, it is only a heuristic
          overrides[static_cast<std::size_t>(j)] = {other, other};
          sub = solve_lp(overrides, warm, out);
          if (!sub.IsOptimal())
            return;
        }
      }
      x = std::move(sub.x);
      warm = out;
      out = out == &basis_a ? &basis_b : &basis_a;
    }
  };

  /** Full override vector of a node: walk the delta chain. */
  auto materialize = [&](const Node* node) {
    BoundOverrides overrides;
    if (node->var < 0 && node->parent == nullptr)
      return overrides;  // root: no overrides at all
    overrides.assign(static_cast<std::size_t>(n), std::nullopt);
    for (const Node* p = node; p != nullptr; p = p->parent.get()) {
      if (p->var >= 0 && !overrides[static_cast<std::size_t>(p->var)])
        overrides[static_cast<std::size_t>(p->var)] = {p->lo, p->hi};
    }
    return overrides;
  };

  // The caller's warm start lives in the original variable space; it is
  // rounded and offered directly, bypassing the search-space lift.
  if (!options_.warm_start.empty() &&
      static_cast<int>(options_.warm_start.size()) == model.NumVariables()) {
    std::vector<double> rounded = options_.warm_start;
    for (int j = 0; j < model.NumVariables(); ++j) {
      if (model.variables()[static_cast<std::size_t>(j)].is_integer) {
        rounded[static_cast<std::size_t>(j)] =
            std::round(rounded[static_cast<std::size_t>(j)]);
      }
    }
    consider(std::move(rounded));
  }

  // Root relaxation.
  auto root_basis = std::make_shared<SimplexBasis>();
  const LpResult root = solve_lp(BoundOverrides{}, nullptr, root_basis.get());
  if (root.status == LpStatus::kInfeasible) {
    result.status = MipStatus::kInfeasible;
    emit_trace("final");
    return result;
  }
  if (root.status == LpStatus::kUnbounded) {
    // With all binaries bounded this means a continuous ray; treat as a
    // configuration error rather than guessing.
    FLEX_CONFIG_ERROR("MILP relaxation is unbounded");
  }
  FLEX_REQUIRE(root.IsOptimal(), "root LP failed to converge");

  best_bound_max = sense * (root.objective + pre_offset);
  emit_trace("root");
  if (integral(root.x)) {
    accept_incumbent(root.x);
    result.status = MipStatus::kOptimal;
    result.bound = root.objective + pre_offset;
    result.gap = 0.0;
    result.nodes_explored = 1;
    result.nodes_per_thread[0] = 1;
    emit_trace("final");
    return result;
  }
  dive(BoundOverrides{}, root.x, root_basis);

  std::priority_queue<std::shared_ptr<const Node>,
                      std::vector<std::shared_ptr<const Node>>, NodeOrder>
      open;
  std::uint64_t next_seq = 0;
  open.push(std::make_shared<const Node>(Node{
      nullptr, -1, 0.0, 0.0, best_bound_max, 0, next_seq++, root_basis}));

  bool exhausted_budget = false;
  std::vector<std::shared_ptr<const Node>> wave_nodes;
  std::vector<WaveResult> wave_results;
  while (!open.empty()) {
    if (Clock::now() > deadline ||
        result.nodes_explored >= options_.max_nodes) {
      exhausted_budget = true;
      break;
    }
    best_bound_max = open.top()->bound;
    if (incumbent_max > -kInf &&
        RelativeGap(best_bound_max, incumbent_max) <= kGapTolerance) {
      // Best open bound already proves the incumbent (near-)optimal.
      best_bound_max = std::max(best_bound_max, incumbent_max);
      break;
    }

    // Select the wave: best-bound nodes that can still beat the
    // incumbent. Pruned-at-selection nodes cost no LP and do not count
    // against the node budget (matching the serial bound-prune). The
    // wave is clamped to the remaining node budget so max_nodes is
    // honoured exactly.
    const std::int64_t budget_left =
        options_.max_nodes - result.nodes_explored;
    const int want = static_cast<int>(
        std::min<std::int64_t>(kWaveSize, budget_left));
    wave_nodes.clear();
    while (static_cast<int>(wave_nodes.size()) < want && !open.empty()) {
      std::shared_ptr<const Node> node = open.top();
      open.pop();
      if (incumbent_max > -kInf && node->bound <= incumbent_max + 1e-9)
        continue;  // cannot improve the incumbent
      wave_nodes.push_back(std::move(node));
    }
    if (wave_nodes.empty())
      continue;  // selection drained the queue; loop condition exits

    // Solve the wave's LP relaxations, concurrently when a pool is
    // available. Every task is a pure function of (model, node chain,
    // parent basis) writing only its own slot, so the serial and
    // parallel paths produce byte-identical WaveResults.
    const std::size_t count = wave_nodes.size();
    if (live != nullptr) {
      live->waves.fetch_add(1, std::memory_order_relaxed);
      live->wave_nodes.store(static_cast<std::int64_t>(count),
                             std::memory_order_relaxed);
    }
    wave_results.assign(count, WaveResult{});

    // Workspace placement with parent affinity: a node whose parent
    // was solved in slot s reclaims s, and — crucially — BOTH children
    // of a branching may claim it (up to two claimants per slot).
    // Claimants of one slot run as a sequential chain inside a single
    // task, in wave order: the first usually adopts the parent's
    // still-resident factorization outright, and its sibling then
    // starts from a basis only a few pivots away, which the
    // Forrest–Tomlin patch route absorbs without a refactorization.
    // Everyone else fills the lowest free slots. Deterministic — a
    // pure function of the wave composition and the recorded slots —
    // and collision-free, since a workspace is only ever touched by
    // its own chain's task.
    constexpr int kMaxChain = 2;
    std::vector<int> slot_of(count, -1);
    std::vector<signed char> slot_claims(
        static_cast<std::size_t>(kWaveSize), 0);
    for (std::size_t i = 0; i < count; ++i) {
      const int pref = wave_nodes[i]->pref_slot;
      if (pref >= 0 && pref < kWaveSize &&
          slot_claims[static_cast<std::size_t>(pref)] < kMaxChain) {
        slot_of[i] = pref;
        ++slot_claims[static_cast<std::size_t>(pref)];
      }
    }
    for (std::size_t i = 0, next = 0; i < count; ++i) {
      if (slot_of[i] >= 0)
        continue;
      // Chains never exceed the wave size, so an unclaimed slot always
      // exists for the overflow.
      while (slot_claims[next] != 0)
        ++next;
      slot_of[i] = static_cast<int>(next);
      slot_claims[next] = 1;
    }
    std::vector<std::vector<std::size_t>> chain_of_slot(
        static_cast<std::size_t>(kWaveSize));
    for (std::size_t i = 0; i < count; ++i)
      chain_of_slot[static_cast<std::size_t>(slot_of[i])].push_back(i);

    std::vector<std::function<void()>> tasks;
    tasks.reserve(count);
    for (int slot = 0; slot < kWaveSize; ++slot) {
      const std::vector<std::size_t>& chain =
          chain_of_slot[static_cast<std::size_t>(slot)];
      if (chain.empty())
        continue;
      tasks.push_back([&, slot, &chain = chain_of_slot[static_cast<
                                     std::size_t>(slot)]] {
        for (const std::size_t i : chain) {
          const Node* node = wave_nodes[i].get();
          WaveResult wr;
          wr.basis = std::make_shared<SimplexBasis>();
          BoundOverrides overrides = materialize(node);
          // Node-local domain propagation: the branch just taken often
          // implies further bounds (a placed rack saturating a capacity
          // row forces its sibling indicators to zero). Tightening here
          // shrinks the LP's feasible box — and a propagated
          // contradiction prunes the node without paying for an LP at
          // all. Pure function of (model, overrides), so the answer is
          // thread-independent.
          if (node->var >= 0 &&
              PropagateBounds(search, &overrides, kPropagatePasses,
                              &wr.propagated_bounds) ==
                  PropagateStatus::kInfeasible) {
            wr.propagation_pruned = true;
          } else {
            wr.lp = lp.SolveWithBounds(
                search, overrides,
                &workspaces[static_cast<std::size_t>(slot)],
                node->basis.get(), wr.basis.get());
          }
          const int lane = common::ThreadPool::WorkerIndex();
          wr.lane = lane >= 1 && lane < lanes ? lane : 0;
          wave_results[i] = std::move(wr);
        }
      });
    }
    if (pool != nullptr && count > 1) {
      pool->Run(std::move(tasks));
    } else {
      for (const auto& task : tasks)
        task();
    }

    // Serial merge in wave order: counters, incumbents, branching. All
    // search-state mutation happens here, on one thread, in an order
    // fixed by the frontier — never by task completion order.
    for (std::size_t i = 0; i < count; ++i) {
      const Node* node = wave_nodes[i].get();
      WaveResult& wr = wave_results[i];
      ++result.nodes_explored;
      ++result.nodes_per_thread[static_cast<std::size_t>(wr.lane)];
      result.propagated_bounds += wr.propagated_bounds;
      if (!wr.propagation_pruned) {
        ++result.lp_solves;
        result.simplex_pivots += wr.lp.iterations;
        result.simplex_refactors += wr.lp.refactors;
        result.eta_updates += wr.lp.eta_updates;
        result.dual_pivots += wr.lp.dual_pivots;
        if (wr.lp.warm_start_attempted)
          ++result.basis_reuse_attempts;
        if (wr.lp.warm_start_used)
          ++result.basis_reuse_hits;
        if (wr.lp.warm_dual_restart)
          ++result.warm_dual_restarts;
      } else {
        ++result.propagation_prunes;
      }
      if (live != nullptr) {
        live->nodes_explored.fetch_add(1, std::memory_order_relaxed);
        if (!wr.propagation_pruned) {
          live->lp_solves.fetch_add(1, std::memory_order_relaxed);
          if (wr.lp.warm_start_attempted)
            live->basis_reuse_attempts.fetch_add(1, std::memory_order_relaxed);
          if (wr.lp.warm_start_used)
            live->basis_reuse_hits.fetch_add(1, std::memory_order_relaxed);
          if (wr.lp.warm_dual_restart)
            live->warm_dual_restarts.fetch_add(1, std::memory_order_relaxed);
          if (wr.lp.dual_pivots > 0)
            live->dual_pivots.fetch_add(wr.lp.dual_pivots,
                                        std::memory_order_relaxed);
        }
      }
      if (options_.trace_node_interval > 0 &&
          result.nodes_explored % options_.trace_node_interval == 0)
        emit_trace("node");
      if (wr.propagation_pruned || !wr.lp.IsOptimal())
        continue;  // infeasible subtree (propagated or LP-proven): prune
      const double node_bound = sense * (wr.lp.objective + pre_offset);
      if (node_bound <= incumbent_max + 1e-9)
        continue;  // cannot improve the incumbent

      const int j =
          PickBranchVariable(search, wr.lp.x, kIntegralityTolerance);
      if (j < 0) {
        accept_incumbent(wr.lp.x);
        continue;
      }
      if (node->depth == 0 || (node->depth % 8) == 0)
        dive(materialize(node), wr.lp.x, wr.basis);

      const double value = wr.lp.x[static_cast<std::size_t>(j)];
      const double floor_value = std::floor(value);
      const Variable& var = search.variables()[static_cast<std::size_t>(j)];
      double lo = var.lower;
      double hi = var.upper;
      for (const Node* p = node; p != nullptr; p = p->parent.get()) {
        if (p->var == j) {
          lo = p->lo;
          hi = p->hi;
          break;  // nearest restriction is the tightest
        }
      }
      std::shared_ptr<const Node> parent = wave_nodes[i];
      for (int side = 0; side < 2; ++side) {
        double child_lo = lo;
        double child_hi = hi;
        if (side == 0)
          child_hi = std::min(child_hi, floor_value);  // x_j <= floor
        else
          child_lo = std::max(child_lo, floor_value + 1.0);  // x_j >= ceil
        if (child_lo > child_hi + 1e-12)
          continue;
        open.push(std::make_shared<const Node>(
            Node{parent, j, child_lo, child_hi, node_bound, node->depth + 1,
                 next_seq++, wr.basis, slot_of[i]}));
      }
    }
    if (live != nullptr)
      live->open_nodes.store(static_cast<std::int64_t>(open.size()),
                             std::memory_order_relaxed);
  }

  if (!open.empty() && exhausted_budget) {
    // The tightest open bound still caps the optimum.
    best_bound_max = std::max(best_bound_max, open.top()->bound);
  }
  if (open.empty() && !exhausted_budget) {
    // Tree fully explored: the incumbent (if any) is optimal.
    best_bound_max = incumbent_max;
  }

  result.bound = sense * best_bound_max;
  if (incumbent_max > -kInf) {
    result.gap = RelativeGap(best_bound_max, incumbent_max);
    result.status = result.gap <= kGapTolerance + 1e-12
                        ? MipStatus::kOptimal
                        : MipStatus::kFeasible;
  } else {
    result.status =
        exhausted_budget ? MipStatus::kNoSolution : MipStatus::kInfeasible;
  }
  if (pool != nullptr)
    result.steal_count = pool->steal_count() - steals_before;
  emit_trace("final");
  return result;
}

}  // namespace flex::solver
