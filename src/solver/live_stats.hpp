/**
 * @file
 * Live solve progress; dependency-free, because flex_solver does not
 * link flex_obs and obs::LiveHub owns one without linking flex_solver.
 */
#ifndef FLEX_SOLVER_LIVE_STATS_HPP_
#define FLEX_SOLVER_LIVE_STATS_HPP_

#include <atomic>
#include <cstdint>

namespace flex::solver {

/**
 * Live solve progress, published as plain atomics so an observability
 * scraper on another thread can sample a running solve without locks.
 *
 * This struct is the solver's entire observability surface: the search
 * loop stores into it at wave boundaries (and the LP callback counts
 * solves), and ObservabilityServer renders it as the flex_solver_*
 * family. Stores and loads are relaxed — each field is an independent
 * progress indicator, not a consistent snapshot, which is all a
 * utilization gauge needs.
 */
struct LiveSolverStats {
  std::atomic<std::int64_t> solves_started{0};
  std::atomic<std::int64_t> solves_finished{0};
  std::atomic<std::int64_t> waves{0};           ///< waves launched (all solves)
  std::atomic<std::int64_t> wave_nodes{0};      ///< nodes in the current wave
  std::atomic<std::int64_t> open_nodes{0};      ///< frontier size after merge
  std::atomic<std::int64_t> nodes_explored{0};
  std::atomic<std::int64_t> lp_solves{0};
  std::atomic<std::int64_t> basis_reuse_attempts{0};
  std::atomic<std::int64_t> basis_reuse_hits{0};
  std::atomic<std::int64_t> dual_pivots{0};         ///< dual-simplex pivots
  std::atomic<std::int64_t> warm_dual_restarts{0};  ///< dual-repaired warms

  /** True while at least one Solve() is inside its search loop. */
  bool active() const {
    return solves_started.load(std::memory_order_relaxed) >
           solves_finished.load(std::memory_order_relaxed);
  }
};

}  // namespace flex::solver

#endif  // FLEX_SOLVER_LIVE_STATS_HPP_
