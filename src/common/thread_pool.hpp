/**
 * @file
 * Work-stealing thread pool shared by the solver and the offline
 * placement fan-out.
 *
 * Design goals, in order:
 *  1. Nested-parallelism safety: a task may itself call Run() (the
 *     offline variant fan-out runs MILP solves whose waves fan out on
 *     the same pool). The caller of Run() participates in execution and
 *     only ever runs tasks of its own batch while waiting, so a full
 *     pool can never deadlock on nested waits.
 *  2. Observability: stolen-task counts are exposed so the solver can
 *     report scheduler behaviour next to its per-thread node counts.
 *  3. Simplicity: per-worker deques guarded by small mutexes. The tasks
 *     scheduled here are LP solves and whole placement runs
 *     (microseconds to seconds), so queue overhead is irrelevant.
 *
 * A pool of size N runs at most N tasks concurrently: N-1 dedicated
 * worker threads plus the thread blocked in Run(). ThreadPool::Shared()
 * is the process-wide instance sized by FLEX_SOLVER_THREADS (default:
 * hardware concurrency).
 *
 * Lanes maps a caller's `threads` knob onto the shared pool, the
 * caller's own thread, or a private pool.
 */
#ifndef FLEX_COMMON_THREAD_POOL_HPP_
#define FLEX_COMMON_THREAD_POOL_HPP_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace flex::common {

class ThreadPool {
 public:
  /** Spawns @p threads - 1 workers; the Run() caller is the N-th lane. */
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /** Logical width (worker threads + the participating caller). */
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /**
   * Runs every task to completion, possibly concurrently; the calling
   * thread executes tasks of this batch while it waits. The first
   * exception thrown by any task is rethrown here after all tasks have
   * finished. Safe to call from inside a task (nested batches).
   */
  void Run(std::vector<std::function<void()>> tasks);

  /** Tasks claimed from another lane's deque since construction. */
  std::int64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /** Tasks currently executing on any lane (live utilization gauge). */
  int running_count() const {
    return running_.load(std::memory_order_relaxed);
  }

  /** Tasks queued but not yet claimed by a lane (live backlog gauge). */
  int queued_count() const {
    return pending_.load(std::memory_order_relaxed);
  }

  /**
   * Process-wide pool, created on first use with ConfiguredThreads()
   * lanes. Solver waves and placement fan-out share it by default so
   * the machine is never oversubscribed by nesting.
   */
  static ThreadPool& Shared();

  /** FLEX_SOLVER_THREADS when set and positive, else hardware threads. */
  static int ConfiguredThreads();

  /**
   * Stable lane id of the current thread: 1..size-1 inside pool
   * workers, -1 on threads the pool does not own (Run() callers use
   * lane 0 by convention: WorkerIndex() + 1).
   */
  static int WorkerIndex();

 private:
  struct Batch;
  struct Task {
    Batch* batch = nullptr;
    std::size_t index = 0;
  };
  struct Worker {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  /**
   * Claims and executes one task: own deque first, then steals. When
   * @p only is non-null, claims only tasks of that batch (used by Run()
   * callers so a nested wait never blocks on an unrelated long task).
   * @return false when no eligible task was found.
   */
  bool TryRunOne(int self, const Batch* only);

  static void Execute(const Task& task);
  void WorkerLoop(int index);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<int> pending_{0};
  std::atomic<int> running_{0};
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::int64_t> steals_{0};
};

/**
 * The lane policy for fanning out independent units of work: threads
 * 0 = the shared pool, 1 = inline on the caller, n = a private pool of
 * n lanes; work of at most one unit always runs inline. Callers merge
 * results in unit order, so their output never depends on the choice.
 */
class Lanes {
 public:
  /** Throws ConfigError when @p threads is negative. */
  Lanes(int threads, std::size_t units);

  Lanes(const Lanes&) = delete;
  Lanes& operator=(const Lanes&) = delete;

  /** Lanes the work runs on: 1 when inline. */
  int size() const { return pool_ != nullptr ? pool_->size() : 1; }

  /** Runs every task to completion (see ThreadPool::Run). */
  void Run(std::vector<std::function<void()>> tasks);

 private:
  std::unique_ptr<ThreadPool> owned_;  // the private pool, threads >= 2
  ThreadPool* pool_ = nullptr;         // null: inline on the caller
};

}  // namespace flex::common

#endif  // FLEX_COMMON_THREAD_POOL_HPP_
