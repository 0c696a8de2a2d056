#include "thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "common/error.hpp"

namespace flex::common {

namespace {

thread_local int tl_worker_index = -1;

}  // namespace

/** One Run() invocation: its tasks plus completion bookkeeping. */
struct ThreadPool::Batch {
  const std::vector<std::function<void()>>* tasks = nullptr;
  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t remaining = 0;         // guarded by mu
  std::exception_ptr error;          // first failure, guarded by mu
};

ThreadPool::ThreadPool(int threads)
{
  const int lanes = std::max(1, threads);
  for (int i = 0; i < lanes - 1; ++i)
    workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i)
    threads_.emplace_back([this, i] { WorkerLoop(static_cast<int>(i)); });
}

ThreadPool::~ThreadPool()
{
  stop_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
  for (std::thread& t : threads_)
    t.join();
}

int
ThreadPool::ConfiguredThreads()
{
  if (const char* env = std::getenv("FLEX_SOLVER_THREADS")) {
    const int value = std::atoi(env);
    if (value > 0)
      return value;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool&
ThreadPool::Shared()
{
  static ThreadPool pool(ConfiguredThreads());
  return pool;
}

int
ThreadPool::WorkerIndex()
{
  return tl_worker_index;
}

void
ThreadPool::Execute(const Task& task)
{
  Batch* batch = task.batch;
  try {
    (*batch->tasks)[task.index]();
  } catch (...) {
    std::lock_guard<std::mutex> lock(batch->mu);
    if (!batch->error)
      batch->error = std::current_exception();
  }
  // The decrement and the notification share the batch mutex so a
  // waiter cannot observe remaining == 0 and destroy the batch while a
  // worker still holds a reference between the two steps.
  std::lock_guard<std::mutex> lock(batch->mu);
  if (--batch->remaining == 0)
    batch->done_cv.notify_all();
}

bool
ThreadPool::TryRunOne(int self, const Batch* only)
{
  Task task;
  bool found = false;
  const int n = static_cast<int>(workers_.size());
  const int start = self >= 0 ? self : 0;
  for (int k = 0; k < n && !found; ++k) {
    const int victim = (start + k) % n;
    Worker& worker = *workers_[static_cast<std::size_t>(victim)];
    std::lock_guard<std::mutex> lock(worker.mu);
    if (worker.tasks.empty())
      continue;
    if (only == nullptr) {
      // Own queue pops LIFO (cache-warm), steals pop FIFO.
      if (victim == self) {
        task = worker.tasks.back();
        worker.tasks.pop_back();
      } else {
        task = worker.tasks.front();
        worker.tasks.pop_front();
      }
      found = true;
    } else {
      // Batch-filtered claim: scan for the first matching task.
      for (auto it = worker.tasks.begin(); it != worker.tasks.end(); ++it) {
        if (it->batch == only) {
          task = *it;
          worker.tasks.erase(it);
          found = true;
          break;
        }
      }
    }
    if (found && victim != self)
      steals_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!found)
    return false;
  pending_.fetch_sub(1, std::memory_order_relaxed);
  running_.fetch_add(1, std::memory_order_relaxed);
  Execute(task);
  running_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void
ThreadPool::WorkerLoop(int index)
{
  tl_worker_index = index + 1;  // lane 0 is reserved for Run() callers
  while (!stop_.load(std::memory_order_acquire)) {
    if (TryRunOne(index, nullptr))
      continue;
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait_for(lock, std::chrono::milliseconds(50), [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_relaxed) > 0;
    });
  }
}

void
ThreadPool::Run(std::vector<std::function<void()>> tasks)
{
  if (tasks.empty())
    return;
  if (workers_.empty()) {
    for (const auto& task : tasks) {
      running_.fetch_add(1, std::memory_order_relaxed);
      task();
      running_.fetch_sub(1, std::memory_order_relaxed);
    }
    return;
  }

  Batch batch;
  batch.tasks = &tasks;
  batch.remaining = tasks.size();

  const int self = WorkerIndex() - 1;  // own deque when called from a worker
  const std::size_t n = workers_.size();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::size_t lane =
        self >= 0 ? static_cast<std::size_t>(self)
                  : next_.fetch_add(1, std::memory_order_relaxed) % n;
    Worker& worker = *workers_[lane];
    std::lock_guard<std::mutex> lock(worker.mu);
    worker.tasks.push_back(Task{&batch, i});
  }
  pending_.fetch_add(static_cast<int>(tasks.size()),
                     std::memory_order_relaxed);
  wake_cv_.notify_all();

  while (true) {
    {
      std::lock_guard<std::mutex> lock(batch.mu);
      if (batch.remaining == 0)
        break;
    }
    if (!TryRunOne(self, &batch)) {
      // All of this batch's tasks are claimed; wait for stragglers.
      std::unique_lock<std::mutex> lock(batch.mu);
      batch.done_cv.wait_for(lock, std::chrono::milliseconds(1),
                             [&batch] { return batch.remaining == 0; });
    }
  }
  if (batch.error)
    std::rethrow_exception(batch.error);
}

Lanes::Lanes(int threads, std::size_t units)
{
  FLEX_REQUIRE(threads >= 0, "negative thread count");
  if (threads == 1 || units <= 1)
    return;
  if (threads == 0) {
    pool_ = &ThreadPool::Shared();
    return;
  }
  owned_ = std::make_unique<ThreadPool>(threads);
  pool_ = owned_.get();
}

void
Lanes::Run(std::vector<std::function<void()>> tasks)
{
  if (pool_ != nullptr) {
    pool_->Run(std::move(tasks));
    return;
  }
  for (const auto& task : tasks)
    task();
}

}  // namespace flex::common
