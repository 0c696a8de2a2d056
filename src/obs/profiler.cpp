#include "profiler.hpp"

#include <ctime>

#include "obs/log.hpp"

namespace flex::obs {

namespace {

using SteadyClock = std::chrono::steady_clock;

/** Stall-watchdog checker-thread poll period. */
constexpr std::chrono::duration<double> kCheckerPollPeriod{0.25};

std::int64_t
NowNanos()
{
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

}  // namespace

double
ThreadCpuMicros()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
  }
#endif
  return 0.0;
}

Profiler&
Profiler::Global()
{
  static Profiler profiler;
  return profiler;
}

Profiler::ThreadSlot&
Profiler::SlotForThisThread()
{
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(slots_mu_);
  std::unique_ptr<ThreadSlot>& slot = slots_[self];
  if (!slot)
    slot = std::make_unique<ThreadSlot>();
  return *slot;
}

void
Profiler::Record(const char* phase, double wall_us, double cpu_us)
{
  ThreadSlot& slot = SlotForThisThread();
  std::lock_guard<std::mutex> lock(slot.mu);
  PhaseAgg& agg = slot.phases[phase];
  agg.wall.Observe(wall_us);
  agg.cpu.Observe(cpu_us);
  records_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Profiler::PhaseRow>
Profiler::Snapshot() const
{
  std::map<std::string, PhaseRow> merged;
  std::lock_guard<std::mutex> slots_lock(slots_mu_);
  for (const auto& [tid, slot] : slots_) {
    (void)tid;
    std::lock_guard<std::mutex> lock(slot->mu);
    for (const auto& [phase, agg] : slot->phases) {
      PhaseRow& row = merged[phase];
      if (row.phase.empty())
        row.phase = phase;
      ++row.threads;
      row.wall.Merge(agg.wall);
      row.cpu.Merge(agg.cpu);
    }
  }
  std::vector<PhaseRow> rows;
  rows.reserve(merged.size());
  for (auto& [phase, row] : merged) {
    (void)phase;
    rows.push_back(std::move(row));
  }
  return rows;
}

void
Profiler::Reset()
{
  std::lock_guard<std::mutex> slots_lock(slots_mu_);
  for (auto& [tid, slot] : slots_) {
    (void)tid;
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->phases.clear();
  }
  records_.store(0, std::memory_order_relaxed);
}

ScopedPhaseTimer::ScopedPhaseTimer(const char* phase, Profiler* profiler)
    : phase_(phase),
      profiler_(profiler != nullptr ? profiler : &Profiler::Global()),
      wall_start_(SteadyClock::now()),
      cpu_start_us_(ThreadCpuMicros())
{
}

ScopedPhaseTimer::~ScopedPhaseTimer()
{
  const double wall_us =
      std::chrono::duration<double, std::micro>(SteadyClock::now() -
                                                wall_start_)
          .count();
  const double cpu_end_us = ThreadCpuMicros();
  const double cpu_us =
      cpu_end_us > cpu_start_us_ ? cpu_end_us - cpu_start_us_ : 0.0;
  profiler_->Record(phase_, wall_us, cpu_us);
}

StallWatchdog::StallWatchdog(WatchdogConfig config)
    : config_(std::move(config))
{
}

StallWatchdog::~StallWatchdog() { Stop(); }

int
StallWatchdog::RegisterThread(const std::string& name)
{
  std::lock_guard<std::mutex> lock(mu_);
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->last_beat_ns.store(NowNanos(), std::memory_order_relaxed);
  entries_.push_back(std::move(entry));
  return static_cast<int>(entries_.size()) - 1;
}

void
StallWatchdog::Beat(int id)
{
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int>(entries_.size()))
    return;
  Entry& entry = *entries_[static_cast<std::size_t>(id)];
  entry.last_beat_ns.store(NowNanos(), std::memory_order_relaxed);
  entry.beats.fetch_add(1, std::memory_order_relaxed);
  entry.done.store(false, std::memory_order_relaxed);
}

void
StallWatchdog::MarkDone(int id)
{
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int>(entries_.size()))
    return;
  Entry& entry = *entries_[static_cast<std::size_t>(id)];
  entry.done.store(true, std::memory_order_relaxed);
  if (entry.stalled.load(std::memory_order_relaxed)) {
    entry.stalled.store(false, std::memory_order_relaxed);
    stalled_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void
StallWatchdog::Start()
{
  if (!stop_.load(std::memory_order_acquire))
    return;  // already running
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { CheckerLoop(); });
}

void
StallWatchdog::Stop()
{
  if (stop_.load(std::memory_order_acquire))
    return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable())
    thread_.join();
}

void
StallWatchdog::CheckerLoop()
{
  while (!stop_.load(std::memory_order_acquire)) {
    CheckNow();
    std::this_thread::sleep_for(kCheckerPollPeriod);
  }
}

void
StallWatchdog::CheckNow()
{
  const std::int64_t now_ns = NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Entry>& entry : entries_) {
    if (entry->done.load(std::memory_order_relaxed))
      continue;
    const double silent_s =
        static_cast<double>(now_ns - entry->last_beat_ns.load(
                                         std::memory_order_relaxed)) *
        1e-9;
    const bool was_stalled = entry->stalled.load(std::memory_order_relaxed);
    if (silent_s > config_.threshold_seconds) {
      if (!was_stalled) {
        entry->stalled.store(true, std::memory_order_relaxed);
        stalled_count_.fetch_add(1, std::memory_order_relaxed);
        stall_events_.fetch_add(1, std::memory_order_relaxed);
        FLEX_LOG(LogLevel::kError, "watchdog",
                 "thread '%s' silent for %.2f s (threshold %.2f s)%s%s",
                 entry->name.c_str(), silent_s, config_.threshold_seconds,
                 config_.forensic_hint.empty() ? "" : "; forensics: ",
                 config_.forensic_hint.c_str());
      }
    } else if (was_stalled) {
      entry->stalled.store(false, std::memory_order_relaxed);
      stalled_count_.fetch_sub(1, std::memory_order_relaxed);
      FLEX_LOG(LogLevel::kWarn, "watchdog",
               "thread '%s' resumed after a stall", entry->name.c_str());
    }
  }
}

std::vector<StallWatchdog::ThreadState>
StallWatchdog::SnapshotThreads() const
{
  const std::int64_t now_ns = NowNanos();
  std::vector<ThreadState> states;
  std::lock_guard<std::mutex> lock(mu_);
  states.reserve(entries_.size());
  for (const std::unique_ptr<Entry>& entry : entries_) {
    ThreadState state;
    state.name = entry->name;
    state.silent_seconds =
        static_cast<double>(now_ns - entry->last_beat_ns.load(
                                         std::memory_order_relaxed)) *
        1e-9;
    state.stalled = entry->stalled.load(std::memory_order_relaxed);
    state.done = entry->done.load(std::memory_order_relaxed);
    state.beats = entry->beats.load(std::memory_order_relaxed);
    states.push_back(std::move(state));
  }
  return states;
}

}  // namespace flex::obs
