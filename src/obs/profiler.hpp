/**
 * @file
 * In-process profiler: scoped phase timers and a stall watchdog.
 *
 * Two live-observability primitives that deliberately measure WALL and
 * CPU time, never simulated time, and therefore must never feed back
 * into simulation state:
 *
 *  - ScopedPhaseTimer / Profiler: RAII timers around coarse phases
 *    ("emulation.step", "offline.solve_batch", "controller.decide")
 *    aggregated into per-thread wall/CPU histograms. Snapshot() merges
 *    the per-thread aggregates per phase so `/metrics` can export one
 *    labelled histogram family per dimension. Recording takes two short
 *    mutexes (slot lookup + slot update); phases are milliseconds to
 *    seconds, so the overhead is noise.
 *
 *  - StallWatchdog: heartbeat registry plus a checker thread. Worker
 *    loops (the emulation sampler, solver drivers) register once and
 *    Beat() periodically; a thread silent for longer than the threshold
 *    is flagged, logged with a forensic-bundle pointer, and surfaced
 *    through `/healthz` until it beats again. All watchdog state is
 *    atomics or mutex-guarded copies, so observers never block the
 *    observed threads for more than a heartbeat store.
 */
#ifndef FLEX_OBS_PROFILER_HPP_
#define FLEX_OBS_PROFILER_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace flex::obs {

/** Current thread's consumed CPU time in microseconds (0 if unknown). */
double ThreadCpuMicros();

/**
 * Phase-timing aggregator. Thread-safe: each recording thread gets its
 * own slot; snapshots merge slots under the slot mutexes.
 */
class Profiler {
 public:
  Profiler() = default;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /** Process-wide instance used by FLEX_PROFILE_PHASE. */
  static Profiler& Global();

  /** Records one completed phase execution on the calling thread. */
  void Record(const char* phase, double wall_us, double cpu_us);

  /** One phase, merged over every thread that recorded it. */
  struct PhaseRow {
    std::string phase;
    int threads = 0;  ///< distinct threads that recorded this phase
    Histogram wall{HistogramConfig::WallMicros()};
    Histogram cpu{HistogramConfig::WallMicros()};
  };

  /** All phases, sorted by name. */
  std::vector<PhaseRow> Snapshot() const;

  /** Drops all recorded data (slots stay registered). */
  void Reset();

  /** Phases recorded across all threads since construction / Reset. */
  std::uint64_t record_count() const {
    return records_.load(std::memory_order_relaxed);
  }

 private:
  struct PhaseAgg {
    Histogram wall{HistogramConfig::WallMicros()};
    Histogram cpu{HistogramConfig::WallMicros()};
  };
  struct ThreadSlot {
    mutable std::mutex mu;
    std::map<std::string, PhaseAgg> phases;
  };

  ThreadSlot& SlotForThisThread();

  mutable std::mutex slots_mu_;
  std::map<std::thread::id, std::unique_ptr<ThreadSlot>> slots_;
  std::atomic<std::uint64_t> records_{0};
};

/**
 * RAII phase timer; records wall + CPU duration on destruction into
 * @p profiler (default: Profiler::Global()).
 */
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(const char* phase, Profiler* profiler = nullptr);
  ~ScopedPhaseTimer();

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  const char* phase_;
  Profiler* profiler_;
  std::chrono::steady_clock::time_point wall_start_;
  double cpu_start_us_;
};

/** Watchdog tuning. */
struct WatchdogConfig {
  /** A registered thread silent for longer than this is stalled. */
  double threshold_seconds = 5.0;
  /**
   * Forensic pointer included in stall logs and `/healthz` — typically
   * the freshest forensic-bundle directory or flight-recorder dump the
   * harness knows about, so the on-call path from "stalled" to
   * "evidence" is one copy-paste.
   */
  std::string forensic_hint;
};

/**
 * Heartbeat stall watchdog. Register each long-running loop once, Beat()
 * from inside it, Start() the checker. A stall is flagged (once per
 * episode) and clears automatically when beats resume.
 */
class StallWatchdog {
 public:
  explicit StallWatchdog(WatchdogConfig config = {});
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /** Registers a monitored loop; the id is stable for Beat(). */
  int RegisterThread(const std::string& name);

  /** Heartbeat from the monitored loop; cheap (mutex + atomic store). */
  void Beat(int id);

  /**
   * Retires a monitored loop that finished cleanly: it is excluded from
   * stall checks (and un-flagged if currently stalled), but its name,
   * beat count, and done state stay visible in SnapshotThreads(). A
   * loop that ends without MarkDone() would otherwise read as a stall.
   */
  void MarkDone(int id);

  /** Launches the checker thread; idempotent. */
  void Start();

  /** Stops the checker thread; idempotent. Entries stay registered. */
  void Stop();

  /** One checker pass, synchronously (tests, Start()-less embedders). */
  void CheckNow();

  /** Published state of one monitored loop. */
  struct ThreadState {
    std::string name;
    double silent_seconds = 0.0;
    bool stalled = false;
    bool done = false;
    std::uint64_t beats = 0;
  };

  /** All monitored loops, registration order. */
  std::vector<ThreadState> SnapshotThreads() const;

  bool any_stalled() const {
    return stalled_count_.load(std::memory_order_relaxed) > 0;
  }

  /** Stall episodes flagged since construction. */
  std::uint64_t stall_events() const {
    return stall_events_.load(std::memory_order_relaxed);
  }

  const WatchdogConfig& config() const { return config_; }

 private:
  struct Entry {
    std::string name;
    std::atomic<std::int64_t> last_beat_ns{0};
    std::atomic<std::uint64_t> beats{0};
    std::atomic<bool> stalled{false};
    std::atomic<bool> done{false};
  };

  void CheckerLoop();

  WatchdogConfig config_;
  mutable std::mutex mu_;  // guards entries_ growth
  std::vector<std::unique_ptr<Entry>> entries_;
  std::thread thread_;
  std::atomic<bool> stop_{true};
  std::atomic<std::uint64_t> stall_events_{0};
  std::atomic<int> stalled_count_{0};
};

}  // namespace flex::obs

/** RAII phase timer into Profiler::Global(); one per scope. */
#define FLEX_PROFILE_PHASE_CONCAT2(a, b) a##b
#define FLEX_PROFILE_PHASE_CONCAT(a, b) FLEX_PROFILE_PHASE_CONCAT2(a, b)
#define FLEX_PROFILE_PHASE(phase)                                          \
  ::flex::obs::ScopedPhaseTimer FLEX_PROFILE_PHASE_CONCAT(                 \
      flex_phase_timer_, __LINE__)(phase)

#endif  // FLEX_OBS_PROFILER_HPP_
