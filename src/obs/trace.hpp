/**
 * @file
 * Span-based reaction tracing for the failover path.
 *
 * The paper's core safety claim is temporal: after a UPS failover, the
 * telemetry -> detection -> Algorithm 1 -> actuation chain must finish
 * inside the UPS overload tolerance window (~10 s end to end, Section
 * IV-E / Fig. 12). The tracer stitches ONE trace per overload episode
 * across the five stages of that chain:
 *
 *   meter-sample  -> publish      (pub/sub delivery of the reading)
 *   publish       -> observe      (controller receives + detects)
 *   observe       -> decide       (Algorithm 1 selects actions)
 *   decide        -> actuate      (rack managers confirm enforcement)
 *
 * and reports per-stage and end-to-end latency against the trip-curve
 * budget. All timestamps are simulated time, so traces from two runs of
 * the same seed are bit-identical.
 *
 * Multi-primary controllers race on purpose; the first replica to
 * detect an episode opens the trace, later detections and waves are
 * counted as duplicates, and the first completed enforcement wave — the
 * instant the room actually became safe — closes the span chain.
 */
#ifndef FLEX_OBS_TRACE_HPP_
#define FLEX_OBS_TRACE_HPP_

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace flex::obs {

class FlightRecorder;

/** The five stages of the reaction chain. */
enum class ReactionStage {
  kMeterSample = 0,  ///< meter read the overloaded UPS
  kPublish,          ///< pub/sub delivered the reading
  kObserve,          ///< a controller replica saw it and flagged overdraw
  kDecide,           ///< Algorithm 1 produced a corrective wave
  kActuate,          ///< rack managers confirmed the wave landed
};

inline constexpr int kNumReactionStages = 5;

/** Stable lowercase stage name ("meter_sample", ...). */
const char* ReactionStageName(ReactionStage stage);

/** One overload episode's reaction, with per-stage timestamps. */
struct ReactionTrace {
  std::uint64_t id = 0;
  /** Replica that opened the trace (first detection). */
  int detecting_replica = -1;
  /** UPS whose reading triggered the first detection. */
  int ups_index = -1;
  /** Corrective actions in the first enforced wave. */
  int actions = 0;
  /** Later detections / waves absorbed into this episode. */
  int duplicate_detections = 0;
  int duplicate_waves = 0;

  Seconds sampled_at{0.0};
  Seconds delivered_at{0.0};
  Seconds detected_at{0.0};
  Seconds decided_at{0.0};
  Seconds enforced_at{0.0};

  /** True once the first corrective wave fully landed. */
  bool complete = false;
  /** True once the episode was released (room healthy again). */
  bool closed = false;
  /** The tolerance window this reaction was measured against. */
  Seconds budget{0.0};

  /** Latency of one stage relative to the previous stage's timestamp. */
  Seconds StageLatency(ReactionStage stage) const;

  /** First meter sample -> enforcement confirmed. */
  Seconds EndToEnd() const { return enforced_at - sampled_at; }

  bool WithinBudget() const { return complete && EndToEnd() <= budget; }
};

/** Tracer tuning. */
struct TracerConfig {
  /**
   * End-to-end reaction budget. The default is the paper's ~10 s
   * end-of-life tolerance at the worst-case 4N/3 failover load (133%).
   */
  Seconds budget = Seconds(10.0);
};

/**
 * Assembles reaction traces from instrumentation hooks. Controllers
 * pass explicit `now` timestamps (their queue's Now()), which keeps the
 * tracer free of clock plumbing and usable across harnesses.
 *
 * When a metrics registry is attached, every completed trace also feeds
 * the reaction.* histograms, so exports carry p50/p99 per stage.
 */
class ReactionTracer {
 public:
  explicit ReactionTracer(TracerConfig config = {},
                          MetricsRegistry* metrics = nullptr);

  /** Attaches / replaces the flight recorder fed by stage events. */
  void SetRecorder(FlightRecorder* recorder) { recorder_ = recorder; }

  /**
   * A replica flagged overdraw from a UPS reading. Opens a new trace
   * when no episode is active; otherwise counts a duplicate detection.
   */
  void OnDetection(int replica, int ups_index, Seconds sampled_at,
                   Seconds delivered_at, Seconds now);

  /** Algorithm 1 produced a corrective wave of @p num_actions. */
  void OnDecision(int replica, int num_actions, Seconds now);

  /** A replica's enforcement wave fully completed. */
  void OnEnforced(int replica, Seconds now);

  /** A replica released its actions: the episode is over. */
  void OnEpisodeClosed(int replica, Seconds now);

  /** All traces, in episode order (the last one may still be open). */
  const std::vector<ReactionTrace>& traces() const { return traces_; }

  /** The open episode's trace, or nullptr. */
  const ReactionTrace* active() const;

  /** Traces whose first corrective wave landed. */
  std::size_t complete_count() const { return complete_count_; }

  /** Complete traces that beat the budget. */
  std::size_t within_budget_count() const { return within_budget_count_; }

  const TracerConfig& config() const { return config_; }

 private:
  void RecordCompletion(const ReactionTrace& trace);

  TracerConfig config_;
  MetricsRegistry* metrics_;
  FlightRecorder* recorder_ = nullptr;
  std::vector<ReactionTrace> traces_;
  bool episode_active_ = false;
  std::uint64_t next_id_ = 1;
  std::size_t complete_count_ = 0;
  std::size_t within_budget_count_ = 0;
};

}  // namespace flex::obs

#endif  // FLEX_OBS_TRACE_HPP_
