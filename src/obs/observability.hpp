/**
 * @file
 * Umbrella handle bundling the metrics registry and reaction tracer.
 *
 * Components take a raw `Observability*` in their config structs (null
 * means "not instrumented" and costs one branch per hook). The harness
 * that owns the event queue binds it once via BindClock so snapshots
 * and log lines carry simulated time.
 */
#ifndef FLEX_OBS_OBSERVABILITY_HPP_
#define FLEX_OBS_OBSERVABILITY_HPP_

#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flex::sim {
class EventQueue;
}  // namespace flex::sim

namespace flex::obs {

/** Observability tuning. */
struct ObservabilityConfig {
  TracerConfig tracer;
  RecorderConfig recorder;
};

/**
 * Owns one MetricsRegistry + one ReactionTracer + one FlightRecorder,
 * wired together.
 */
class Observability {
 public:
  explicit Observability(ObservabilityConfig config = {});

  /**
   * Points the registry (and the logger's t= stamp) at @p queue so
   * snapshots carry simulated time. Call once the owning harness has
   * built its queue; safe to rebind.
   */
  void BindClock(const sim::EventQueue& queue);

  /**
   * Clears the registry and logger clocks that still point at @p queue.
   * A harness calls this before its queue dies, so later snapshots and
   * log lines never read a destroyed queue.
   */
  void UnbindClock(const sim::EventQueue& queue);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  ReactionTracer& tracer() { return tracer_; }
  const ReactionTracer& tracer() const { return tracer_; }

  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

 private:
  MetricsRegistry metrics_;
  FlightRecorder recorder_;
  ReactionTracer tracer_;
};

}  // namespace flex::obs

#endif  // FLEX_OBS_OBSERVABILITY_HPP_
