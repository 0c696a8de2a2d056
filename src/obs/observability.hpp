/**
 * @file
 * Umbrella handle bundling the metrics registry and reaction tracer.
 *
 * Components take a raw `Observability*` in their config structs (null
 * means "not instrumented" and costs one branch per hook). It holds no
 * clock: whoever snapshots the registry passes the simulated time.
 */
#ifndef FLEX_OBS_OBSERVABILITY_HPP_
#define FLEX_OBS_OBSERVABILITY_HPP_

#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

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
