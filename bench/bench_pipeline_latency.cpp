/**
 * @file
 * E13 / Section VI: telemetry and actuation latency envelope.
 *
 * Paper result (production): p99.9 data latency under 1.5 s including
 * windowing, ~2 s p99.9 action latency for a ~10 MW room, 3.5 s end to
 * end — comfortably below the ~10 s device tolerance at end of battery
 * life. Also demonstrates that the pipeline keeps delivering through
 * single-component failures (no single point of failure).
 */
#include <cstdio>

#include "actuation/rack_manager.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "obs/observability.hpp"
#include "power/trip_curve.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/pipeline.hpp"

namespace {

using namespace flex;

/** Steady synthetic room: constant truth power per device. */
class SteadySource : public telemetry::PowerSource {
 public:
  Watts
  CurrentPower(telemetry::DeviceId device) const override
  {
    return device.kind == telemetry::DeviceKind::kUps
               ? MegaWatts(1.0)
               : KiloWatts(14.0 + 0.01 * device.index);
  }
};

}  // namespace

int
main()
{
  bench::PrintHeader("bench_pipeline_latency", "Section VI (latency)",
                     "telemetry data latency, action latency, end-to-end "
                     "budget");

  sim::EventQueue queue;
  SteadySource source;
  obs::Observability observability;
  const int num_racks = 600;  // ~10 MW room at ~16 kW/rack
  telemetry::PipelineConfig pipeline_config;
  pipeline_config.obs = &observability;
  telemetry::TelemetryPipeline pipeline(queue, source, 4, num_racks,
                                        pipeline_config, 2021);
  pipeline.Subscribe([](const telemetry::ReadingBatch&) {});
  pipeline.Start();
  queue.RunUntil(Minutes(10.0));
  pipeline.Stop();
  queue.RunUntil(Minutes(10.0) + Seconds(5.0));

  const RunLengthSummary& latency = pipeline.latency();
  std::printf("telemetry: %zu readings delivered over 10 minutes\n",
              pipeline.delivered_count());
  std::printf("%-34s %10s %10s\n", "metric", "paper", "measured");
  std::printf("%-34s %10s %8.2f s\n", "data latency p50", "-",
              latency.Percentile(50.0));
  std::printf("%-34s %10s %8.2f s\n", "data latency p99", "-",
              latency.Percentile(99.0));
  const double data_p999 = latency.Percentile(99.9);
  std::printf("%-34s %10s %8.2f s\n", "data latency p99.9", "< 1.5 s",
              data_p999);

  // Action latency over a burst of cap commands on every rack.
  sim::EventQueue action_queue;
  actuation::RackManagerConfig rm_config;
  rm_config.obs = &observability;
  actuation::ActuationPlane plane(action_queue, num_racks, rm_config, 7);
  for (int r = 0; r < num_racks; ++r)
    plane.rack(r).Throttle(KiloWatts(12.0), [](bool) {});
  action_queue.RunUntil(Seconds(60.0));
  const double action_p999 = Percentile(plane.action_latencies(), 99.9);
  std::printf("%-34s %10s %8.2f s\n", "action latency p99.9", "~2 s",
              action_p999);

  const double end_to_end = data_p999 + action_p999;
  const power::TripCurve curve =
      power::TripCurve::ForBatteryLife(power::BatteryLife::kEndOfLife);
  const double budget = curve.ToleranceAt(4.0 / 3.0).value();
  std::printf("%-34s %10s %8.2f s\n", "end-to-end (data + action)", "3.5 s",
              end_to_end);
  std::printf("%-34s %10s %8.2f s\n", "UPS tolerance at 133% (budget)",
              "~10 s", budget);
  std::printf("end-to-end %s the tolerance budget\n\n",
              end_to_end < budget ? "fits within" : "EXCEEDS");

  // No single point of failure: kill one component of every stage and
  // confirm readings still flow.
  sim::EventQueue faulty_queue;
  telemetry::TelemetryPipeline faulty(
      faulty_queue, source, 4, 32, telemetry::PipelineConfig{}, 99);
  std::size_t delivered = 0;
  faulty.Subscribe([&](const telemetry::ReadingBatch& batch) {
    delivered += batch.readings.size();
  });
  faulty.SetPollerFailed(0, true);
  faulty.SetBusFailed(1, true);
  faulty.SetMeterFailed({telemetry::DeviceKind::kUps, 0}, 0, true);
  faulty.Start();
  faulty_queue.RunUntil(Minutes(1.0));
  std::printf("fault injection (1 poller + 1 bus + 1 meter down): "
              "%zu readings still delivered in 60 s -> %s\n",
              delivered, delivered > 0 ? "no SPOF" : "PIPELINE DEAD");

  // Machine-readable results: the bench-level aggregates go in as
  // gauges next to the component metrics recorded during the run.
  obs::MetricsRegistry& metrics = observability.metrics();
  metrics.gauge("bench.data_latency_p999_s").Set(data_p999);
  metrics.gauge("bench.action_latency_p999_s").Set(action_p999);
  metrics.gauge("bench.end_to_end_s").Set(end_to_end);
  metrics.gauge("bench.budget_s").Set(budget);
  const double now = queue.Now().value();
  std::printf("\n%s", obs::SummaryTable(metrics.Snapshot(now)).c_str());
  bench::MaybeExportBenchJson("bench_pipeline_latency", observability, now);
  return delivered > 0 && end_to_end < budget ? 0 : 1;
}
