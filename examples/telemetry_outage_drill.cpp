/**
 * @file
 * Telemetry outage drill: prove there is no single point of failure.
 *
 * Builds the redundant telemetry pipeline (triple meters, two pollers,
 * two pub/sub buses) plus the rack-manager fleet with its background
 * firmware monitor, then progressively injects failures at every stage
 * and reports whether readings keep flowing and broken rack managers
 * get flagged — the Section IV-C and Section VI production story.
 */
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "actuation/firmware_monitor.hpp"
#include "actuation/rack_manager.hpp"
#include "obs/observability.hpp"
#include "online/controller.hpp"
#include "power/topology.hpp"
#include "power/trip_curve.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/pipeline.hpp"

namespace {

using namespace flex;

class SteadyRoom : public telemetry::PowerSource {
 public:
  Watts
  CurrentPower(telemetry::DeviceId device) const override
  {
    return device.kind == telemetry::DeviceKind::kUps ? MegaWatts(1.0)
                                                      : KiloWatts(13.0);
  }
};

/** A small 4-UPS room whose UPS 0 reading can be spiked on demand. */
class FailoverRoom : public telemetry::PowerSource {
 public:
  Watts
  CurrentPower(telemetry::DeviceId device) const override
  {
    if (device.kind == telemetry::DeviceKind::kUps)
      return KiloWatts(device.index == 0 ? ups0_kw : 60.0);
    return KiloWatts(18.0);
  }

  double ups0_kw = 60.0;
};

}  // namespace

int
main()
{
  sim::EventQueue queue;
  SteadyRoom room;
  telemetry::TelemetryPipeline pipeline(queue, room, 4, 40,
                                        telemetry::PipelineConfig{}, 17);
  std::size_t window_count = 0;
  pipeline.Subscribe([&](const telemetry::ReadingBatch& batch) {
    window_count += batch.readings.size();
  });
  pipeline.Start();

  auto run_window = [&](const char* label) {
    window_count = 0;
    queue.RunUntil(queue.Now() + Seconds(30.0));
    std::printf("%-52s %6zu readings/30s %s\n", label, window_count,
                window_count > 0 ? "[flowing]" : "[DEAD]");
  };

  std::printf("=== telemetry fault injection ===\n");
  run_window("baseline (everything healthy)");
  pipeline.SetMeterFailed({telemetry::DeviceKind::kUps, 0}, 0, true);
  run_window("one physical meter of UPS 0 failed");
  pipeline.SetPollerFailed(0, true);
  run_window("+ poller 0 failed");
  pipeline.SetBusFailed(0, true);
  run_window("+ pub/sub bus 0 failed");
  pipeline.SetMeterFailed({telemetry::DeviceKind::kUps, 0}, 1, true);
  run_window("+ second meter of UPS 0 failed (quorum lost there)");
  pipeline.SetPollerFailed(1, true);
  run_window("+ poller 1 failed (no pollers left)");
  pipeline.SetPollerFailed(0, false);
  pipeline.SetPollerFailed(1, false);
  pipeline.SetBusFailed(0, false);
  pipeline.SetMeterFailed({telemetry::DeviceKind::kUps, 0}, 0, false);
  pipeline.SetMeterFailed({telemetry::DeviceKind::kUps, 0}, 1, false);
  run_window("everything restored");

  std::printf("\n=== rack-manager background monitoring ===\n");
  actuation::ActuationPlane plane(queue, 40, actuation::RackManagerConfig{},
                                  23);
  actuation::FirmwareMonitorConfig monitor_config;
  monitor_config.probe_period = Seconds(30.0);
  actuation::FirmwareMonitor monitor(queue, plane, monitor_config, 29);
  monitor.OnWarning([&](const actuation::MonitorWarning& warning) {
    std::printf("  [%.0f s] WARNING rack %d: %s\n",
                warning.raised_at.value(), warning.rack_id,
                warning.reason.c_str());
  });
  monitor.Start();
  plane.rack(7).SetUnreachable(true);
  plane.rack(19).SetFirmwareStale(true);
  queue.RunUntil(queue.Now() + Seconds(70.0));
  std::printf("operator remediates: firmware redeployed on rack 19, "
              "network fixed on rack 7\n");
  plane.rack(7).SetUnreachable(false);
  plane.rack(19).RedeployFirmware();
  const std::size_t warnings_before = monitor.warnings().size();
  queue.RunUntil(queue.Now() + Seconds(70.0));
  std::printf("warnings after remediation: %zu new\n",
              monitor.warnings().size() - warnings_before);

  // -------------------------------------------------------------------------
  // Poller crash mid-failover: UPS 0 overloads, and half a second later
  // the poller that would have reported it dies. The surviving poller
  // still carries the reading through, and the reaction tracer shows
  // where the ~seconds went, stage by stage.
  // -------------------------------------------------------------------------
  std::printf("\n=== poller crash mid-failover (reaction tracing) ===\n");
  obs::ObservabilityConfig obs_config;
  obs_config.tracer.budget =
      power::TripCurve::ForBatteryLife(power::BatteryLife::kEndOfLife)
          .ToleranceAt(4.0 / 3.0);
  obs::Observability observability(obs_config);

  sim::EventQueue drill_queue;
  FailoverRoom failover_room;

  power::RoomConfig room_config;
  room_config.num_ups = 4;
  room_config.redundancy_y = 3;
  room_config.ups_capacity = KiloWatts(100.0);
  room_config.pdu_pairs_per_ups_pair = 1;
  room_config.rows_per_pdu_pair = 1;
  room_config.racks_per_row = 4;
  power::RoomTopology topology(room_config);

  actuation::RackManagerConfig rm_config;
  rm_config.obs = &observability;
  actuation::ActuationPlane drill_plane(drill_queue, 8, rm_config, 31);

  telemetry::PipelineConfig pipeline_config;
  pipeline_config.obs = &observability;
  telemetry::TelemetryPipeline drill_pipeline(drill_queue, failover_room, 4,
                                              8, pipeline_config, 37);

  std::vector<online::ManagedRack> managed;
  for (int i = 0; i < 8; ++i) {
    online::ManagedRack rack;
    rack.workload = i < 4 ? "sr" : "cap";
    rack.category = i < 4 ? workload::Category::kSoftwareRedundant
                          : workload::Category::kNonRedundantCapable;
    rack.pdu_pair = i < 4 ? 0 : 1;
    rack.allocated = KiloWatts(20.0);
    rack.flex_power = KiloWatts(16.0);
    managed.push_back(rack);
  }
  online::ControllerConfig controller_config;
  controller_config.obs = &observability;
  online::FlexController controller(
      drill_queue, topology,
      std::make_shared<const std::vector<online::ManagedRack>>(
          std::move(managed)),
      drill_plane, {}, controller_config, 0);
  drill_pipeline.Subscribe([&](const telemetry::ReadingBatch& batch) {
    for (std::size_t i = 0; i < batch.readings.size(); ++i)
      controller.OnReading(batch.Reading(i));
  });
  drill_pipeline.Start();
  drill_queue.RunUntil(Seconds(30.0));

  std::printf("t=%.1f s: UPS 0 partner fails, survivor spikes to 140 kW\n",
              drill_queue.Now().value());
  failover_room.ups0_kw = 140.0;
  drill_queue.Schedule(Seconds(0.5), [&] {
    std::printf("t=%.1f s: poller 0 crashes mid-failover\n",
                drill_queue.Now().value());
    drill_pipeline.SetPollerFailed(0, true);
  });
  drill_queue.RunUntil(Seconds(60.0));

  const obs::ReactionTracer& tracer = observability.tracer();
  if (tracer.complete_count() == 0) {
    std::printf("no reaction trace completed -- pipeline DEAD\n");
    return 1;
  }
  const obs::ReactionTrace& trace = tracer.traces().front();
  std::printf("reaction trace #%llu (detected by replica %d on UPS %d, "
              "%d corrective actions):\n",
              static_cast<unsigned long long>(trace.id),
              trace.detecting_replica, trace.ups_index, trace.actions);
  for (int s = 0; s < obs::kNumReactionStages; ++s) {
    const auto stage = static_cast<obs::ReactionStage>(s);
    std::printf("  %-14s %+8.3f s\n", obs::ReactionStageName(stage),
                trace.StageLatency(stage).value());
  }
  std::printf("  %-14s %8.3f s against a %.1f s budget -> %s\n", "end-to-end",
              trace.EndToEnd().value(), trace.budget.value(),
              trace.WithinBudget() ? "within budget" : "OVER BUDGET");
  return trace.WithinBudget() ? 0 : 1;
}
