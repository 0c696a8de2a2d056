#include "fault_run.hpp"

#include <functional>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault_fuzzer.hpp"
#include "fault/fault_injector.hpp"

namespace flex::fault {

emulation::EmulationConfig
FuzzRoomConfig()
{
  emulation::EmulationConfig config;
  config.room.num_ups = 3;
  config.room.redundancy_y = 2;
  config.room.ups_capacity = KiloWatts(200.0);
  config.room.pdu_pairs_per_ups_pair = 1;
  config.room.rows_per_pdu_pair = 2;
  config.room.racks_per_row = 2;
  config.target_utilization = 0.78;
  config.flex_power_fraction = 0.5;
  config.setup_duration = Seconds(10.0);
  config.end_at = Seconds(120.0);
  config.failed_ups = -1;
  config.num_controllers = 2;
  // The tolerated fault envelope needs a meter quorum and redundant
  // pollers and buses.
  config.pipeline.meters_per_device = 3;
  config.pipeline.num_pollers = 2;
  config.pipeline.num_buses = 2;
  // Node-budgeted, so a seed places the same racks on any machine.
  config.placement_solve_seconds = 1e9;
  config.placement_max_nodes = 2000;
  // A small room reacts faster than the megawatt rooms the controller
  // defaults target; shrink its margins to match.
  config.controller.buffer = KiloWatts(8.0);
  config.controller.release_delay = Seconds(10.0);
  config.alerts.enabled = true;
  return config;
}

FaultPlan
FuzzedPlan(const emulation::RoomEmulation& room)
{
  const emulation::EmulationConfig& config = room.config();
  ScenarioShape shape;
  shape.num_ups = room.topology().NumUpses();
  shape.num_racks = room.total_racks();
  shape.num_pollers = config.pipeline.num_pollers;
  shape.num_buses = config.pipeline.num_buses;
  shape.meters_per_device = config.pipeline.meters_per_device;
  shape.num_controllers = config.num_controllers;
  shape.horizon = config.end_at;
  return FaultFuzzer(shape).SamplePlan(config.seed);
}

FaultRunReport
RunPlan(emulation::RoomEmulation& room, const FaultPlan& plan)
{
  MonitorConfig monitor_config;
  monitor_config.obs = room.config().obs;
  InvariantMonitor monitor(
      room.queue(), room.topology(), room.rack_categories(), room.plane(),
      room.ups_loads(), monitor_config);
  for (const auto& controller : room.controllers())
    monitor.AddController(controller.get());
  monitor.Attach();
  FaultInjector injector(room);
  injector.Arm(plan);

  FaultRunReport report;
  report.room = room.Run();
  // The room closed its trip watch at the end of the drain; check there
  // once more so the monitor judges the same load trajectory.
  monitor.Check();
  monitor.Detach();

  report.readings_delivered = room.pipeline().delivered_count();
  for (const auto& controller : room.controllers()) {
    const online::ControllerStats& stats = controller->stats();
    report.restore_commands += stats.restore_commands;
    report.uncap_commands += stats.uncap_commands;
    report.failed_commands += stats.failed_commands;
  }
  report.violations = monitor.violations();
  report.violation_summary = monitor.Summary();
  report.monitor_checks = monitor.checks_run();
  report.fault_trace = injector.executed_trace();
  return report;
}

FaultRunReport
RunFuzzedScenario(const emulation::EmulationConfig& config,
                  std::uint64_t seed, std::string* trace_out)
{
  emulation::EmulationConfig seeded = config;
  seeded.seed = seed;
  emulation::RoomEmulation room(seeded);
  const FaultPlan plan = FuzzedPlan(room);
  if (trace_out != nullptr)
    *trace_out = plan.DebugString();
  return RunPlan(room, plan);
}

std::vector<FaultRunReport>
RunFuzzSweep(const emulation::EmulationConfig& config,
             std::uint64_t first_seed, int count, int threads,
             std::vector<std::string>* traces)
{
  FLEX_REQUIRE(count >= 0, "negative sweep count");
  common::Lanes lanes(threads, static_cast<std::size_t>(count));

  std::vector<FaultRunReport> reports(static_cast<std::size_t>(count));
  if (traces != nullptr) {
    traces->clear();
    traces->resize(static_cast<std::size_t>(count));
  }

  // Each lane derives everything from its seed; the config is shared
  // read-only except for obs, which must be detached (the registry is
  // single-threaded).
  const auto run_one = [&config, &reports, traces, first_seed](int i) {
    emulation::EmulationConfig lane_config = config;
    lane_config.obs = nullptr;
    const std::size_t slot = static_cast<std::size_t>(i);
    std::string* trace = traces != nullptr ? &(*traces)[slot] : nullptr;
    reports[slot] = RunFuzzedScenario(
        lane_config, first_seed + static_cast<std::uint64_t>(i), trace);
  };

  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    tasks.push_back([&run_one, i] { run_one(i); });
  lanes.Run(std::move(tasks));
  return reports;
}

}  // namespace flex::fault
