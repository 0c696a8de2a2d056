/**
 * @file
 * Fault-storm throughput bench.
 *
 * Measures the event throughput of the fault-injection stack on the
 * fuzz room (fault::FuzzRoomConfig): fuzzed plans with the invariant
 * monitor attached (the configuration the property tests sweep), the
 * same plans on bare rooms without the monitor (isolating its per-event
 * overhead), and a dense storm plan that saturates the schedule with
 * begin/repair events. The first section doubles as a large-scale
 * safety sweep: any invariant violation is reported with its
 * reproducing seed.
 */
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "emulation/room_emulation.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_run.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double
SecondsSince(Clock::time_point start)
{
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int
main()
{
  using namespace flex;
  bench::PrintHeader("bench_fault_storm", "fault-injection engine",
                     "events/sec under fuzzed fault plans");

  const int seeds = bench::NumTraces(40);
  const emulation::EmulationConfig config = fault::FuzzRoomConfig();

  // --- Fuzzed sweep with the monitor attached -----------------------------
  // On one lane, like the bare pass below, so the two walls compare.
  std::uint64_t events_monitored = 0;
  std::size_t readings = 0;
  std::size_t faults = 0;
  int violations = 0;
  auto start = Clock::now();
  const std::vector<fault::FaultRunReport> monitored =
      fault::RunFuzzSweep(config, 0, seeds, /*threads=*/1);
  const double monitored_wall = SecondsSince(start);
  for (std::size_t i = 0; i < monitored.size(); ++i) {
    const fault::FaultRunReport& report = monitored[i];
    events_monitored += report.room.events_executed;
    readings += report.readings_delivered;
    faults += report.fault_trace.size();
    if (!report.violations.empty()) {
      ++violations;
      std::printf("  !! violation at seed %zu:\n%s", i,
                  report.violation_summary.c_str());
    }
  }

  // --- Same plans on bare rooms, without the monitor ----------------------
  std::uint64_t events_bare = 0;
  start = Clock::now();
  for (int seed = 0; seed < seeds; ++seed) {
    emulation::EmulationConfig bare_config = config;
    bare_config.seed = static_cast<std::uint64_t>(seed);
    emulation::RoomEmulation room(bare_config);
    fault::FaultInjector injector(room);
    injector.Arm(fault::FuzzedPlan(room));
    events_bare += room.Run().events_executed;
  }
  const double bare_wall = SecondsSince(start);

  std::printf("\nfuzzed rooms (%d seeds, %.0f sim-seconds each):\n", seeds,
              config.end_at.value());
  std::printf("  %-28s %12s %14s\n", "", "wall (s)", "events/sec");
  std::printf("  %-28s %12.3f %14.0f\n", "with invariant monitor",
              monitored_wall,
              static_cast<double>(events_monitored) / monitored_wall);
  std::printf("  %-28s %12.3f %14.0f\n", "without monitor", bare_wall,
              static_cast<double>(events_bare) / bare_wall);
  std::printf("  monitor overhead: %+.1f%%\n",
              100.0 * (monitored_wall / bare_wall - 1.0));
  std::printf("  delivered readings: %zu, fault begin/repair events: %zu\n",
              readings, faults);
  std::printf("  invariant violations: %d (must be 0)\n", violations);

  // --- Dense storm: saturate the schedule with fault churn ----------------
  // Repeated short telemetry and actuation faults, all inside the
  // envelope (never both buses / both pollers down at once).
  emulation::EmulationConfig storm_config = config;
  storm_config.seed = 2021;
  emulation::RoomEmulation room(storm_config);
  fault::FaultPlan storm;
  const double horizon = config.end_at.value();
  for (double t = 10.0; t < horizon - 20.0; t += 4.0) {
    fault::FaultEvent poller;
    poller.at = Seconds(t);
    poller.kind = fault::FaultKind::kPollerCrash;
    poller.target = static_cast<int>(t) % config.pipeline.num_pollers;
    poller.duration = Seconds(1.5);
    storm.Add(poller);

    fault::FaultEvent bus;
    bus.at = Seconds(t + 2.0);
    bus.kind = fault::FaultKind::kBusDelay;
    bus.target = static_cast<int>(t) % config.pipeline.num_buses;
    bus.magnitude = 0.4;
    bus.duration = Seconds(1.5);
    storm.Add(bus);

    fault::FaultEvent rm;
    rm.at = Seconds(t + 1.0);
    rm.kind = fault::FaultKind::kRackManagerTimeout;
    rm.target = static_cast<int>(t) % room.total_racks();
    rm.magnitude = 1.0;
    rm.duration = Seconds(2.0);
    storm.Add(rm);
  }
  storm.SortByTime();

  start = Clock::now();
  const fault::FaultRunReport report = fault::RunPlan(room, storm);
  const double storm_wall = SecondsSince(start);
  std::printf("\ndense storm (%zu scheduled faults, one room):\n",
              storm.size());
  std::printf("  executed %llu events in %.3f s wall — %.0f events/sec\n",
              static_cast<unsigned long long>(report.room.events_executed),
              storm_wall,
              static_cast<double>(report.room.events_executed) / storm_wall);
  std::printf("  fault begin/repair events fired: %zu\n",
              report.fault_trace.size());
  std::printf("  invariant violations: %zu (must be 0)\n%s",
              report.violations.size(), report.violation_summary.c_str());
  return violations == 0 && report.violations.empty() ? 0 : 1;
}
