/**
 * @file
 * Fault-storm throughput bench.
 *
 * Measures the event throughput of the fault-injection stack on the
 * fuzz room (fault::FuzzRoomConfig): fuzzed plans with the invariant
 * monitor attached (the configuration the property tests sweep), the
 * same plans on bare rooms without the monitor (isolating its per-event
 * overhead), and a dense storm plan that saturates the schedule with
 * begin/repair events. The two sweeps alternate over seven pairs: the
 * overhead is the median pair ratio with its quartiles, printed beside
 * the invariant checks per executed event, a count that repeats
 * exactly. The first section doubles as a large-scale safety sweep: any
 * invariant violation is reported with its reproducing seed.
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
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

  // --- Fuzzed sweep, with and without the monitor ------------------------
  // Both passes run the same plans on one lane. One wall-clock sample per
  // pass cannot resolve the monitor's cost (single pairs of the same
  // binary spread from -12% to +35%), so the passes alternate, the order
  // flipping every pair, and the overhead is the median pair ratio.
  constexpr int kPairs = 7;
  std::vector<fault::FaultRunReport> monitored;  // the first pass's
  const auto monitored_pass = [&] {
    const auto start = Clock::now();
    std::vector<fault::FaultRunReport> reports =
        fault::RunFuzzSweep(config, 0, seeds, /*threads=*/1);
    const double wall = SecondsSince(start);
    if (monitored.empty())
      monitored = std::move(reports);
    return wall;
  };
  std::uint64_t events_bare = 0;
  const auto bare_pass = [&] {
    events_bare = 0;
    const auto start = Clock::now();
    for (int seed = 0; seed < seeds; ++seed) {
      emulation::EmulationConfig bare_config = config;
      bare_config.seed = static_cast<std::uint64_t>(seed);
      emulation::RoomEmulation room(bare_config);
      fault::FaultInjector injector(room);
      injector.Arm(fault::FuzzedPlan(room));
      events_bare += room.Run().events_executed;
    }
    return SecondsSince(start);
  };
  std::vector<double> monitored_walls;
  std::vector<double> bare_walls;
  std::vector<double> overhead_pct;
  for (int pair = 0; pair < kPairs; ++pair) {
    double monitored_wall = 0.0;
    double bare_wall = 0.0;
    if (pair % 2 == 0) {
      monitored_wall = monitored_pass();
      bare_wall = bare_pass();
    } else {
      bare_wall = bare_pass();
      monitored_wall = monitored_pass();
    }
    monitored_walls.push_back(monitored_wall);
    bare_walls.push_back(bare_wall);
    overhead_pct.push_back(100.0 * (monitored_wall / bare_wall - 1.0));
  }
  std::uint64_t events_monitored = 0;
  std::uint64_t monitor_checks = 0;
  std::size_t readings = 0;
  std::size_t faults = 0;
  int violations = 0;
  for (std::size_t i = 0; i < monitored.size(); ++i) {
    const fault::FaultRunReport& report = monitored[i];
    events_monitored += report.room.events_executed;
    monitor_checks += report.monitor_checks;
    readings += report.readings_delivered;
    faults += report.fault_trace.size();
    if (!report.violations.empty()) {
      ++violations;
      std::printf("  !! violation at seed %zu:\n%s", i,
                  report.violation_summary.c_str());
    }
  }
  const double monitored_wall = Percentile(monitored_walls, 50.0);
  const double bare_wall = Percentile(bare_walls, 50.0);

  std::printf("\nfuzzed rooms (%d seeds, %.0f sim-seconds each), median of "
              "%d alternating pairs:\n",
              seeds, config.end_at.value(), kPairs);
  std::printf("  %-28s %12s %14s\n", "", "wall (s)", "events/sec");
  std::printf("  %-28s %12.3f %14.0f\n", "with invariant monitor",
              monitored_wall,
              static_cast<double>(events_monitored) / monitored_wall);
  std::printf("  %-28s %12.3f %14.0f\n", "without monitor", bare_wall,
              static_cast<double>(events_bare) / bare_wall);
  std::printf("  monitor overhead: median %+.1f%% (p25 %+.1f%%, p75 %+.1f%%)\n",
              Percentile(overhead_pct, 50.0), Percentile(overhead_pct, 25.0),
              Percentile(overhead_pct, 75.0));
  std::printf("  invariant checks: %llu over %llu executed events, %.4f per "
              "event\n",
              static_cast<unsigned long long>(monitor_checks),
              static_cast<unsigned long long>(events_monitored),
              static_cast<double>(monitor_checks) /
                  static_cast<double>(events_monitored));
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

  const auto start = Clock::now();
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
