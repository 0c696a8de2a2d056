/**
 * @file
 * Fleet-scale sharded-engine bench.
 *
 * Drives the FleetEmulation ladder from one ~10k-rack megaroom to an
 * 11-room, 100k+-rack fleet, all lanes stepping in parallel on the
 * shared pool with the serial epoch-barrier merge between tiles.
 * Reports fleet throughput, per-lane utilization, and the merge
 * barrier's share of wall time — the three numbers that decide whether
 * sharding actually bought throughput or just bought barriers.
 * Throughput is simulated rack-seconds per wall second (racks x end_at
 * / wall), which counts work; events/sec is reported beside it, but an
 * engine change that drops events moves it without moving the work.
 *
 * Also proves the fleet's lane identity the same way the room-scale
 * bench proves the sweep's: a small fleet stepped on 1 lane and on 2
 * lanes must produce the same fleet hash (chained per-room epoch
 * fingerprints + final report hashes), exported as
 * fleet.lane_hash_match.
 *
 * Scaling is measured serial-vs-parallel on the mid fleet rung;
 * check_budget.sh gates the speedup and the 100k-rung rack-seconds/sec
 * floor only when the machine actually has multiple cores
 * (hw_concurrency is stamped into the JSON by run_benches.sh).
 *
 * FLEX_SMOKE=1 shrinks the fleet to two paper-size rooms on a short
 * timeline — enough to exercise every barrier path in seconds.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "emulation/fleet_emulation.hpp"
#include "obs/http_export.hpp"
#include "power/substation.hpp"

namespace {

using Clock = std::chrono::steady_clock;

bool
SmokeMode()
{
  const char* env = std::getenv("FLEX_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

struct FleetRun {
  flex::emulation::FleetReport report;
  int racks = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double rack_seconds_per_sec = 0.0;  ///< simulated racks x end_at / wall
};

/** Construction (serial placement solves) excluded; Run() timed. */
FleetRun
TimeFleet(const flex::emulation::FleetConfig& config)
{
  flex::emulation::FleetEmulation fleet(config);
  FleetRun run;
  run.racks = fleet.total_racks();
  const auto start = Clock::now();
  run.report = fleet.Run();
  run.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  run.events_per_sec =
      static_cast<double>(run.report.events_executed) / run.wall_s;
  run.rack_seconds_per_sec =
      run.racks * config.room.end_at.value() / run.wall_s;
  return run;
}

}  // namespace

int
main()
{
  using namespace flex;
  bench::PrintHeader("bench_fleet_scale", "fleet engine",
                     "sharded multi-room stepping: events/sec, lane "
                     "utilization, merge overhead");
  const bool smoke = SmokeMode();

  // Per-room base: the room-scale bench's megaroom (~9900 racks) under
  // the same room-scale monitoring workload (30 s rack telemetry), on a
  // shortened Section V-C timeline.
  emulation::EmulationConfig room;
  room.placement_solve_seconds = bench::SolveSeconds(smoke ? 0.2 : 2.0);
  room.setup_duration = Seconds(smoke ? 5.0 : 30.0);
  room.failover_at = Seconds(smoke ? 10.0 : 60.0);
  room.restore_at = Seconds(smoke ? 15.0 : 100.0);
  room.end_at = Seconds(smoke ? 20.0 : 130.0);
  room.alerts.enabled = true;  // lane-local stores + engines merge too
  if (!smoke) {
    power::RoomConfig mega = power::RoomConfig::EmulationRoom();
    mega.num_ups = 12;
    mega.redundancy_y = 11;
    mega.ups_capacity = MegaWatts(11.0);
    mega.pdu_pairs_per_ups_pair = 1;  // 66 PDU pairs
    mega.rows_per_pdu_pair = 5;
    mega.racks_per_row = 30;  // 9900 racks
    mega.pdu_rating = MegaWatts(2.5);
    room.room = mega;
    room.pipeline.rack_poll_period = Seconds(30.0);
  } else {
    room.pipeline.rack_poll_period = Seconds(2.0);
  }

  const auto fleet_config = [&room, smoke](int rooms, int threads) {
    emulation::FleetConfig config;
    config.room = room;
    config.rooms = rooms;
    config.threads = threads;
    config.epoch = Seconds(smoke ? 5.0 : 10.0);
    config.substation = power::SubstationConfig::ForRooms(
        rooms, room.room, /*headroom_fraction=*/0.9);
    return config;
  };

  // The ladder: every rung steps on the shared pool. The last rung is
  // the acceptance target — 100k+ racks in one fleet.
  const std::vector<int> ladder =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 4, 11};
  std::printf("\nfleet ladder (shared pool, %u hw threads):\n",
              std::thread::hardware_concurrency());
  std::printf("  %-12s %8s %6s %10s %12s %14s %14s %9s %9s\n", "fleet",
              "racks", "lanes", "wall (s)", "events", "events/sec",
              "rack-s/sec", "lane-util", "merge %");
  FleetRun largest;
  for (const int rooms : ladder) {
    const FleetRun run = TimeFleet(fleet_config(rooms, 0));
    std::printf("  %dx%-10d %8d %6d %10.3f %12llu %14.0f %14.0f %9.2f "
                "%9.2f\n",
                rooms, run.racks / std::max(1, rooms), run.racks,
                run.report.lanes, run.wall_s,
                static_cast<unsigned long long>(run.report.events_executed),
                run.events_per_sec, run.rack_seconds_per_sec,
                run.report.lane_utilization, run.report.merge_overhead_pct);
    largest = run;
  }

  // Serial-vs-parallel scaling on the mid rung (bounded wall time; the
  // 100k rung would double the bench for the same signal).
  const int scaling_rooms = smoke ? 2 : 4;
  const FleetRun serial = TimeFleet(fleet_config(scaling_rooms, 1));
  const FleetRun parallel = TimeFleet(fleet_config(scaling_rooms, 0));
  const double speedup = parallel.events_per_sec / serial.events_per_sec;
  std::printf("\nscaling, %d rooms: serial %.0f events/sec, %d-lane %.0f "
              "events/sec -> %.2fx\n",
              scaling_rooms, serial.events_per_sec, parallel.report.lanes,
              parallel.events_per_sec, speedup);

  // Lane identity: the same small fleet on 1 lane and on 2 lanes must
  // hash identically (node-budgeted placement so machine speed cannot
  // perturb the rooms).
  emulation::EmulationConfig ident_room;
  ident_room.setup_duration = Seconds(5.0);
  ident_room.failover_at = Seconds(10.0);
  ident_room.restore_at = Seconds(15.0);
  ident_room.end_at = Seconds(20.0);
  ident_room.placement_solve_seconds = 1e9;
  ident_room.placement_max_nodes = smoke ? 500 : 4000;
  ident_room.alerts.enabled = true;
  emulation::FleetConfig ident;
  ident.room = ident_room;
  ident.rooms = 2;
  ident.epoch = Seconds(5.0);
  ident.substation =
      power::SubstationConfig::ForRooms(2, ident_room.room, 0.9);
  ident.threads = 1;
  emulation::FleetEmulation one_lane(ident);
  const emulation::FleetReport one = one_lane.Run();
  ident.threads = 2;
  emulation::FleetEmulation two_lanes(ident);
  const emulation::FleetReport two = two_lanes.Run();
  const bool hash_match = one.fleet_hash == two.fleet_hash &&
                          one.alert_fingerprint == two.alert_fingerprint;
  std::printf("\nlane identity (2 rooms): 1-lane hash %016llx, 2-lane hash "
              "%016llx -> %s\n",
              static_cast<unsigned long long>(one.fleet_hash),
              static_cast<unsigned long long>(two.fleet_hash),
              hash_match ? "identical" : "MISMATCH");

  obs::Observability observability;
  obs::MetricsRegistry& metrics = observability.metrics();
  metrics.gauge("fleet.racks").Set(static_cast<double>(largest.racks));
  metrics.gauge("fleet.rooms")
      .Set(static_cast<double>(ladder.back()));
  metrics.gauge("fleet.lanes").Set(static_cast<double>(largest.report.lanes));
  metrics.gauge("fleet.epochs")
      .Set(static_cast<double>(largest.report.epochs));
  metrics.gauge("fleet.wall_s").Set(largest.wall_s);
  metrics.gauge("fleet.events_executed")
      .Set(static_cast<double>(largest.report.events_executed));
  metrics.gauge("fleet.events_per_sec").Set(largest.events_per_sec);
  metrics.gauge("fleet.rack_seconds_per_sec")
      .Set(largest.rack_seconds_per_sec);
  metrics.gauge("fleet.lane_utilization")
      .Set(largest.report.lane_utilization);
  metrics.gauge("fleet.merge_overhead_pct")
      .Set(largest.report.merge_overhead_pct);
  metrics.gauge("fleet.merge_wall_s").Set(largest.report.merge_wall_seconds);
  metrics.gauge("fleet.step_wall_s").Set(largest.report.step_wall_seconds);
  metrics.gauge("fleet.alert_edges")
      .Set(static_cast<double>(largest.report.alert_timeline.size()));
  metrics.gauge("fleet.substation.peak_utilization")
      .Set(largest.report.peak_substation_utilization);
  metrics.gauge("fleet.substation.overload_epochs")
      .Set(static_cast<double>(largest.report.substation_overload_epochs));
  metrics.gauge("fleet.scaling.rooms")
      .Set(static_cast<double>(scaling_rooms));
  metrics.gauge("fleet.scaling.serial_events_per_sec")
      .Set(serial.events_per_sec);
  metrics.gauge("fleet.scaling.parallel_events_per_sec")
      .Set(parallel.events_per_sec);
  metrics.gauge("fleet.scaling.speedup").Set(speedup);
  metrics.gauge("fleet.lane_hash_match").Set(hash_match ? 1.0 : 0.0);
  bench::MaybeExportBenchJson("bench_fleet_scale", observability);

  if (!hash_match) {
    std::fprintf(stderr, "FAIL: fleet diverged across lane counts\n");
    return 1;
  }
  if (!smoke && largest.racks < 100000) {
    std::fprintf(stderr, "FAIL: largest fleet rung is %d racks (< 100k)\n",
                 largest.racks);
    return 1;
  }
  return 0;
}
