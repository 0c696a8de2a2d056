/**
 * @file
 * Fleet-engine determinism and coupling tests.
 *
 * The fleet engine's contract is the repository's house invariant at a
 * new layer: rooms step in parallel across lanes, but every hash and
 * every merged alert edge is a pure function of the configuration —
 * bit-identical at 1, 2, and 8 lanes, with or without a live hub, and
 * (for a fleet of one) identical to monolithic RoomEmulation::Run().
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "emulation/fleet_emulation.hpp"
#include "emulation/room_emulation.hpp"
#include "emulation/sweep.hpp"
#include "obs/http_export.hpp"
#include "obs/log.hpp"
#include "power/substation.hpp"

namespace flex::emulation {
namespace {

/**
 * Short deterministic timeline: node-budgeted placement (not
 * wall-clock) so runs are bit-identical regardless of machine speed.
 * The scripted failover overloads a UPS, so every room has
 * UpsOverloaded edges to merge.
 */
EmulationConfig
FleetRoomConfig(std::uint64_t seed)
{
  EmulationConfig config;
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(120.0);
  config.restore_at = Seconds(200.0);
  config.end_at = Seconds(260.0);
  config.seed = seed;
  config.placement_solve_seconds = 1e9;
  config.placement_max_nodes = 2000;
  config.alerts.enabled = true;
  return config;
}

FleetConfig
SmallFleet(int rooms, int threads)
{
  FleetConfig config;
  config.room = FleetRoomConfig(2021);
  config.rooms = rooms;
  config.threads = threads;
  config.epoch = Seconds(30.0);
  return config;
}

TEST(FleetEmulationTest, FleetOfOneMatchesMonolithicRun)
{
  // Epoch-bounded driving tiles the same timeline RunUntil would run in
  // one call, so a 1-room fleet must reproduce the standalone room
  // bit-for-bit — series, counters, alert timeline, store contents.
  RoomEmulation standalone(FleetRoomConfig(2021));
  const EmulationReport solo = standalone.Run();

  FleetEmulation fleet(SmallFleet(1, 1));
  const FleetReport report = fleet.Run();

  ASSERT_EQ(report.rooms.size(), 1u);
  const EmulationReport& laned = report.rooms[0].report;
  EXPECT_EQ(HashEmulationReport(solo), HashEmulationReport(laned));
  EXPECT_EQ(solo.alert_fingerprint, laned.alert_fingerprint);
  EXPECT_EQ(solo.store_fingerprint, laned.store_fingerprint);
  EXPECT_EQ(solo.events_executed, laned.events_executed);
  EXPECT_EQ(solo.series.size(), laned.series.size());
}

/** Every field of two alert edges, the human-readable message included. */
void
ExpectSameEdge(const obs::AlertTransition& a, const obs::AlertTransition& b,
               const std::string& where)
{
  EXPECT_EQ(a.t, b.t) << where;
  EXPECT_EQ(a.rule, b.rule) << where;
  EXPECT_EQ(a.from, b.from) << where;
  EXPECT_EQ(a.to, b.to) << where;
  EXPECT_EQ(a.value, b.value) << where;
  EXPECT_EQ(a.message, b.message) << where;
}

TEST(FleetEmulationTest, FleetIsBitIdenticalAtOneTwoAndEightLanes)
{
  // The acceptance bar: per-room lane-identity hashes, final report
  // hashes, every room's alert timeline and store, and the merged alert
  // timeline agree across lane counts. The substation coupling is on,
  // so the barrier feedback path is exercised too. A trace-variant
  // sweep is this same engine with the substation off, so this is also
  // the sweep's lane-identity test.
  const auto run = [](int threads) {
    FleetConfig config = SmallFleet(3, threads);
    config.substation = power::SubstationConfig::ForRooms(
        3, config.room.room, /*headroom_fraction=*/0.9);
    FleetEmulation fleet(config);
    return fleet.Run();
  };
  const FleetReport one = run(1);
  const FleetReport two = run(2);
  const FleetReport eight = run(8);

  EXPECT_EQ(one.lanes, 1);
  EXPECT_GE(two.lanes, 2);
  EXPECT_GE(eight.lanes, 8);

  for (const FleetReport* other : {&two, &eight}) {
    EXPECT_EQ(one.fleet_hash, other->fleet_hash);
    EXPECT_EQ(one.alert_fingerprint, other->alert_fingerprint);
    ASSERT_EQ(one.rooms.size(), other->rooms.size());
    for (std::size_t r = 0; r < one.rooms.size(); ++r) {
      EXPECT_EQ(one.rooms[r].epoch_hash, other->rooms[r].epoch_hash)
          << "room " << r;
      EXPECT_EQ(one.rooms[r].report_hash, other->rooms[r].report_hash)
          << "room " << r;
      EXPECT_EQ(one.rooms[r].report.store_fingerprint,
                other->rooms[r].report.store_fingerprint)
          << "room " << r;
      const EmulationReport& a = one.rooms[r].report;
      const EmulationReport& b = other->rooms[r].report;
      EXPECT_EQ(a.alert_fingerprint, b.alert_fingerprint) << "room " << r;
      EXPECT_EQ(a.alerts_fired, b.alerts_fired) << "room " << r;
      EXPECT_EQ(a.store_samples, b.store_samples) << "room " << r;
      ASSERT_EQ(a.alert_timeline.size(), b.alert_timeline.size())
          << "room " << r;
      for (std::size_t k = 0; k < a.alert_timeline.size(); ++k) {
        ExpectSameEdge(a.alert_timeline[k], b.alert_timeline[k],
                       "room " + std::to_string(r) + " edge " +
                           std::to_string(k));
      }
    }
    ASSERT_EQ(one.alert_timeline.size(), other->alert_timeline.size());
    for (std::size_t e = 0; e < one.alert_timeline.size(); ++e) {
      EXPECT_EQ(one.alert_timeline[e].room, other->alert_timeline[e].room);
      EXPECT_EQ(one.alert_timeline[e].edge.t,
                other->alert_timeline[e].edge.t);
      EXPECT_EQ(one.alert_timeline[e].edge.rule,
                other->alert_timeline[e].edge.rule);
      ExpectSameEdge(one.alert_timeline[e].edge,
                     other->alert_timeline[e].edge,
                     "fleet edge " + std::to_string(e));
    }
    EXPECT_EQ(one.epochs, other->epochs);
    EXPECT_EQ(one.peak_substation_utilization,
              other->peak_substation_utilization);
  }

  // The failover fired somewhere, so the merge actually moved edges.
  EXPECT_GT(one.alert_timeline.size(), 0u);
  EXPECT_EQ(one.events_executed, two.events_executed);
  // ... and in every room: each variant saw the overload alert fire.
  for (std::size_t r = 0; r < one.rooms.size(); ++r)
    EXPECT_GT(one.rooms[r].report.alerts_fired, 0u) << "room " << r;
  // Distinct seeds produce distinct traces; the hash is not a constant.
  for (std::size_t r = 1; r < one.rooms.size(); ++r) {
    EXPECT_NE(one.rooms[r - 1].report_hash, one.rooms[r].report_hash)
        << "rooms " << r - 1 << " and " << r;
  }
}

TEST(FleetEmulationTest, EpochLengthDoesNotChangeRoomOutcomes)
{
  // Tiling the timeline into 30 s epochs vs one whole-run epoch must
  // execute identical event traces per room (EventQueue::RunUntil tiles
  // exactly). Only merge-cadence artifacts (epoch counts, alert-edge
  // interleaving across rooms) may differ.
  FleetConfig fine = SmallFleet(2, 1);
  FleetConfig coarse = SmallFleet(2, 1);
  coarse.epoch = coarse.room.end_at;
  FleetEmulation fine_fleet(fine);
  FleetEmulation coarse_fleet(coarse);
  const FleetReport a = fine_fleet.Run();
  const FleetReport b = coarse_fleet.Run();

  EXPECT_GT(a.epochs, b.epochs);
  EXPECT_EQ(b.epochs, 1u);
  ASSERT_EQ(a.rooms.size(), b.rooms.size());
  for (std::size_t r = 0; r < a.rooms.size(); ++r) {
    EXPECT_EQ(a.rooms[r].report_hash, b.rooms[r].report_hash) << "room " << r;
  }
  EXPECT_EQ(a.alert_timeline.size(), b.alert_timeline.size());
}

TEST(FleetEmulationTest, SubstationCouplingIsObservationalOnly)
{
  // The shared-cap verdict feeds back only as a metrics gauge; it must
  // never change any room's event trace or recorded outcomes.
  FleetConfig without = SmallFleet(2, 1);
  FleetConfig with = SmallFleet(2, 1);
  with.substation = power::SubstationConfig::ForRooms(
      2, with.room.room, /*headroom_fraction=*/0.5);  // tight: overloads
  FleetEmulation plain_fleet(without);
  FleetEmulation coupled_fleet(with);
  const FleetReport plain = plain_fleet.Run();
  const FleetReport coupled = coupled_fleet.Run();

  ASSERT_EQ(plain.rooms.size(), coupled.rooms.size());
  for (std::size_t r = 0; r < plain.rooms.size(); ++r) {
    EXPECT_EQ(plain.rooms[r].report_hash, coupled.rooms[r].report_hash)
        << "room " << r;
  }
  // The coupled fleet actually evaluated the feed.
  EXPECT_GT(coupled.peak_substation_utilization, 0.0);
  EXPECT_EQ(plain.peak_substation_utilization, 0.0);
}

TEST(FleetEmulationTest, AccountingIsCoherent)
{
  FleetConfig config = SmallFleet(2, 1);
  FleetEmulation fleet(config);
  const int racks = fleet.total_racks();
  EXPECT_GT(racks, 0);
  const FleetReport report = fleet.Run();

  ASSERT_EQ(report.rooms.size(), 2u);
  EXPECT_EQ(report.total_racks, racks);
  EXPECT_EQ(report.total_racks,
            report.rooms[0].report.total_racks +
                report.rooms[1].report.total_racks);
  EXPECT_EQ(report.epochs,
            static_cast<std::uint64_t>(std::ceil(
                config.room.end_at.value() / config.epoch.value())));
  EXPECT_GT(report.events_executed, 0u);
  EXPECT_GT(report.step_wall_seconds, 0.0);
  EXPECT_GE(report.merge_wall_seconds, 0.0);
  EXPECT_GT(report.lane_busy_seconds, 0.0);
}

TEST(FleetEmulationTest, LiveHubStallsDoNotChangeTheFleet)
{
  // A live hub's watchdog is wall-clock: how often it flags a room as
  // stalled depends on the machine, so it must never reach a room's
  // store, alerts or hashes. Force a stall on every room before the run.
  const FleetReport plain = FleetEmulation(SmallFleet(3, 1)).Run();

  obs::WatchdogConfig watchdog;
  watchdog.threshold_seconds = 1e-3;
  obs::LiveHub hub(watchdog);
  FleetConfig config = SmallFleet(3, 1);
  config.room.live = &hub;
  FleetEmulation fleet(config);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  hub.watchdog().CheckNow();
  EXPECT_EQ(hub.watchdog().stall_events(), 3u);
  const FleetReport live = fleet.Run();

  EXPECT_EQ(plain.fleet_hash, live.fleet_hash);
  EXPECT_EQ(plain.alert_fingerprint, live.alert_fingerprint);
  EXPECT_EQ(plain.alert_timeline.size(), live.alert_timeline.size());
  ASSERT_EQ(plain.rooms.size(), live.rooms.size());
  for (std::size_t r = 0; r < plain.rooms.size(); ++r) {
    const EmulationReport& a = plain.rooms[r].report;
    const EmulationReport& b = live.rooms[r].report;
    EXPECT_EQ(a.alert_fingerprint, b.alert_fingerprint) << "room " << r;
    EXPECT_EQ(a.store_fingerprint, b.store_fingerprint) << "room " << r;
    ASSERT_EQ(a.alert_timeline.size(), b.alert_timeline.size())
        << "room " << r;
    for (std::size_t k = 0; k < a.alert_timeline.size(); ++k) {
      ExpectSameEdge(a.alert_timeline[k], b.alert_timeline[k],
                     "room " + std::to_string(r) + " edge " +
                         std::to_string(k));
    }
  }
}

TEST(FleetEmulationTest, ControllerLogLinesCarrySimTime)
{
  // Fleet rooms run without a registry, yet every controller line a
  // lane logs carries its room's simulated time.
  std::mutex mutex;
  std::vector<std::string> lines;
  const obs::LogLevel level = obs::GetLogLevel();
  obs::SetLogLevel(obs::LogLevel::kInfo);
  obs::SetLogSink([&](obs::LogLevel, const std::string& line) {
    if (line.find(" controller: ") == std::string::npos)
      return;
    const std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(line);
  });
  FleetEmulation(SmallFleet(2, 2)).Run();
  obs::SetLogSink({});
  obs::SetLogLevel(level);

  EXPECT_FALSE(lines.empty());
  for (const std::string& line : lines)
    EXPECT_NE(line.find("] t="), std::string::npos) << line;
}

/** The ConfigError message @p build throws, or "" when it does not throw. */
template <typename Build>
std::string
ConfigErrorOf(Build build)
{
  try {
    build();
  } catch (const ConfigError& error) {
    return error.what();
  }
  return "";
}

TEST(FleetEmulationTest, RejectsNonFiniteOrTinyEpochInsteadOfHanging)
{
  // A 1e-300 s epoch advances the barrier clock in subnormal steps and
  // never reaches the timeline end; it must fail fast, naming the field,
  // before any room is built.
  for (const double epoch :
       {1e-300, 0.0, -5.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    FleetConfig config = SmallFleet(1, 1);
    config.epoch = Seconds(epoch);
    EXPECT_NE(ConfigErrorOf([&] { FleetEmulation fleet(config); })
                  .find("epoch"),
              std::string::npos)
        << "epoch " << epoch;
  }
  // The barrier cap is on end_at / epoch, not on the epoch alone.
  FleetConfig config = SmallFleet(1, 1);
  config.epoch = Seconds(config.room.end_at.value() / 2e6);
  EXPECT_NE(ConfigErrorOf([&] { FleetEmulation fleet(config); })
                .find("too short"),
            std::string::npos);
}

TEST(FleetEmulationTest, RejectsNonFiniteSubstationCapacity)
{
  // NaN or +inf capacity used to run with the check silently off
  // (utilization 0); a disabled feed is capacity <= 0, said explicitly.
  for (const double capacity : {std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()}) {
    FleetConfig config = SmallFleet(1, 1);
    config.substation.capacity = Watts(capacity);
    EXPECT_NE(ConfigErrorOf([&] { FleetEmulation fleet(config); })
                  .find("substation.capacity"),
              std::string::npos)
        << "capacity " << capacity;
  }
}

}  // namespace
}  // namespace flex::emulation
