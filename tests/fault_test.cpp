/**
 * @file
 * Tests for the deterministic fault-injection engine: plan scheduling,
 * envelope-respecting fuzzing, seed replay, each fault kind in
 * isolation, and the safety-invariant monitor's detectors — plus the
 * forensic-bundle dump/replay loop built on top of them. Every run
 * drives the fuzz room (FuzzRoomConfig), a real emulation room.
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "emulation/room_emulation.hpp"
#include "fault/fault_fuzzer.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_run.hpp"
#include "fault/forensics.hpp"
#include "fault/invariant_monitor.hpp"
#include "obs/flight_recorder.hpp"

namespace flex::fault {
namespace {

using emulation::RoomEmulation;
using telemetry::DeviceKind;
using workload::Category;

/** The fuzz room for @p seed, ending at @p end_at. */
emulation::EmulationConfig
FuzzRoom(std::uint64_t seed, double end_at = 120.0)
{
  emulation::EmulationConfig config = FuzzRoomConfig();
  config.seed = seed;
  config.end_at = Seconds(end_at);
  return config;
}

/** An InvariantMonitor on @p room's ground truth, attached. */
std::unique_ptr<InvariantMonitor>
WatchRoom(RoomEmulation& room)
{
  auto monitor = std::make_unique<InvariantMonitor>(
      room.queue(), room.topology(), room.rack_categories(), room.plane(),
      room.ups_loads());
  monitor->Attach();
  return monitor;
}

/** The lowest-numbered rack of @p category; -1 when placement kept none. */
int
FirstRackOf(const RoomEmulation& room, Category category)
{
  const auto& categories = room.rack_categories();
  const auto it = std::find(categories.begin(), categories.end(), category);
  return it == categories.end() ? -1
                                : static_cast<int>(it - categories.begin());
}

FaultEvent
MakeEvent(double at, FaultKind kind, int target, double duration,
          double magnitude = 0.0)
{
  FaultEvent event;
  event.at = Seconds(at);
  event.kind = kind;
  event.target = target;
  event.magnitude = magnitude;
  event.duration = Seconds(duration);
  return event;
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, SortByTimeIsStableForEqualTimes)
{
  FaultPlan plan;
  plan.Add(MakeEvent(5.0, FaultKind::kPollerCrash, 0, 1.0));
  plan.Add(MakeEvent(2.0, FaultKind::kBusOutage, 1, 1.0));
  plan.Add(MakeEvent(5.0, FaultKind::kBusOutage, 0, 1.0));
  plan.Add(MakeEvent(2.0, FaultKind::kPollerCrash, 1, 1.0));
  plan.SortByTime();
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kBusOutage);
  EXPECT_EQ(plan.events()[0].target, 1);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kPollerCrash);
  EXPECT_EQ(plan.events()[1].target, 1);
  // Equal-time events keep insertion order (poller before bus at t=5).
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kPollerCrash);
  EXPECT_EQ(plan.events()[2].target, 0);
  EXPECT_EQ(plan.events()[3].kind, FaultKind::kBusOutage);
  EXPECT_EQ(plan.events()[3].target, 0);
}

TEST(FaultPlanTest, LastEndTimeSpansBeginPlusDuration)
{
  FaultPlan plan;
  EXPECT_NEAR(plan.LastEndTime().value(), 0.0, 1e-12);
  plan.Add(MakeEvent(10.0, FaultKind::kUpsFailover, 0, 30.0));
  plan.Add(MakeEvent(35.0, FaultKind::kPollerCrash, 0, 2.0));
  EXPECT_NEAR(plan.LastEndTime().value(), 40.0, 1e-12);
}

TEST(FaultPlanTest, DebugStringNamesEveryEvent)
{
  FaultPlan plan;
  plan.Add(MakeEvent(1.0, FaultKind::kUpsFailover, 2, 10.0));
  FaultEvent meter = MakeEvent(2.0, FaultKind::kMeterDrift, 4, 5.0, 0.01);
  meter.device_kind = DeviceKind::kRack;
  meter.meter_index = 1;
  plan.Add(meter);
  const std::string text = plan.DebugString();
  EXPECT_NE(text.find("ups_failover"), std::string::npos);
  EXPECT_NE(text.find("meter_drift"), std::string::npos);
  EXPECT_NE(text.find("rack=4 meter=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// FaultFuzzer: determinism and envelope
// ---------------------------------------------------------------------------

TEST(FaultFuzzerTest, SameSeedSamplesIdenticalPlan)
{
  const FaultFuzzer fuzzer{ScenarioShape{}};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    EXPECT_EQ(fuzzer.SamplePlan(seed).DebugString(),
              fuzzer.SamplePlan(seed).DebugString())
        << "seed " << seed;
  }
}

TEST(FaultFuzzerTest, DifferentSeedsSampleDifferentPlans)
{
  const FaultFuzzer fuzzer{ScenarioShape{}};
  std::set<std::string> plans;
  for (std::uint64_t seed = 0; seed < 20; ++seed)
    plans.insert(fuzzer.SamplePlan(seed).DebugString());
  EXPECT_GT(plans.size(), 15u);  // near-universal distinctness
}

TEST(FaultFuzzerTest, PlansStayInsideToleratedEnvelope)
{
  const ScenarioShape shape;
  const FaultFuzzer fuzzer{shape};
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const FaultPlan plan = fuzzer.SamplePlan(seed);
    std::vector<std::pair<double, double>> failovers;
    std::set<std::pair<int, int>> meter_devices;
    int pollers = 0;
    int outages = 0;
    int unreachable = 0;
    int pauses = 0;
    for (const FaultEvent& event : plan.events()) {
      EXPECT_GE(event.at.value(), 0.0);
      EXPECT_LE((event.at).value(),
                shape.horizon.value() - kSettleTail.value());
      switch (event.kind) {
        case FaultKind::kUpsFailover:
          EXPECT_LT(event.target, shape.num_ups);
          failovers.push_back({event.at.value(),
                               (event.at + event.duration).value()});
          break;
        case FaultKind::kMeterFailure:
        case FaultKind::kMeterStuck:
        case FaultKind::kMeterDrift:
          EXPECT_LT(event.meter_index, shape.meters_per_device);
          EXPECT_TRUE(
              meter_devices
                  .insert({static_cast<int>(event.device_kind), event.target})
                  .second)
              << "two meter faults on one device would break the quorum";
          EXPECT_LE(std::abs(event.magnitude), kMaxDriftRate);
          break;
        case FaultKind::kPollerCrash:
          EXPECT_LT(event.target, shape.num_pollers);
          ++pollers;
          break;
        case FaultKind::kBusOutage:
          EXPECT_LT(event.target, shape.num_buses);
          ++outages;
          break;
        case FaultKind::kBusDelay:
          EXPECT_LE(event.magnitude, kMaxBusDelay.value());
          break;
        case FaultKind::kBusDuplicate:
          break;
        case FaultKind::kRackManagerTimeout:
          EXPECT_LT(event.target, shape.num_racks);
          EXPECT_LE(event.magnitude, kMaxRackManagerExtra.value());
          break;
        case FaultKind::kRackManagerUnreachable:
          EXPECT_LT(event.target, shape.num_racks);
          ++unreachable;
          break;
        case FaultKind::kControllerPause:
          EXPECT_LT(event.target, shape.num_controllers);
          ++pauses;
          break;
      }
    }
    // Failovers never overlap: xN/y tolerates one failure at a time.
    std::sort(failovers.begin(), failovers.end());
    for (std::size_t i = 1; i < failovers.size(); ++i) {
      EXPECT_GE(failovers[i].first,
                failovers[i - 1].second + kFailoverGap.value() - 1e-9);
    }
    EXPECT_LE(failovers.size(), static_cast<std::size_t>(kMaxFailovers));
    EXPECT_LE(pollers, 1) << "one poller must survive";
    EXPECT_LE(outages, 1) << "one bus must survive";
    EXPECT_LE(unreachable, 1);
    EXPECT_LE(pauses, shape.num_controllers - 1);
  }
}

// ---------------------------------------------------------------------------
// FaultInjector: validation and single-fault application
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, RejectsOutOfRangeTargets)
{
  RoomEmulation room(FuzzRoom(1));
  FaultInjector injector(room);
  FaultPlan bad_bus;
  bad_bus.Add(MakeEvent(1.0, FaultKind::kBusOutage, 7, 1.0));
  EXPECT_THROW(injector.Arm(bad_bus), ConfigError);
  FaultPlan bad_ups;
  bad_ups.Add(MakeEvent(1.0, FaultKind::kUpsFailover, 3, 1.0));
  EXPECT_THROW(injector.Arm(bad_ups), ConfigError);
  FaultPlan bad_time;
  bad_time.Add(MakeEvent(-1.0, FaultKind::kPollerCrash, 0, 1.0));
  EXPECT_THROW(injector.Arm(bad_time), ConfigError);
  // A meter fault names its device by kind and index, and the room must
  // have that device: rejected at Arm, not when the fault begins.
  FaultEvent rack_meter = MakeEvent(30.0, FaultKind::kMeterFailure, 99, 1.0);
  rack_meter.device_kind = DeviceKind::kRack;
  FaultPlan bad_rack_meter;
  bad_rack_meter.Add(rack_meter);
  EXPECT_THROW(injector.Arm(bad_rack_meter), ConfigError);
  FaultPlan bad_ups_meter;
  bad_ups_meter.Add(MakeEvent(1.0, FaultKind::kMeterStuck, -1, 1.0));
  EXPECT_THROW(injector.Arm(bad_ups_meter), ConfigError);
  EXPECT_EQ(injector.scheduled_count(), 0);
}

TEST(FaultInjectorTest, RejectsNonFiniteFieldsInsteadOfHanging)
{
  // A bundle line whose magnitude overflows (strtod reads 1e999 as
  // +inf) would lag every delivery on the bus to +inf, a time the event
  // kernel cannot reach. Validation must reject it and name the field.
  const auto bundle_line = [](const std::string& magnitude) {
    return "{\"at\":5,\"kind\":" +
           std::to_string(static_cast<int>(FaultKind::kBusDelay)) +
           ",\"target\":0,\"device_kind\":0,\"meter_index\":0,"
           "\"magnitude\":" +
           magnitude + ",\"duration\":10}\n";
  };
  const auto error_of = [](const std::function<void()>& run) {
    try {
      run();
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlanJsonl(bundle_line("1e999"), &plan, &error))
      << error;
  ASSERT_TRUE(std::isinf(plan.events()[0].magnitude));
  EXPECT_NE(error_of([&] {
              RoomEmulation room(FuzzRoom(1));
              RunPlan(room, plan);
            }).find("'magnitude'"),
            std::string::npos);
  // The same bundle with a finite lag runs to the end.
  ASSERT_TRUE(ParseFaultPlanJsonl(bundle_line("2.5"), &plan, &error))
      << error;
  {
    RoomEmulation room(FuzzRoom(1));
    EXPECT_GT(RunPlan(room, plan).readings_delivered, 0u);
  }

  const double inf = std::numeric_limits<double>::infinity();
  RoomEmulation room(FuzzRoom(1));
  FaultInjector injector(room);
  FaultPlan late;
  late.Add(MakeEvent(inf, FaultKind::kPollerCrash, 0, 1.0));
  EXPECT_NE(error_of([&] { injector.Arm(late); }).find("'at'"),
            std::string::npos);
  FaultPlan endless;
  endless.Add(MakeEvent(1.0, FaultKind::kPollerCrash, 0, inf));
  EXPECT_NE(error_of([&] { injector.Arm(endless); }).find("'duration'"),
            std::string::npos);
  EXPECT_EQ(injector.scheduled_count(), 0);
}

TEST(FaultInjectorTest, SchedulesBeginAndRepairPerDurationFault)
{
  RoomEmulation room(FuzzRoom(1));
  FaultInjector injector(room);
  FaultPlan plan;
  plan.Add(MakeEvent(1.0, FaultKind::kPollerCrash, 0, 5.0));
  plan.Add(MakeEvent(2.0, FaultKind::kBusOutage, 0, 0.0));  // never repaired
  injector.Arm(plan);
  EXPECT_EQ(injector.scheduled_count(), 3);
  room.queue().RunUntil(Seconds(4.0));  // before the t=6 repair
  ASSERT_EQ(injector.executed_trace().size(), 2u);
  EXPECT_NE(injector.executed_trace()[0].find("begin"), std::string::npos);
  EXPECT_NE(injector.executed_trace()[0].find("poller_crash"),
            std::string::npos);
  EXPECT_NE(injector.executed_trace()[1].find("bus_outage"),
            std::string::npos);
  room.queue().RunUntil(Seconds(20.0));
  ASSERT_EQ(injector.executed_trace().size(), 3u);
  EXPECT_NE(injector.executed_trace()[2].find("repair"), std::string::npos);
  EXPECT_NE(injector.executed_trace()[2].find("poller_crash"),
            std::string::npos);
}

TEST(FaultInjectorTest, UpsFailoverTogglesAndRestores)
{
  // The failed UPS hands its load to the survivors and takes it back.
  RoomEmulation room(FuzzRoom(7));
  FaultInjector injector(room);
  FaultPlan plan;
  plan.Add(MakeEvent(10.0, FaultKind::kUpsFailover, 1, 15.0));
  injector.Arm(plan);
  const double normal = room.ups_loads()[1].value();
  ASSERT_GT(normal, 0.0);
  room.queue().RunUntil(Seconds(12.0));
  EXPECT_EQ(room.ups_loads()[1].value(), 0.0);
  room.queue().RunUntil(Seconds(30.0));
  EXPECT_EQ(room.ups_loads()[1].value(), normal);
}

TEST(FaultInjectorTest, InjectedFailoverRecordsTailLatencyInflation)
{
  // The fuzz room scripts no failover (failed_ups = -1), so its only
  // failover episode is the injected one: racks throttled during it must
  // show up in the report's p95 latency inflation.
  RoomEmulation room(FuzzRoom(21, 90.0));
  FaultPlan plan;
  plan.Add(MakeEvent(20.0, FaultKind::kUpsFailover, 0, 14.0));
  const FaultRunReport report = RunPlan(room, plan);
  ASSERT_GT(report.room.capable_capped_peak, 0);
  EXPECT_GT(report.room.p95_increase_mean, 0.0);
  EXPECT_GE(report.room.p95_increase_worst, report.room.p95_increase_mean);
}

TEST(FaultInjectorTest, RackManagerFaultsApplyAndRepair)
{
  RoomEmulation room(FuzzRoom(7));
  FaultInjector injector(room);
  FaultPlan plan;
  plan.Add(MakeEvent(5.0, FaultKind::kRackManagerTimeout, 3, 10.0, 2.5));
  plan.Add(MakeEvent(5.0, FaultKind::kRackManagerUnreachable, 6, 10.0));
  injector.Arm(plan);
  room.queue().RunUntil(Seconds(8.0));
  EXPECT_NEAR(room.plane().rack(3).extra_latency().value(), 2.5, 1e-12);
  EXPECT_TRUE(room.plane().rack(6).unreachable());
  room.queue().RunUntil(Seconds(20.0));
  EXPECT_NEAR(room.plane().rack(3).extra_latency().value(), 0.0, 1e-12);
  EXPECT_FALSE(room.plane().rack(6).unreachable());
}

TEST(FaultInjectorTest, ControllerPauseSuspendsOneReplica)
{
  RoomEmulation room(FuzzRoom(7));
  FaultInjector injector(room);
  FaultPlan plan;
  plan.Add(MakeEvent(5.0, FaultKind::kControllerPause, 1, 8.0));
  injector.Arm(plan);
  room.queue().RunUntil(Seconds(6.0));
  EXPECT_FALSE(room.controllers()[0]->suspended());
  EXPECT_TRUE(room.controllers()[1]->suspended());
  room.queue().RunUntil(Seconds(14.0));
  EXPECT_FALSE(room.controllers()[1]->suspended());
}

TEST(FaultInjectorTest, TelemetrySurvivesEachPipelineFaultInIsolation)
{
  // One faulty stage at a time must never stop the data: redundant
  // meters, pollers, and buses are exactly the paper's no-SPOF claim.
  const FaultKind kinds[] = {
      FaultKind::kMeterFailure, FaultKind::kMeterStuck,
      FaultKind::kMeterDrift,   FaultKind::kPollerCrash,
      FaultKind::kBusOutage,    FaultKind::kBusDelay,
      FaultKind::kBusDuplicate,
  };
  for (const FaultKind kind : kinds) {
    RoomEmulation room(FuzzRoom(11, 40.0));
    FaultEvent event = MakeEvent(5.0, kind, 0, 20.0);
    if (kind == FaultKind::kMeterDrift)
      event.magnitude = 0.01;
    if (kind == FaultKind::kBusDelay)
      event.magnitude = 0.5;
    FaultPlan plan;
    plan.Add(event);
    const FaultRunReport report = RunPlan(room, plan);
    EXPECT_GT(report.readings_delivered, 500u)
        << FaultKindName(kind) << " starved the pipeline";
    EXPECT_TRUE(report.violations.empty())
        << FaultKindName(kind) << ":\n"
        << report.violation_summary;
  }
}

TEST(FaultInjectorTest, FaultedRunDeliversPinnedReadingsAndLatencies)
{
  // Every reading one seeded faulted run delivers — device, value bits,
  // sample and delivery instants, bus, poller — and the multiset of its
  // action latencies, pinned on the fuzz room. Faults hit failed, stuck
  // and drifting meters of both device kinds and slow and unreachable
  // rack managers, while a UPS failover makes the controllers act.
  RoomEmulation room(FuzzRoom(2021, 90.0));
  Fnv1a readings;
  std::uint64_t delivered = 0;
  room.pipeline().Subscribe([&](const telemetry::ReadingBatch& batch) {
    for (const telemetry::BatchReading& r : batch.readings) {
      readings.AddI64(static_cast<int>(batch.kind));
      readings.AddI64(r.index);
      readings.AddDouble(r.value.value());
      readings.AddDouble(batch.sampled_at.value());
      readings.AddDouble(batch.delivered_at.value());
      readings.AddI64(batch.bus);
      readings.AddI64(batch.poller);
      ++delivered;
    }
  });
  FaultPlan plan;
  FaultEvent meter = MakeEvent(13.0, FaultKind::kMeterFailure, 4, 30.0);
  meter.device_kind = DeviceKind::kRack;
  meter.meter_index = 1;
  plan.Add(meter);
  meter = MakeEvent(14.0, FaultKind::kMeterStuck, 1, 25.0);
  meter.meter_index = 2;
  plan.Add(meter);
  meter = MakeEvent(15.0, FaultKind::kMeterDrift, 7, 40.0, 0.02);
  meter.device_kind = DeviceKind::kRack;
  plan.Add(meter);
  meter = MakeEvent(16.0, FaultKind::kMeterDrift, 0, 20.0, -0.01);
  meter.meter_index = 1;
  plan.Add(meter);
  plan.Add(MakeEvent(18.0, FaultKind::kRackManagerTimeout, 3, 30.0, 1.5));
  plan.Add(MakeEvent(18.0, FaultKind::kRackManagerUnreachable, 9, 30.0));
  plan.Add(MakeEvent(20.0, FaultKind::kUpsFailover, 0, 16.0));
  const FaultRunReport report = RunPlan(room, plan);

  std::vector<double> latencies = room.plane().action_latencies();
  std::sort(latencies.begin(), latencies.end());
  Fnv1a actions;
  for (const double latency : latencies)
    actions.AddDouble(latency);
  EXPECT_GT(report.room.throttle_commands + report.room.shutdown_commands, 0);
  EXPECT_EQ(delivered, report.readings_delivered);
  EXPECT_EQ(delivered, 2546u);
  EXPECT_EQ(readings.value(), 0x5a0db59c7194d391ull);
  EXPECT_EQ(latencies.size(), 12u);
  EXPECT_EQ(actions.value(), 0x223234fb063f899aull);
}

// ---------------------------------------------------------------------------
// Seed replay: the tentpole determinism guarantee
// ---------------------------------------------------------------------------

TEST(SeedReplayTest, SameSeedReproducesIdenticalRun)
{
  const emulation::EmulationConfig config = FuzzRoomConfig();
  for (const std::uint64_t seed : {3ull, 17ull, 92ull}) {
    std::string trace_a;
    std::string trace_b;
    const FaultRunReport a = RunFuzzedScenario(config, seed, &trace_a);
    const FaultRunReport b = RunFuzzedScenario(config, seed, &trace_b);
    EXPECT_EQ(trace_a, trace_b) << "plan diverged for seed " << seed;
    EXPECT_EQ(a.fault_trace, b.fault_trace)
        << "interleaving diverged for seed " << seed;
    EXPECT_EQ(a.room.events_executed, b.room.events_executed);
    EXPECT_EQ(a.readings_delivered, b.readings_delivered);
    EXPECT_EQ(a.room.throttle_commands, b.room.throttle_commands);
    EXPECT_EQ(a.room.shutdown_commands, b.room.shutdown_commands);
    EXPECT_EQ(a.restore_commands, b.restore_commands);
    EXPECT_DOUBLE_EQ(a.room.worst_overload_fraction,
                     b.room.worst_overload_fraction);
  }
}

TEST(RunFuzzSweepTest, SlotsMatchPerSeedRunsAtOneTwoAndSharedLanes)
{
  // The lane contract: whatever lanes run it, slot i of the sweep is the
  // report of RunFuzzedScenario(config, first_seed + i).
  const emulation::EmulationConfig config = FuzzRoomConfig();
  constexpr std::uint64_t kFirstSeed = 100;
  constexpr int kCount = 6;
  std::vector<FaultRunReport> expected;
  std::vector<std::string> expected_traces;
  for (int i = 0; i < kCount; ++i) {
    std::string trace;
    expected.push_back(RunFuzzedScenario(
        config, kFirstSeed + static_cast<std::uint64_t>(i), &trace));
    expected_traces.push_back(std::move(trace));
  }

  for (const int threads : {1, 2, 0}) {
    std::vector<std::string> traces;
    const std::vector<FaultRunReport> reports =
        RunFuzzSweep(config, kFirstSeed, kCount, threads, &traces);
    ASSERT_EQ(reports.size(), expected.size()) << threads << " threads";
    ASSERT_EQ(traces.size(), expected_traces.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const FaultRunReport& a = expected[i];
      const FaultRunReport& b = reports[i];
      SCOPED_TRACE("threads " + std::to_string(threads) + ", slot " +
                   std::to_string(i));
      EXPECT_EQ(a.room.events_executed, b.room.events_executed);
      EXPECT_EQ(a.readings_delivered, b.readings_delivered);
      EXPECT_EQ(a.room.overdraw_events, b.room.overdraw_events);
      EXPECT_EQ(a.room.throttle_commands, b.room.throttle_commands);
      EXPECT_EQ(a.room.shutdown_commands, b.room.shutdown_commands);
      EXPECT_EQ(a.restore_commands, b.restore_commands);
      EXPECT_EQ(a.uncap_commands, b.uncap_commands);
      EXPECT_EQ(a.failed_commands, b.failed_commands);
      EXPECT_EQ(a.room.worst_overload_fraction,
                b.room.worst_overload_fraction);
      EXPECT_EQ(a.room.alert_fingerprint, b.room.alert_fingerprint);
      EXPECT_EQ(a.room.store_fingerprint, b.room.store_fingerprint);
      ASSERT_EQ(a.violations.size(), b.violations.size());
      for (std::size_t v = 0; v < a.violations.size(); ++v) {
        EXPECT_EQ(a.violations[v].at, b.violations[v].at);
        EXPECT_EQ(a.violations[v].invariant, b.violations[v].invariant);
        EXPECT_EQ(a.violations[v].message, b.violations[v].message);
      }
      EXPECT_EQ(a.violation_summary, b.violation_summary);
      EXPECT_EQ(a.fault_trace, b.fault_trace);
      EXPECT_EQ(expected_traces[i], traces[i]);
    }
  }
  EXPECT_THROW(RunFuzzSweep(config, kFirstSeed, kCount, -1), ConfigError);
}

// ---------------------------------------------------------------------------
// InvariantMonitor detectors
// ---------------------------------------------------------------------------

TEST(InvariantMonitorTest, FlagsIllegalCapAndIllegalShutdown)
{
  RoomEmulation room(FuzzRoom(5));
  const auto monitor = WatchRoom(room);
  const int noncap = FirstRackOf(room, Category::kNonRedundantNonCapable);
  const int capable = FirstRackOf(room, Category::kNonRedundantCapable);
  ASSERT_GE(noncap, 0);
  ASSERT_GE(capable, 0);
  // Capping a non-cap-able rack is illegal.
  room.plane().rack(noncap).Throttle(KiloWatts(25.0), [](bool) {});
  // A cap-able rack is not software-redundant: power-off is illegal.
  room.plane().rack(capable).Shutdown([](bool) {});
  room.queue().RunUntil(Seconds(5.0));
  const auto& violations = monitor->violations();
  ASSERT_EQ(violations.size(), 2u) << monitor->Summary();
  EXPECT_EQ(violations[0].invariant, "illegal-action");
  EXPECT_EQ(violations[1].invariant, "illegal-action");
  EXPECT_NE(monitor->Summary().find("illegally"), std::string::npos);
}

TEST(InvariantMonitorTest, LegalActionsRaiseNoViolation)
{
  RoomEmulation room(FuzzRoom(5));
  const auto monitor = WatchRoom(room);
  const int capable = FirstRackOf(room, Category::kNonRedundantCapable);
  const int sr = FirstRackOf(room, Category::kSoftwareRedundant);
  ASSERT_GE(capable, 0);
  ASSERT_GE(sr, 0);
  room.plane().rack(capable).Throttle(KiloWatts(25.0), [](bool) {});
  room.plane().rack(sr).Shutdown([](bool) {});
  room.queue().RunUntil(Seconds(5.0));
  EXPECT_TRUE(monitor->violations().empty()) << monitor->Summary();
}

TEST(InvariantMonitorTest, DetectsMissedOverloadAndTripWhenUnmanaged)
{
  // Suspend every replica: the failover overload then persists
  // unanswered, which must trip both the missed-overload deadline and,
  // later, the trip-curve bound.
  RoomEmulation room(FuzzRoom(13, 70.0));
  for (const auto& controller : room.controllers())
    controller->SetSuspended(true);
  FaultPlan plan;
  plan.Add(MakeEvent(20.0, FaultKind::kUpsFailover, 0, 0.0));  // no repair
  const FaultRunReport report = RunPlan(room, plan);
  EXPECT_GT(report.room.worst_overload_fraction, 1.0);
  // The monitor and the room judge the same load trajectory.
  EXPECT_TRUE(report.room.safety_violated);
  std::set<std::string> kinds;
  for (const Violation& violation : report.violations)
    kinds.insert(violation.invariant);
  EXPECT_TRUE(kinds.count("missed-overload")) << report.violation_summary;
  EXPECT_TRUE(kinds.count("ups-trip")) << report.violation_summary;
}

TEST(InvariantMonitorTest, CatchesATripThatEndsBetweenChecks)
{
  // UPS 0 carries 133% from t = 1 s to t = 12 s and nothing else happens,
  // so the monitor checks only at the two load changes. The 10 s
  // tolerance ran out at t = 11 s, between them.
  sim::EventQueue queue;
  const power::RoomTopology topology(power::RoomConfig::EmulationRoom());
  const actuation::ActuationPlane plane(queue, 4, {}, 1);
  const Watts rated = topology.UpsCapacity(0);
  std::vector<Watts> loads(static_cast<std::size_t>(topology.NumUpses()),
                           rated * 0.5);
  InvariantMonitor monitor(
      queue, topology,
      std::vector<workload::Category>(4,
                                      workload::Category::kNonRedundantCapable),
      plane, loads);
  monitor.Attach();
  queue.ScheduleAt(Seconds(1.0), [&] { loads[0] = rated * 1.33; });
  queue.ScheduleAt(Seconds(12.0), [&] { loads[0] = rated * 0.5; });
  queue.RunUntil(Seconds(20.0));

  EXPECT_EQ(monitor.checks_run(), 2u);
  ASSERT_EQ(monitor.violations().size(), 1u) << monitor.Summary();
  EXPECT_EQ(monitor.violations()[0].invariant, "ups-trip");
  EXPECT_NEAR(monitor.violations()[0].at.value(), 11.0, 1e-9);
  EXPECT_NEAR(monitor.worst_overload_fraction(), 1.33, 1e-12);
}

TEST(InvariantMonitorTest, ManagedFailoverStaysViolationFree)
{
  // The same overload with live controllers must be answered in time:
  // zero violations and at least one corrective command.
  RoomEmulation room(FuzzRoom(21, 90.0));
  FaultPlan plan;
  plan.Add(MakeEvent(20.0, FaultKind::kUpsFailover, 0, 14.0));
  const FaultRunReport report = RunPlan(room, plan);
  EXPECT_GT(report.room.worst_overload_fraction, 1.0);
  EXPECT_TRUE(report.violations.empty()) << report.violation_summary;
  EXPECT_FALSE(report.room.safety_violated);
  // Time to safe runs from the injected failover edge at t = 20 s, and
  // the room is safe again before the UPS comes back.
  EXPECT_GT(report.room.time_to_safe_seconds, 0.0);
  EXPECT_LT(report.room.time_to_safe_seconds, 14.0);
  EXPECT_GT(report.room.throttle_commands + report.room.shutdown_commands, 0);
  EXPECT_GT(report.monitor_checks, 500u);
}

// ---------------------------------------------------------------------------
// Forensic bundles: dump on violation, replay, divergence detection
// ---------------------------------------------------------------------------

/**
 * A 70 s fuzz room under an all-replica pause: the fault plan itself
 * induces the violation, so the recipe replays from the persisted plan
 * alone (unlike the monitor tests above, which suspend controllers by
 * hand).
 */
emulation::EmulationConfig
InducedViolationConfig()
{
  emulation::EmulationConfig config = FuzzRoomConfig();
  config.end_at = Seconds(70.0);
  return config;
}

FaultPlan
InducedViolationPlan()
{
  FaultPlan plan;
  // Pause both replicas for the whole run (duration 0 = never repaired),
  // then fail over a UPS: the overload persists unanswered.
  plan.Add(MakeEvent(0.5, FaultKind::kControllerPause, 0, 0.0));
  plan.Add(MakeEvent(0.5, FaultKind::kControllerPause, 1, 0.0));
  plan.Add(MakeEvent(20.0, FaultKind::kUpsFailover, 0, 0.0));
  return plan;
}

TEST(FaultForensicsTest, PlanJsonlRoundTripIsExact)
{
  FaultPlan plan;
  plan.Add(MakeEvent(81.16920958214399, FaultKind::kUpsFailover, 1,
                     14.000000000000002));
  plan.Add(MakeEvent(12.25, FaultKind::kBusDelay, 0, 30.0, 0.75));
  FaultEvent meter = MakeEvent(3.5, FaultKind::kMeterDrift, 4, 60.0, 0.01);
  meter.device_kind = DeviceKind::kRack;
  meter.meter_index = 1;
  plan.Add(meter);

  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(ParseFaultPlanJsonl(FaultPlanToJsonl(plan), &parsed, &error))
      << error;
  ASSERT_EQ(parsed.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const FaultEvent& a = plan.events()[i];
    const FaultEvent& b = parsed.events()[i];
    // Bit-exact: one LSB of drift in a fault time walks the replay off
    // the recorded timeline.
    EXPECT_EQ(a.at.value(), b.at.value());
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.device_kind, b.device_kind);
    EXPECT_EQ(a.meter_index, b.meter_index);
    EXPECT_EQ(a.magnitude, b.magnitude);
    EXPECT_EQ(a.duration.value(), b.duration.value());
  }
}

TEST(FaultForensicsTest, ParseRejectsUnknownDeviceKind)
{
  // Bundle files come from outside the program: a device kind that is
  // neither a UPS (0) nor a rack (1) must not replay as some other fault.
  const auto meter_line = [](int device_kind) {
    return "{\"at\":5,\"kind\":" +
           std::to_string(static_cast<int>(FaultKind::kMeterFailure)) +
           ",\"target\":0,\"device_kind\":" + std::to_string(device_kind) +
           ",\"meter_index\":0,\"magnitude\":0,\"duration\":10}\n";
  };
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlanJsonl(meter_line(0) + meter_line(1), &plan, &error))
      << error;
  EXPECT_EQ(plan.events()[1].device_kind, DeviceKind::kRack);
  for (const int device_kind : {7, -3}) {
    EXPECT_FALSE(
        ParseFaultPlanJsonl(meter_line(0) + meter_line(device_kind), &plan,
                            &error))
        << "device_kind " << device_kind << " was accepted";
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  }
}

TEST(FaultForensicsTest, InducedViolationDumpsBundleAndReplaysExactly)
{
  const emulation::EmulationConfig config = InducedViolationConfig();
  ForensicsOptions options;
  options.root_dir = ::testing::TempDir() + "fault-forensics";

  const RecordedRun run =
      RunRecordedPlan(config, 13, InducedViolationPlan(), options);
  ASSERT_FALSE(run.report.violations.empty())
      << "recipe no longer induces a violation";
  EXPECT_TRUE(run.dump_error.empty()) << run.dump_error;
  ASSERT_FALSE(run.bundle_dir.empty()) << "violation did not trigger a dump";
  EXPECT_FALSE(run.records.empty());

  const ReplayReport replay = ReplayBundle(run.bundle_dir, config);
  ASSERT_TRUE(replay.loaded) << replay.error;
  EXPECT_EQ(replay.manifest.trigger, "invariant-violation");
  EXPECT_TRUE(replay.manifest.replayable);
  EXPECT_GT(replay.compared, 0u);
  EXPECT_FALSE(replay.divergence.has_value())
      << replay.divergence->Summary();
  // Same seed, same plan: the replay reproduces the identical failure.
  EXPECT_EQ(replay.report.violation_summary, run.report.violation_summary);
  EXPECT_EQ(replay.report.violations.size(), run.report.violations.size());
}

TEST(FaultForensicsTest, PerturbedBundleRecordIsReportedAsDivergence)
{
  ForensicsOptions options;
  options.root_dir = ::testing::TempDir() + "fault-forensics-perturbed";
  options.force_dump = true;

  const emulation::EmulationConfig config = FuzzRoomConfig();
  const RecordedRun run = RunRecordedScenario(config, 42, options);
  ASSERT_FALSE(run.bundle_dir.empty()) << run.dump_error;

  // Corrupt one mid-timeline record's value in events.jsonl.
  const std::string events_path = run.bundle_dir + "/events.jsonl";
  std::vector<obs::FlightRecord> records;
  {
    std::ifstream in(events_path);
    std::ostringstream raw;
    raw << in.rdbuf();
    std::string error;
    ASSERT_TRUE(obs::ParseRecordsJsonl(raw.str(), &records, &error)) << error;
  }
  ASSERT_GT(records.size(), 2u);
  const std::size_t victim = records.size() / 2;
  records[victim].value += 1.0;
  {
    std::ofstream out(events_path, std::ios::trunc);
    out << obs::RecordsToJsonl(records);
  }

  const ReplayReport replay = ReplayBundle(run.bundle_dir, config);
  ASSERT_TRUE(replay.loaded) << replay.error;
  ASSERT_TRUE(replay.divergence.has_value())
      << "perturbed record went undetected";
  EXPECT_EQ(replay.divergence->sequence, records[victim].sequence);
  EXPECT_EQ(replay.divergence->field, "value");
}

TEST(FaultForensicsTest, BundleOfAnotherRoomIsRefusedNotDiverged)
{
  // A bundle of the paper's room, 260 s long, replayed on the 120 s fuzz
  // room would diverge at once and read as a determinism failure; the
  // replay must refuse it and name both rooms' end times.
  emulation::EmulationConfig paper_room;
  paper_room.setup_duration = Seconds(30.0);
  paper_room.failover_at = Seconds(120.0);
  paper_room.restore_at = Seconds(200.0);
  paper_room.end_at = Seconds(260.0);
  paper_room.placement_solve_seconds = 1e9;
  paper_room.placement_max_nodes = 2000;
  paper_room.alerts.enabled = true;
  ForensicsOptions options;
  options.root_dir = ::testing::TempDir() + "fault-forensics-other-room";
  options.force_dump = true;
  const RecordedRun run = RunRecordedPlan(paper_room, 77, FaultPlan(), options);
  ASSERT_FALSE(run.bundle_dir.empty()) << run.dump_error;

  const ReplayReport replay = ReplayBundle(run.bundle_dir, FuzzRoomConfig());
  EXPECT_FALSE(replay.loaded);
  EXPECT_FALSE(replay.divergence.has_value());
  EXPECT_NE(replay.error.find("260"), std::string::npos) << replay.error;
  EXPECT_NE(replay.error.find("120"), std::string::npos) << replay.error;
}

TEST(FaultForensicsTest, WideSeedBundleReplaysExactly)
{
  // 2^53 + 1 is the first seed a double cannot hold: the manifest must
  // hand the replay the recorded seed, not its nearest double.
  const std::uint64_t seed = (std::uint64_t{1} << 53) + 1;
  ForensicsOptions options;
  options.root_dir = ::testing::TempDir() + "fault-forensics-wide-seed";
  options.force_dump = true;

  const emulation::EmulationConfig config = FuzzRoomConfig();
  const RecordedRun run = RunRecordedScenario(config, seed, options);
  ASSERT_FALSE(run.bundle_dir.empty()) << run.dump_error;

  const ReplayReport replay = ReplayBundle(run.bundle_dir, config);
  ASSERT_TRUE(replay.loaded) << replay.error;
  EXPECT_EQ(replay.manifest.seed, seed);
  EXPECT_GT(replay.compared, 0u);
  EXPECT_FALSE(replay.divergence.has_value())
      << replay.divergence->Summary();
}

}  // namespace
}  // namespace flex::fault
