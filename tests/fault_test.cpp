/**
 * @file
 * Tests for the deterministic fault-injection engine: plan scheduling,
 * envelope-respecting fuzzing, seed replay, each fault kind in
 * isolation, and the safety-invariant monitor's detectors — plus the
 * forensic-bundle dump/replay loop built on top of them.
 */
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "fault/fault_fuzzer.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/forensics.hpp"
#include "fault/invariant_monitor.hpp"
#include "fault/scenario.hpp"
#include "obs/flight_recorder.hpp"

namespace flex::fault {
namespace {

using telemetry::DeviceKind;

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
  const FuzzerConfig& config = fuzzer.config();
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
                shape.horizon.value() - config.settle_tail.value());
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
          EXPECT_LE(std::abs(event.magnitude), config.max_drift_rate);
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
          EXPECT_LE(event.magnitude, config.max_bus_delay.value());
          break;
        case FaultKind::kBusDuplicate:
          break;
        case FaultKind::kRackManagerTimeout:
          EXPECT_LT(event.target, shape.num_racks);
          EXPECT_LE(event.magnitude,
                    config.max_rack_manager_extra.value());
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
                failovers[i - 1].second + config.failover_gap.value() - 1e-9);
    }
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
  FaultScenario scenario({}, 1);
  FaultInjector injector(scenario.targets());
  FaultPlan bad_bus;
  bad_bus.Add(MakeEvent(1.0, FaultKind::kBusOutage, 7, 1.0));
  EXPECT_THROW(injector.Arm(bad_bus), ConfigError);
  FaultPlan bad_ups;
  bad_ups.Add(MakeEvent(1.0, FaultKind::kUpsFailover, 3, 1.0));
  EXPECT_THROW(injector.Arm(bad_ups), ConfigError);
  FaultPlan bad_time;
  bad_time.Add(MakeEvent(-1.0, FaultKind::kPollerCrash, 0, 1.0));
  EXPECT_THROW(injector.Arm(bad_time), ConfigError);
  EXPECT_EQ(injector.scheduled_count(), 0);
}

TEST(FaultInjectorTest, SchedulesBeginAndRepairPerDurationFault)
{
  FaultScenario scenario({}, 1);
  FaultInjector injector(scenario.targets());
  FaultPlan plan;
  plan.Add(MakeEvent(1.0, FaultKind::kPollerCrash, 0, 5.0));
  plan.Add(MakeEvent(2.0, FaultKind::kBusOutage, 0, 0.0));  // never repaired
  injector.Arm(plan);
  EXPECT_EQ(injector.scheduled_count(), 3);
  scenario.queue().RunUntil(Seconds(4.0));  // before the t=6 repair
  ASSERT_EQ(injector.executed_trace().size(), 2u);
  EXPECT_NE(injector.executed_trace()[0].find("begin"), std::string::npos);
  EXPECT_NE(injector.executed_trace()[0].find("poller_crash"),
            std::string::npos);
  EXPECT_NE(injector.executed_trace()[1].find("bus_outage"),
            std::string::npos);
  scenario.queue().RunUntil(Seconds(20.0));
  ASSERT_EQ(injector.executed_trace().size(), 3u);
  EXPECT_NE(injector.executed_trace()[2].find("repair"), std::string::npos);
  EXPECT_NE(injector.executed_trace()[2].find("poller_crash"),
            std::string::npos);
}

TEST(FaultInjectorTest, UpsFailoverTogglesAndRestores)
{
  FaultScenario scenario({}, 7);
  FaultInjector injector(scenario.targets());
  FaultPlan plan;
  plan.Add(MakeEvent(10.0, FaultKind::kUpsFailover, 1, 15.0));
  injector.Arm(plan);
  scenario.queue().RunUntil(Seconds(12.0));
  EXPECT_EQ(scenario.failed_ups(), 1);
  scenario.queue().RunUntil(Seconds(30.0));
  EXPECT_EQ(scenario.failed_ups(), -1);
}

TEST(FaultInjectorTest, RackManagerFaultsApplyAndRepair)
{
  FaultScenario scenario({}, 7);
  FaultInjector injector(scenario.targets());
  FaultPlan plan;
  plan.Add(MakeEvent(5.0, FaultKind::kRackManagerTimeout, 3, 10.0, 2.5));
  plan.Add(MakeEvent(5.0, FaultKind::kRackManagerUnreachable, 6, 10.0));
  injector.Arm(plan);
  scenario.queue().RunUntil(Seconds(8.0));
  EXPECT_NEAR(scenario.plane().rack(3).extra_latency().value(), 2.5, 1e-12);
  EXPECT_TRUE(scenario.plane().rack(6).unreachable());
  scenario.queue().RunUntil(Seconds(20.0));
  EXPECT_NEAR(scenario.plane().rack(3).extra_latency().value(), 0.0, 1e-12);
  EXPECT_FALSE(scenario.plane().rack(6).unreachable());
}

TEST(FaultInjectorTest, ControllerPauseSuspendsOneReplica)
{
  FaultScenario scenario({}, 7);
  InjectorTargets targets = scenario.targets();
  FaultInjector injector(targets);
  FaultPlan plan;
  plan.Add(MakeEvent(5.0, FaultKind::kControllerPause, 1, 8.0));
  injector.Arm(plan);
  scenario.queue().RunUntil(Seconds(6.0));
  EXPECT_FALSE(targets.controllers[0]->suspended());
  EXPECT_TRUE(targets.controllers[1]->suspended());
  scenario.queue().RunUntil(Seconds(14.0));
  EXPECT_FALSE(targets.controllers[1]->suspended());
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
    ScenarioConfig config;
    config.shape.horizon = Seconds(40.0);
    FaultScenario scenario(config, 11);
    FaultEvent event = MakeEvent(5.0, kind, 0, 20.0);
    if (kind == FaultKind::kMeterDrift)
      event.magnitude = 0.01;
    if (kind == FaultKind::kBusDelay)
      event.magnitude = 0.5;
    FaultPlan plan;
    plan.Add(event);
    const ScenarioReport report = scenario.Run(plan);
    EXPECT_GT(report.readings_delivered, 500u)
        << FaultKindName(kind) << " starved the pipeline";
    EXPECT_TRUE(report.violations.empty())
        << FaultKindName(kind) << ":\n"
        << report.violation_summary;
  }
}

// ---------------------------------------------------------------------------
// Seed replay: the tentpole determinism guarantee
// ---------------------------------------------------------------------------

TEST(SeedReplayTest, SameSeedReproducesIdenticalRun)
{
  const ScenarioConfig config;
  for (const std::uint64_t seed : {3ull, 17ull, 92ull}) {
    std::string trace_a;
    std::string trace_b;
    const ScenarioReport a = RunFuzzedScenario(config, seed, &trace_a);
    const ScenarioReport b = RunFuzzedScenario(config, seed, &trace_b);
    EXPECT_EQ(trace_a, trace_b) << "plan diverged for seed " << seed;
    EXPECT_EQ(a.fault_trace, b.fault_trace)
        << "interleaving diverged for seed " << seed;
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.readings_delivered, b.readings_delivered);
    EXPECT_EQ(a.throttle_commands, b.throttle_commands);
    EXPECT_EQ(a.shutdown_commands, b.shutdown_commands);
    EXPECT_EQ(a.restore_commands, b.restore_commands);
    EXPECT_DOUBLE_EQ(a.worst_overload_fraction, b.worst_overload_fraction);
  }
}

// ---------------------------------------------------------------------------
// InvariantMonitor detectors
// ---------------------------------------------------------------------------

TEST(InvariantMonitorTest, FlagsIllegalCapAndIllegalShutdown)
{
  FaultScenario scenario({}, 5);
  // Rack 3 is non-cap-able (pattern index % 4): capping it is illegal.
  scenario.plane().rack(3).Throttle(KiloWatts(25.0), [](bool) {});
  // Rack 1 is cap-able but not software-redundant: power-off is illegal.
  scenario.plane().rack(1).Shutdown([](bool) {});
  scenario.queue().RunUntil(Seconds(5.0));
  const auto& violations = scenario.monitor().violations();
  ASSERT_EQ(violations.size(), 2u) << scenario.monitor().Summary();
  EXPECT_EQ(violations[0].invariant, "illegal-action");
  EXPECT_EQ(violations[1].invariant, "illegal-action");
  EXPECT_NE(scenario.monitor().Summary().find("illegally"),
            std::string::npos);
}

TEST(InvariantMonitorTest, LegalActionsRaiseNoViolation)
{
  FaultScenario scenario({}, 5);
  scenario.plane().rack(1).Throttle(KiloWatts(25.0), [](bool) {});  // cap-able
  scenario.plane().rack(0).Shutdown([](bool) {});  // software-redundant
  scenario.queue().RunUntil(Seconds(5.0));
  EXPECT_TRUE(scenario.monitor().violations().empty())
      << scenario.monitor().Summary();
}

TEST(InvariantMonitorTest, DetectsMissedOverloadAndTripWhenUnmanaged)
{
  // Freeze utilization at the cap and suspend every replica: the
  // failover overload then persists unanswered, which must trip both
  // the missed-overload deadline and, later, the trip-curve bound.
  ScenarioConfig config;
  config.mean_utilization = 0.84;
  config.utilization_sigma = 0.0;
  config.min_utilization = 0.84;
  config.max_utilization = 0.84;
  config.utilization_jitter = 0.0;
  config.shape.horizon = Seconds(70.0);
  FaultScenario scenario(config, 13);
  for (online::FlexController* controller : scenario.targets().controllers)
    controller->SetSuspended(true);
  FaultPlan plan;
  plan.Add(MakeEvent(20.0, FaultKind::kUpsFailover, 0, 0.0));  // no repair
  const ScenarioReport report = scenario.Run(plan);
  // Survivors carry 1.5x their share: 12 racks * 50 kW * 0.84 / 2 = 252 kW
  // per 200 kW UPS.
  EXPECT_NEAR(report.worst_overload_fraction, 1.26, 0.01);
  std::set<std::string> kinds;
  for (const Violation& violation : report.violations)
    kinds.insert(violation.invariant);
  EXPECT_TRUE(kinds.count("missed-overload")) << report.violation_summary;
  EXPECT_TRUE(kinds.count("ups-trip")) << report.violation_summary;
}

TEST(InvariantMonitorTest, ManagedFailoverStaysViolationFree)
{
  // The same overload with live controllers must be answered in time:
  // zero violations and at least one corrective command.
  ScenarioConfig config;
  config.shape.horizon = Seconds(90.0);
  FaultScenario scenario(config, 21);
  FaultPlan plan;
  plan.Add(MakeEvent(20.0, FaultKind::kUpsFailover, 0, 14.0));
  const ScenarioReport report = scenario.Run(plan);
  EXPECT_GT(report.worst_overload_fraction, 1.0);
  EXPECT_TRUE(report.violations.empty()) << report.violation_summary;
  EXPECT_GT(report.throttle_commands + report.shutdown_commands, 0);
  EXPECT_GT(scenario.monitor().checks_run(), 500u);
}

// ---------------------------------------------------------------------------
// Forensic bundles: dump on violation, replay, divergence detection
// ---------------------------------------------------------------------------

/**
 * Utilization frozen at the cap plus an all-replica pause: the fault
 * plan itself induces the violation, so the recipe replays from the
 * persisted plan alone (unlike the monitor tests above, which suspend
 * controllers by hand).
 */
ScenarioConfig
InducedViolationConfig()
{
  ScenarioConfig config;
  config.mean_utilization = 0.84;
  config.utilization_sigma = 0.0;
  config.min_utilization = 0.84;
  config.max_utilization = 0.84;
  config.utilization_jitter = 0.0;
  config.shape.horizon = Seconds(70.0);
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

TEST(FaultForensicsTest, InducedViolationDumpsBundleAndReplaysExactly)
{
  const ScenarioConfig config = InducedViolationConfig();
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

  const ScenarioConfig config;
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

TEST(FaultForensicsTest, WideSeedBundleReplaysExactly)
{
  // 2^53 + 1 is the first seed a double cannot hold: the manifest must
  // hand the replay the recorded seed, not its nearest double.
  const std::uint64_t seed = (std::uint64_t{1} << 53) + 1;
  ForensicsOptions options;
  options.root_dir = ::testing::TempDir() + "fault-forensics-wide-seed";
  options.force_dump = true;

  const ScenarioConfig config;
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
