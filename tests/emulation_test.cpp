/**
 * @file
 * Tests for the emulation module: workload models and a shortened
 * end-to-end room emulation (the full Section V-C run lives in
 * bench_end_to_end).
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "emulation/room_emulation.hpp"
#include "emulation/sweep.hpp"
#include "emulation/workload_model.hpp"
#include "obs/log.hpp"
#include "obs/observability.hpp"

namespace flex::emulation {
namespace {

TEST(OuProcessTest, StaysWithinBounds)
{
  OuProcessConfig config;
  config.min = 0.4;
  config.max = 0.9;
  const OuProcess process(config);
  Rng rng(1);
  double value = process.Clamp(0.8);
  for (int i = 0; i < 5000; ++i) {
    value = process.Step(value, Seconds(1.0), rng);
    EXPECT_GE(value, 0.4);
    EXPECT_LE(value, 0.9);
  }
}

TEST(OuProcessTest, RevertsTowardTheMean)
{
  OuProcessConfig config;
  config.mean = 0.8;
  config.volatility = 0.0;  // deterministic decay
  config.reversion_rate = 0.1;
  const OuProcess process(config);
  Rng rng(2);
  double previous = process.Clamp(0.5);
  for (int i = 0; i < 50; ++i) {
    const double value = process.Step(previous, Seconds(1.0), rng);
    EXPECT_GE(value, previous - 1e-12);
    previous = value;
  }
  EXPECT_NEAR(previous, 0.8, 0.01);
}

TEST(OuProcessTest, LongRunAverageNearMean)
{
  OuProcessConfig config;
  config.mean = 0.75;
  const OuProcess process(config);
  Rng rng(3);
  double value = process.Clamp(0.75);
  double sum = 0.0;
  const int steps = 20000;
  for (int i = 0; i < steps; ++i) {
    value = process.Step(value, Seconds(1.0), rng);
    sum += value;
  }
  EXPECT_NEAR(sum / steps, 0.75, 0.05);
}

TEST(OuProcessTest, ClampsInitialValueAndValidates)
{
  OuProcessConfig config;
  config.min = 0.4;
  config.max = 0.9;
  EXPECT_NEAR(OuProcess(config).Clamp(2.0), 0.9, 1e-12);
  EXPECT_NEAR(OuProcess(config).Clamp(0.1), 0.4, 1e-12);
  config.min = 1.0;
  config.max = 0.0;
  EXPECT_THROW(OuProcess{config}, ConfigError);
}

TEST(LatencyModelTest, NoSlowdownMeansNoInflation)
{
  const LatencyModel model(0.5);
  EXPECT_NEAR(model.P95Factor(1.0), 1.0, 1e-12);
}

TEST(LatencyModelTest, InflationGrowsAsSpeedDrops)
{
  const LatencyModel model(0.5);
  double previous = model.P95Factor(1.0);
  for (double speed = 0.95; speed > 0.55; speed -= 0.05) {
    const double factor = model.P95Factor(speed);
    EXPECT_GT(factor, previous);
    previous = factor;
  }
}

TEST(LatencyModelTest, SaturatesNearQueueCollapse)
{
  const LatencyModel model(0.5);
  EXPECT_NEAR(model.P95Factor(0.5), 50.0, 1e-9);
  EXPECT_NEAR(model.P95Factor(0.2), 50.0, 1e-9);
}

TEST(LatencyModelTest, SpeedUnderCap)
{
  EXPECT_NEAR(LatencyModel::SpeedUnderCap(KiloWatts(10.0), KiloWatts(8.5)),
              0.85, 1e-12);
  // Demand below the cap: full speed.
  EXPECT_NEAR(LatencyModel::SpeedUnderCap(KiloWatts(8.0), KiloWatts(8.5)),
              1.0, 1e-12);
  EXPECT_NEAR(LatencyModel::SpeedUnderCap(Watts(0.0), KiloWatts(8.5)), 1.0,
              1e-12);
}

TEST(LatencyModelTest, RejectsBadInputs)
{
  EXPECT_THROW(LatencyModel(0.0), ConfigError);
  EXPECT_THROW(LatencyModel(1.0), ConfigError);
  const LatencyModel model(0.5);
  EXPECT_THROW(model.P95Factor(0.0), ConfigError);
}

/** A compressed end-to-end run: same stages, shorter timeline. */
TEST(RoomEmulationTest, ShortEndToEndRunReproducesTheStages)
{
  EmulationConfig config;
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(120.0);
  config.restore_at = Seconds(240.0);
  config.end_at = Seconds(360.0);
  config.controller.release_delay = Seconds(20.0);
  config.seed = 7;

  RoomEmulation emulation(config);
  const EmulationReport report = emulation.Run();

  // The room placed a realistic number of racks.
  EXPECT_GT(report.total_racks, 250);
  EXPECT_GT(report.sr_racks, 0);
  EXPECT_GT(report.capable_racks, 0);
  EXPECT_GT(report.noncap_racks, 0);

  // Overdraw was detected and corrected within the UPS tolerance.
  EXPECT_GT(report.overdraw_events, 0);
  EXPECT_FALSE(report.safety_violated);
  EXPECT_GT(report.time_to_safe_seconds, 0.0);
  EXPECT_LT(report.time_to_safe_seconds, 10.0);  // the paper's budget

  // Corrective actions hit the right categories and nothing else.
  EXPECT_GT(report.sr_shutdown_peak + report.capable_capped_peak, 0);
  EXPECT_EQ(report.noncap_acted, 0);

  // Telemetry stayed within the paper's production envelope.
  EXPECT_GT(report.data_latency_p999, 0.0);
  EXPECT_LT(report.data_latency_p999, 1.5);

  // Batteries rode through the overload without exhausting.
  EXPECT_FALSE(report.battery_tripped);
  EXPECT_GT(report.min_battery_state_of_charge, 0.0);

  // The software-redundant service was notified, scaled out in the
  // other AZ, and never fought the controller with local restarts.
  if (report.sr_shutdown_peak > 0) {
    EXPECT_GT(report.notifications_published, 0);
    EXPECT_GE(report.sr_capacity_after_scaleout,
              report.sr_capacity_min_fraction);
  }
  EXPECT_EQ(report.sr_inhibited_auto_recoveries, 0);

  // The series covers the whole timeline and shows the failover dip.
  ASSERT_FALSE(report.series.empty());
  EXPECT_NEAR(report.series.back().t_seconds, 360.0, 10.0);
  bool saw_failed_ups = false;
  for (const EmulationSample& s : report.series) {
    if (s.t_seconds > 125.0 && s.t_seconds < 235.0 &&
        s.ups_mw[static_cast<std::size_t>(config.failed_ups)] < 0.01)
      saw_failed_ups = true;
  }
  EXPECT_TRUE(saw_failed_ups);
}

TEST(RoomEmulationTest, ActionsAreReleasedAfterRestore)
{
  EmulationConfig config;
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(120.0);
  config.restore_at = Seconds(200.0);
  config.end_at = Seconds(400.0);
  config.controller.release_delay = Seconds(15.0);
  config.seed = 11;

  RoomEmulation emulation(config);
  const EmulationReport report = emulation.Run();
  ASSERT_FALSE(report.series.empty());
  const EmulationSample& last = report.series.back();
  EXPECT_EQ(last.racks_capped, 0);
  EXPECT_EQ(last.racks_off, 0);
}

TEST(RoomEmulationTest, SurvivesDegradedTelemetryDuringFailover)
{
  // One poller, one bus, and one physical meter of every UPS are dead
  // for the whole run: the redundant pipeline still feeds the
  // controllers and the room is still saved within the budget.
  EmulationConfig config;
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(120.0);
  config.restore_at = Seconds(240.0);
  config.end_at = Seconds(300.0);
  config.seed = 21;

  RoomEmulation emulation(config);
  emulation.pipeline().SetPollerFailed(0, true);
  emulation.pipeline().SetBusFailed(1, true);
  for (int u = 0; u < emulation.topology().NumUpses(); ++u) {
    emulation.pipeline().SetMeterFailed(
        {telemetry::DeviceKind::kUps, u}, 0, true);
  }

  const EmulationReport report = emulation.Run();
  EXPECT_GT(report.overdraw_events, 0);
  EXPECT_FALSE(report.safety_violated);
  EXPECT_FALSE(report.battery_tripped);
  EXPECT_GT(report.time_to_safe_seconds, 0.0);
  EXPECT_LT(report.time_to_safe_seconds, 10.0);
}

/** The room is symmetric: any UPS can be the one that fails. */
class FailedUpsSweepTest : public ::testing::TestWithParam<int> {
};

TEST_P(FailedUpsSweepTest, AnySingleUpsFailureIsHandled)
{
  EmulationConfig config;
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(120.0);
  config.restore_at = Seconds(200.0);
  config.end_at = Seconds(240.0);
  config.failed_ups = GetParam();
  config.seed = 100 + static_cast<std::uint64_t>(GetParam());

  RoomEmulation emulation(config);
  const EmulationReport report = emulation.Run();
  EXPECT_GT(report.overdraw_events, 0);
  EXPECT_FALSE(report.safety_violated);
  EXPECT_FALSE(report.battery_tripped);
  EXPECT_LT(report.time_to_safe_seconds, 10.0);
  EXPECT_EQ(report.noncap_acted, 0);
}

INSTANTIATE_TEST_SUITE_P(AllUpses, FailedUpsSweepTest,
                         ::testing::Values(0, 1, 2, 3));

/** Shared short timeline for the engine-mode comparisons below. */
EmulationConfig
ShortTimelineConfig(std::uint64_t seed)
{
  EmulationConfig config;
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(120.0);
  config.restore_at = Seconds(200.0);
  config.end_at = Seconds(260.0);
  config.seed = seed;
  // Node-budgeted placement: several tests build the same room twice
  // and compare runs sample-for-sample, so a wall-clock solve budget
  // would let machine load truncate the two placements differently.
  config.placement_solve_seconds = 1e9;
  config.placement_max_nodes = 2000;
  return config;
}

TEST(RoomEmulationTest, VerifyAggregationCrossChecksEverySample)
{
  // The debug cross-check (on by default under FLEX_SANITIZE) rescans
  // every UPS at every sample and FLEX_CHECKs the running sums against
  // it, and recounts the rack on/cap mirrors and the off / capped /
  // non-cap-acted counters from the actuation plane; a clean run proves
  // the incremental path never diverged.
  EmulationConfig config = ShortTimelineConfig(33);
  config.verify_aggregation = true;
  RoomEmulation emulation(config);
  const EmulationReport report = emulation.Run();
  EXPECT_GE(report.verify_rescans, report.series.size());
  EXPECT_FALSE(report.safety_violated);
  // The failover actually shut down and capped racks, so the mirror
  // recount ran against non-trivial actuation state, not just all-on.
  EXPECT_GT(report.sr_shutdown_peak, 0);
  EXPECT_GT(report.capable_capped_peak, 0);
  bool saw_actions = false;
  for (const EmulationSample& sample : report.series)
    saw_actions |= sample.racks_off > 0 && sample.racks_capped > 0;
  EXPECT_TRUE(saw_actions);
}

TEST(RoomEmulationTest, MonitorPeriodNoLongerChangesTheReport)
{
  // The trip watch sees every UPS load change, so there is no monitor
  // cadence left: a 20 Hz monitor_period must leave the report, the
  // watch's observation count and the dynamics exactly as they are.
  const EmulationReport plain = [] {
    RoomEmulation emulation(ShortTimelineConfig(35));
    return emulation.Run();
  }();
  EmulationConfig config = ShortTimelineConfig(35);
  config.monitor_period = Seconds(0.05);
  RoomEmulation emulation(config);
  const EmulationReport monitored = emulation.Run();

  EXPECT_EQ(HashEmulationReport(monitored), HashEmulationReport(plain));
  EXPECT_EQ(monitored.monitor_ticks, plain.monitor_ticks);
  ASSERT_EQ(monitored.series.size(), plain.series.size());
  for (std::size_t i = 0; i < monitored.series.size(); ++i) {
    EXPECT_EQ(monitored.series[i].total_rack_mw,
              plain.series[i].total_rack_mw)
        << "sample " << i;
  }
  EXPECT_FALSE(monitored.safety_violated);
  // The failover overload is one episode from the failover edge to the
  // load change that ends it, so both outputs measure the same span.
  EXPECT_GT(plain.overload_duration_seconds, 0.0);
  EXPECT_EQ(plain.overload_duration_seconds, plain.time_to_safe_seconds);
}

// The seed-portability gate for a whole room: 2,240 racks take 600 OU
// steps each (1.3M normals) plus meter noise and actuation latencies, and
// the report must come out bit for bit. tests/CMakeLists.txt runs this test
// a second time with glibc's non-FMA exp/log/cos selected. Most last-bit
// changes to a draw vanish in later roundings; with Box-Muller on libm this
// seed's report still changed under the non-FMA libm, so the gate can fail.
TEST(RoomEmulationTest, ReportHashIsPinned)
{
  // The fleet benchmark's second room: 8 UPSes, N+1, 28 PDU pairs of 80
  // racks, seed 2022.
  EmulationConfig config;
  config.seed = 2022;
  config.room = power::RoomConfig::EmulationRoom();
  config.room.num_ups = 8;
  config.room.redundancy_y = 7;
  config.room.ups_capacity = MegaWatts(4.0);
  config.room.pdu_pairs_per_ups_pair = 1;
  config.room.rows_per_pdu_pair = 4;
  config.room.racks_per_row = 20;
  config.room.pdu_rating = MegaWatts(2.5);
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(60.0);
  config.restore_at = Seconds(100.0);
  config.end_at = Seconds(600.0);
  config.pipeline.rack_poll_period = Seconds(30.0);
  config.alerts.enabled = true;
  config.placement_solve_seconds = 1e9;  // node-budgeted: repeatable
  config.placement_max_nodes = 1;

  RoomEmulation emulation(config);
  const EmulationReport report = emulation.Run();
  EXPECT_EQ(report.total_racks, 2240);
  EXPECT_FALSE(report.safety_violated);
  EXPECT_EQ(HashEmulationReport(report), 0x86bb3a9c4110c68dull);
}

// The pinned room above never overloads, so no rack is ever shut down or
// capped in it. This room's failover does both, which pins, bit for bit,
// the workload step's power-off and cap paths and the tail-latency
// integrals (the report hash carries no p95 field, so they are pinned
// beside it). tests/CMakeLists.txt reruns it under the non-FMA libm too.
TEST(RoomEmulationTest, ActingRoomReportIsPinned)
{
  RoomEmulation emulation(ShortTimelineConfig(33));
  const EmulationReport report = emulation.Run();
  EXPECT_GT(report.sr_shutdown_peak, 0);
  EXPECT_GT(report.capable_capped_peak, 0);
  EXPECT_GT(report.p95_increase_worst, 0.0);
  EXPECT_EQ(HashEmulationReport(report), 0x0412ae7cce531fa0ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(report.p95_increase_mean),
            0x3fa6c9e45b25a53aull);  // 0.04451
  EXPECT_EQ(std::bit_cast<std::uint64_t>(report.p95_increase_worst),
            0x3fc4e5e0a72f0530ull);  // 0.16327
}

TEST(RoomEmulationTest, ObsAttachedStoreRepeatsRunToRun)
{
  // The history store samples the obs registry, which holds simulated-
  // time values only, so an obs-attached room's store repeats bit for bit.
  const auto run = [] {
    obs::Observability observability;
    EmulationConfig config = ShortTimelineConfig(33);
    config.obs = &observability;
    config.alerts.enabled = true;
    RoomEmulation emulation(config);
    return emulation.Run();
  };
  const EmulationReport first = run();
  const EmulationReport second = run();
  EXPECT_GT(first.store_samples, 0u);
  EXPECT_EQ(first.store_samples, second.store_samples);
  EXPECT_EQ(first.store_fingerprint, second.store_fingerprint);
  EXPECT_EQ(first.alert_fingerprint, second.alert_fingerprint);
}

TEST(RoomEmulationTest, InfiniteRackPollPeriodFailsAtConstruction)
{
  // The pipeline checks its poll periods when the room builds it, so an
  // infinite period fails the room's constructor, naming the field,
  // instead of the first rack poll tick inside Run.
  EmulationConfig config;
  config.setup_duration = Seconds(5.0);
  config.failover_at = Seconds(10.0);
  config.restore_at = Seconds(20.0);
  config.end_at = Seconds(40.0);
  config.placement_max_nodes = 20;
  config.pipeline.rack_poll_period =
      Seconds(std::numeric_limits<double>::infinity());
  std::string message;
  try {
    RoomEmulation room(config);
  } catch (const ConfigError& error) {
    message = error.what();
  }
  EXPECT_NE(message.find("rack_poll_period"), std::string::npos) << message;
}

TEST(RoomEmulationTest, ValidatesTimeline)
{
  EmulationConfig config;
  config.failover_at = Minutes(20.0);
  config.restore_at = Minutes(10.0);
  EXPECT_THROW(RoomEmulation{config}, ConfigError);
  config = EmulationConfig{};
  config.failed_ups = 9;
  EXPECT_THROW(RoomEmulation{config}, ConfigError);
  config = EmulationConfig{};
  config.target_utilization = 0.0;
  EXPECT_THROW(RoomEmulation{config}, ConfigError);

  // Values the room cannot run are rejected before BuildRoom, with a
  // message that names the field. A short room keeps a regression (the
  // room building and running anyway) cheap.
  EmulationConfig base;
  base.setup_duration = Seconds(5.0);
  base.failover_at = Seconds(10.0);
  base.restore_at = Seconds(20.0);
  base.end_at = Seconds(40.0);
  base.placement_max_nodes = 20;
  const auto expect_rejected = [&base](const char* field, auto mutate) {
    EmulationConfig bad = base;
    mutate(bad);
    try {
      RoomEmulation room(bad);
      ADD_FAILURE() << field << " was accepted";
    } catch (const ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << error.what();
    }
  };
  expect_rejected("num_controllers",
                  [](EmulationConfig& c) { c.num_controllers = 0; });
  expect_rejected("workload_step",
                  [](EmulationConfig& c) { c.workload_step = Seconds(0.0); });
  expect_rejected("failover_at",
                  [](EmulationConfig& c) { c.failover_at = Seconds(-5.0); });
  expect_rejected("sample_period", [](EmulationConfig& c) {
    c.sample_period = Seconds(-5.0);
  });
  expect_rejected("flex_power_fraction",
                  [](EmulationConfig& c) { c.flex_power_fraction = 1.5; });
  expect_rejected("placement_max_nodes",
                  [](EmulationConfig& c) { c.placement_max_nodes = -1; });
  expect_rejected("placement_solve_seconds", [](EmulationConfig& c) {
    c.placement_solve_seconds = 0.0;
  });

  // Timelines that would never finish, exhaust memory, or fail deep in
  // the event kernel or the power model under another name.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  expect_rejected("end_at",
                  [](EmulationConfig& c) { c.end_at = Seconds(kInf); });
  expect_rejected("workload_step", [](EmulationConfig& c) {
    c.workload_step = Seconds(1e-300);
  });
  expect_rejected("workload_step",
                  [](EmulationConfig& c) { c.workload_step = Seconds(kInf); });
  expect_rejected("sample_period", [](EmulationConfig& c) {
    c.sample_period = Seconds(1e-300);
  });
  expect_rejected("sample_period",
                  [](EmulationConfig& c) { c.sample_period = Seconds(kInf); });
  expect_rejected("setup_duration",
                  [](EmulationConfig& c) { c.setup_duration = Seconds(-5.0); });
  expect_rejected("setup_duration", [](EmulationConfig& c) {
    c.setup_duration = Seconds(std::numeric_limits<double>::quiet_NaN());
  });
}

}  // namespace
}  // namespace flex::emulation
