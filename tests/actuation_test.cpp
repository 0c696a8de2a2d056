/**
 * @file
 * Unit tests for the actuation substrate: rack managers and the
 * firmware/network background monitor.
 */
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "actuation/firmware_monitor.hpp"
#include "actuation/rack_manager.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "sim/event_queue.hpp"

namespace flex::actuation {
namespace {

class RackManagerTest : public ::testing::Test {
 protected:
  /** The rack manager of a fresh one-rack plane seeded with @p seed. */
  RackManager&
  MakeRack(std::uint64_t seed)
  {
    plane_ = std::make_unique<ActuationPlane>(queue_, 1, config_, seed);
    return plane_->rack(0);
  }

  sim::EventQueue queue_;
  RackManagerConfig config_;
  std::unique_ptr<ActuationPlane> plane_;
};

TEST_F(RackManagerTest, ThrottleInstallsCapAfterLatency)
{
  RackManager& rm = MakeRack(1);
  bool completed = false;
  rm.Throttle(KiloWatts(12.0), [&](bool ok) {
    completed = true;
    EXPECT_TRUE(ok);
  });
  EXPECT_FALSE(rm.state().power_cap.has_value());  // not yet
  queue_.RunUntil(Seconds(10.0));
  EXPECT_TRUE(completed);
  ASSERT_TRUE(rm.state().power_cap.has_value());
  EXPECT_NEAR(rm.state().power_cap->kilowatts(), 12.0, 1e-9);
}

TEST_F(RackManagerTest, ShutdownAndRestoreCyclePower)
{
  RackManager& rm = MakeRack(2);
  rm.Shutdown([](bool ok) { EXPECT_TRUE(ok); });
  queue_.RunUntil(Seconds(10.0));
  EXPECT_FALSE(rm.state().powered_on);
  rm.Restore([](bool ok) { EXPECT_TRUE(ok); });
  queue_.RunUntil(Seconds(200.0));
  EXPECT_TRUE(rm.state().powered_on);
}

TEST_F(RackManagerTest, RestoreTakesMuchLongerThanCapActions)
{
  RackManager& rm = MakeRack(3);
  double cap_done = -1.0;
  double restore_done = -1.0;
  rm.Throttle(KiloWatts(1.0), [&](bool) { cap_done = queue_.Now().value(); });
  rm.Restore([&](bool) { restore_done = queue_.Now().value(); });
  queue_.RunUntil(Seconds(500.0));
  ASSERT_GE(cap_done, 0.0);
  ASSERT_GE(restore_done, 0.0);
  EXPECT_GT(restore_done, cap_done * 5.0);
}

TEST_F(RackManagerTest, RemoveCapClearsThrottle)
{
  RackManager& rm = MakeRack(4);
  rm.Throttle(KiloWatts(5.0), [](bool) {});
  queue_.RunUntil(Seconds(10.0));
  rm.RemoveCap([](bool ok) { EXPECT_TRUE(ok); });
  queue_.RunUntil(Seconds(20.0));
  EXPECT_FALSE(rm.state().power_cap.has_value());
}

TEST_F(RackManagerTest, ActionsAreIdempotent)
{
  RackManager& rm = MakeRack(5);
  rm.Shutdown([](bool) {});
  rm.Shutdown([](bool) {});
  rm.Throttle(KiloWatts(7.0), [](bool) {});
  rm.Throttle(KiloWatts(7.0), [](bool) {});
  queue_.RunUntil(Seconds(10.0));
  EXPECT_FALSE(rm.state().powered_on);
  ASSERT_TRUE(rm.state().power_cap.has_value());
  EXPECT_NEAR(rm.state().power_cap->kilowatts(), 7.0, 1e-9);
}

TEST_F(RackManagerTest, UnreachableRackFailsCommands)
{
  RackManager& rm = MakeRack(6);
  rm.SetUnreachable(true);
  bool ok = true;
  rm.Shutdown([&](bool success) { ok = success; });
  queue_.RunUntil(Seconds(10.0));
  EXPECT_FALSE(ok);
  EXPECT_TRUE(rm.state().powered_on);  // action never took effect
}

TEST_F(RackManagerTest, StaleFirmwareAcknowledgesButDoesNothing)
{
  RackManager& rm = MakeRack(7);
  rm.SetFirmwareStale(true);
  bool ok = true;
  rm.Throttle(KiloWatts(3.0), [&](bool success) { ok = success; });
  queue_.RunUntil(Seconds(10.0));
  EXPECT_FALSE(ok);
  EXPECT_FALSE(rm.state().power_cap.has_value());
  rm.RedeployFirmware();
  EXPECT_TRUE(rm.Probe());
}

TEST_F(RackManagerTest, LatencyDistributionMatchesProductionEnvelope)
{
  // The paper reports ~2 s action latency at p99.9; check the model's
  // cap/shutdown latency tail lands in that neighbourhood.
  RackManager& rm = MakeRack(8);
  for (int i = 0; i < 2000; ++i)
    rm.Throttle(KiloWatts(1.0), [](bool) {});
  queue_.RunUntil(Seconds(1000.0));
  const std::vector<double>& samples = plane_->action_latencies();
  ASSERT_EQ(samples.size(), 2000u);
  const double p999 = Percentile(samples, 99.9);
  EXPECT_GT(p999, 1.0);
  EXPECT_LT(p999, 3.5);
  const double median = Percentile(samples, 50.0);
  EXPECT_GT(median, 0.3);
  EXPECT_LT(median, 1.5);
}

TEST(ActuationPlaneTest, ProvidesIndependentRackManagers)
{
  sim::EventQueue queue;
  ActuationPlane plane(queue, 8, RackManagerConfig{}, 9);
  EXPECT_EQ(plane.num_racks(), 8);
  plane.rack(3).Shutdown([](bool) {});
  queue.RunUntil(Seconds(10.0));
  EXPECT_FALSE(plane.rack(3).state().powered_on);
  EXPECT_TRUE(plane.rack(4).state().powered_on);
  EXPECT_THROW(plane.rack(8), ConfigError);
  EXPECT_EQ(plane.action_latencies().size(), 1u);
  // Latencies pool across racks in completion order.
  plane.rack(5).Throttle(KiloWatts(3.0), [](bool) {});
  plane.rack(6).Throttle(KiloWatts(3.0), [](bool) {});
  queue.RunUntil(Seconds(20.0));
  EXPECT_EQ(plane.action_latencies().size(), 3u);
}

TEST(ActuationPlaneTest, ListenerSeesEveryStateChangeOnce)
{
  // One listener for the whole plane: it fires once per successful
  // command, with the rack id, after the state has changed.
  sim::EventQueue queue;
  ActuationPlane plane(queue, 4, RackManagerConfig{}, 17);
  std::vector<int> changed;
  plane.SetStateListener([&](int rack_id) {
    changed.push_back(rack_id);
    EXPECT_TRUE(plane.rack(rack_id).state().power_cap.has_value());
  });
  plane.rack(2).Throttle(KiloWatts(5.0), [](bool ok) { EXPECT_TRUE(ok); });
  plane.rack(0).Throttle(KiloWatts(6.0), [](bool ok) { EXPECT_TRUE(ok); });
  plane.rack(1).SetFirmwareStale(true);
  plane.rack(1).Throttle(KiloWatts(7.0), [](bool ok) { EXPECT_FALSE(ok); });
  queue.RunUntil(Seconds(10.0));
  std::sort(changed.begin(), changed.end());
  EXPECT_EQ(changed, (std::vector<int>{0, 2}));
  EXPECT_THROW(ActuationPlane(queue, 2, RackManagerConfig{1.5, nullptr}, 1),
               ConfigError);
}

class FirmwareMonitorTest : public ::testing::Test {
 protected:
  FirmwareMonitorTest() : plane_(queue_, 16, RackManagerConfig{}, 10) {}

  sim::EventQueue queue_;
  ActuationPlane plane_;
  FirmwareMonitorConfig config_;
};

TEST_F(FirmwareMonitorTest, HealthyFleetRaisesNoWarnings)
{
  FirmwareMonitor monitor(queue_, plane_, config_, 11);
  monitor.Start();
  queue_.RunUntil(Seconds(600.0));
  EXPECT_GT(monitor.sweeps_completed(), 0u);
  EXPECT_TRUE(monitor.warnings().empty());
}

TEST_F(FirmwareMonitorTest, DetectsUnreachableRackManagers)
{
  FirmwareMonitor monitor(queue_, plane_, config_, 12);
  plane_.rack(5).SetUnreachable(true);
  int callbacks = 0;
  monitor.OnWarning([&](const MonitorWarning& w) {
    ++callbacks;
    EXPECT_EQ(w.rack_id, 5);
  });
  monitor.Start();
  queue_.RunUntil(Seconds(120.0));
  EXPECT_GT(callbacks, 0);
}

TEST_F(FirmwareMonitorTest, DetectsFirmwareRegressions)
{
  FirmwareMonitor monitor(queue_, plane_, config_, 13);
  plane_.rack(2).SetFirmwareStale(true);
  monitor.Start();
  queue_.RunUntil(Seconds(120.0));
  ASSERT_FALSE(monitor.warnings().empty());
  EXPECT_EQ(monitor.warnings().front().rack_id, 2);
  EXPECT_EQ(monitor.warnings().front().reason, "firmware regression detected");
}

TEST_F(FirmwareMonitorTest, FakeActionsLeaveStateUnchanged)
{
  FirmwareMonitorConfig config;
  config.fake_action_fraction = 1.0;  // exercise every rack every sweep
  FirmwareMonitor monitor(queue_, plane_, config, 14);
  plane_.rack(0).Throttle(KiloWatts(9.0), [](bool) {});
  queue_.RunUntil(Seconds(10.0));
  monitor.Start();
  queue_.RunUntil(Seconds(600.0));
  // The pre-existing cap must survive the fake-action cycles.
  ASSERT_TRUE(plane_.rack(0).state().power_cap.has_value());
  EXPECT_NEAR(plane_.rack(0).state().power_cap->kilowatts(), 9.0, 1e-9);
  EXPECT_TRUE(plane_.rack(1).state().powered_on);
  EXPECT_FALSE(plane_.rack(1).state().power_cap.has_value());
}

TEST_F(FirmwareMonitorTest, StopEndsSweeps)
{
  FirmwareMonitor monitor(queue_, plane_, config_, 15);
  monitor.Start();
  queue_.RunUntil(Seconds(120.0));
  const std::size_t sweeps = monitor.sweeps_completed();
  monitor.Stop();
  queue_.RunUntil(Seconds(600.0));
  EXPECT_EQ(monitor.sweeps_completed(), sweeps);
}

TEST_F(FirmwareMonitorTest, RejectsBadConfig)
{
  FirmwareMonitorConfig bad;
  bad.probe_period = Seconds(0.0);
  EXPECT_THROW(FirmwareMonitor(queue_, plane_, bad, 16), ConfigError);
  bad = FirmwareMonitorConfig{};
  bad.fake_action_fraction = 2.0;
  EXPECT_THROW(FirmwareMonitor(queue_, plane_, bad, 16), ConfigError);
}

}  // namespace
}  // namespace flex::actuation
