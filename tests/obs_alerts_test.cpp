/**
 * @file
 * Tests for the declarative alert engine: every rule kind, the
 * pending→firing→resolved state machine, flight-recorder stamping —
 * and the end-to-end drills: a poller-crash plan run during the
 * overload window must fire and resolve the staleness page headless,
 * and a recorded fault run whose only trigger is a fired alert must
 * dump a forensic bundle that flex_replay-style ReplayBundle
 * re-executes without divergence. A room, whether the caller or a
 * recorded fault run built it, must also unbind the obs clocks it
 * bound before its queue dies.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "emulation/room_emulation.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_run.hpp"
#include "fault/forensics.hpp"
#include "obs/alerts.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/observability.hpp"
#include "obs/timeseries.hpp"

namespace flex {
namespace {

using obs::AlertCompare;
using obs::AlertEngine;
using obs::AlertRule;
using obs::AlertRuleKind;
using obs::AlertSeverity;
using obs::AlertState;
using obs::AlertTransition;
using obs::MetricKind;
using obs::TimeSeriesStore;

AlertRule
ThresholdRule(const std::string& metric, double threshold, double for_s)
{
  AlertRule rule;
  rule.name = "High_" + metric;
  rule.metric = metric;
  rule.kind = AlertRuleKind::kThreshold;
  rule.compare = AlertCompare::kGreaterThan;
  rule.threshold = threshold;
  rule.for_s = for_s;
  return rule;
}

TEST(AlertEngineTest, ThresholdRuleWalksFullStateMachine)
{
  TimeSeriesStore store;
  AlertEngine engine(&store, {ThresholdRule("m", 5.0, 10.0)});

  store.Append("m", MetricKind::kGauge, 0.0, 1.0);
  engine.Evaluate(0.0);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kInactive);
  EXPECT_TRUE(engine.timeline().empty());

  store.Append("m", MetricKind::kGauge, 10.0, 6.0);
  engine.Evaluate(10.0);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kPending);
  EXPECT_EQ(engine.pending_count(), 1);
  EXPECT_EQ(engine.firing_count(), 0);

  store.Append("m", MetricKind::kGauge, 15.0, 7.0);
  engine.Evaluate(15.0);  // held 5 s < for_s: still pending
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kPending);

  store.Append("m", MetricKind::kGauge, 20.0, 7.0);
  engine.Evaluate(20.0);  // held 10 s: fires
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kFiring);
  EXPECT_EQ(engine.firing_count(), 1);
  EXPECT_EQ(engine.total_fired(), 1u);

  store.Append("m", MetricKind::kGauge, 25.0, 2.0);
  engine.Evaluate(25.0);  // back under the bound: resolves
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kInactive);
  EXPECT_EQ(engine.statuses()[0].fire_count, 1u);

  const std::vector<AlertTransition>& timeline = engine.timeline();
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline[0].to, AlertState::kPending);
  EXPECT_EQ(timeline[0].t, 10.0);
  EXPECT_EQ(timeline[1].to, AlertState::kFiring);
  EXPECT_EQ(timeline[1].t, 20.0);
  EXPECT_EQ(timeline[2].to, AlertState::kInactive);
  EXPECT_EQ(timeline[2].message, "resolved");
}

TEST(AlertEngineTest, PendingClearsWithoutFiringWhenConditionDrops)
{
  TimeSeriesStore store;
  AlertEngine engine(&store, {ThresholdRule("m", 5.0, 30.0)});
  store.Append("m", MetricKind::kGauge, 0.0, 9.0);
  engine.Evaluate(0.0);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kPending);
  store.Append("m", MetricKind::kGauge, 10.0, 1.0);
  engine.Evaluate(10.0);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kInactive);
  EXPECT_EQ(engine.total_fired(), 0u);
  ASSERT_EQ(engine.timeline().size(), 2u);
  EXPECT_EQ(engine.timeline()[1].message, "condition cleared");
}

TEST(AlertEngineTest, ZeroForDurationFiresSameTick)
{
  TimeSeriesStore store;
  AlertEngine engine(&store, {ThresholdRule("m", 5.0, 0.0)});
  store.Append("m", MetricKind::kGauge, 3.0, 8.0);
  engine.Evaluate(3.0);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kFiring);
  // Both edges land on the same tick: pending then firing.
  ASSERT_EQ(engine.timeline().size(), 2u);
  EXPECT_EQ(engine.timeline()[0].to, AlertState::kPending);
  EXPECT_EQ(engine.timeline()[1].to, AlertState::kFiring);
  EXPECT_EQ(engine.timeline()[0].t, engine.timeline()[1].t);
}

TEST(AlertEngineTest, EachEngineLogsItsOwnFiringEdge)
{
  // Each engine owns its log rate limiters, so a second engine firing
  // the same rule at the same simulated instant is not swallowed by the
  // first, and both lines carry the instant.
  std::vector<std::string> lines;
  const obs::LogLevel level = obs::GetLogLevel();
  obs::SetLogLevel(obs::LogLevel::kWarn);
  obs::SetLogSink([&lines](obs::LogLevel, const std::string& line) {
    if (line.find("FIRING") != std::string::npos)
      lines.push_back(line);
  });
  for (int i = 0; i < 2; ++i) {
    TimeSeriesStore store;
    AlertEngine engine(&store, {ThresholdRule("m", 5.0, 0.0)});
    store.Append("m", MetricKind::kGauge, 10.0, 8.0);
    engine.Evaluate(10.0);
    EXPECT_EQ(engine.firing_count(), 1);
  }
  obs::SetLogSink({});
  obs::SetLogLevel(level);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines)
    EXPECT_NE(line.find("t=10.000 alerts: FIRING"), std::string::npos) << line;
}

TEST(AlertEngineTest, ThresholdMetricComparesAgainstAnotherSeries)
{
  AlertRule rule = ThresholdRule("p99", 0.0, 0.0);
  rule.threshold_metric = "budget";
  TimeSeriesStore store;
  AlertEngine engine(&store, {rule});

  // Bound series missing: rule stays inactive no matter the value.
  store.Append("p99", MetricKind::kGauge, 0.0, 100.0);
  engine.Evaluate(0.0);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kInactive);

  store.Append("budget", MetricKind::kGauge, 1.0, 10.0);
  store.Append("p99", MetricKind::kGauge, 1.0, 7.0);
  engine.Evaluate(1.0);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kInactive);  // 7 < 10

  store.Append("p99", MetricKind::kGauge, 2.0, 12.0);
  engine.Evaluate(2.0);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kFiring);  // 12 > 10
}

TEST(AlertEngineTest, StaleRuleDetectsFlatlinedProgress)
{
  AlertRule rule;
  rule.name = "Stalled";
  rule.metric = "ticks";
  rule.kind = AlertRuleKind::kStale;
  rule.window_s = 4.0;
  rule.for_s = 0.0;
  TimeSeriesStore store;
  AlertEngine engine(&store, {rule});

  // Absent series is fresh, not stale: no firing before first data.
  engine.Evaluate(100.0);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kInactive);

  store.Append("ticks", MetricKind::kCounter, 0.0, 1.0);
  store.Append("ticks", MetricKind::kCounter, 2.0, 2.0);
  engine.Evaluate(2.0);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kInactive);

  // Counter keeps re-publishing the same value: no progress.
  store.Append("ticks", MetricKind::kCounter, 5.0, 2.0);
  store.Append("ticks", MetricKind::kCounter, 7.0, 2.0);
  engine.Evaluate(7.0);  // unchanged since t=2: age 5 > 4
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kFiring);
  EXPECT_EQ(engine.statuses()[0].last_value, 5.0);  // the age

  store.Append("ticks", MetricKind::kCounter, 8.0, 3.0);
  engine.Evaluate(8.0);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kInactive);
}

TEST(AlertEngineTest, RateOfChangeRuleComparesSlope)
{
  AlertRule rule;
  rule.name = "FastGrowth";
  rule.metric = "count";
  rule.kind = AlertRuleKind::kRateOfChange;
  rule.compare = AlertCompare::kGreaterThan;
  rule.threshold = 0.5;
  rule.window_s = 10.0;
  TimeSeriesStore store;
  AlertEngine engine(&store, {rule});

  store.Append("count", MetricKind::kCounter, 0.0, 0.0);
  store.Append("count", MetricKind::kCounter, 10.0, 3.0);
  engine.Evaluate(10.0);  // 0.3/s
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kInactive);

  store.Append("count", MetricKind::kCounter, 20.0, 13.0);
  engine.Evaluate(20.0);  // 1.0/s over the trailing window
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kFiring);
  EXPECT_EQ(engine.statuses()[0].last_value, 1.0);
}

TEST(AlertEngineTest, BurnRateRequiresBothWindows)
{
  AlertRule rule;
  rule.name = "SloBurn";
  rule.metric = "err";
  rule.total_metric = "total";
  rule.kind = AlertRuleKind::kBurnRate;
  rule.slo_target = 0.9;  // error budget 10%
  rule.burn_factor = 5.0;
  rule.short_window_s = 10.0;
  rule.long_window_s = 30.0;
  TimeSeriesStore store;
  AlertEngine engine(&store, {rule});

  const auto append = [&store](double t, double err, double total) {
    store.Append("err", MetricKind::kCounter, t, err);
    store.Append("total", MetricKind::kCounter, t, total);
  };
  append(0.0, 0.0, 0.0);
  append(10.0, 0.0, 10.0);
  append(20.0, 0.0, 20.0);
  // A blip: 90% of the last 10 s of requests erred, but the long
  // window has absorbed it (9/30 = 30% of budget-normalized 3.0x).
  append(30.0, 9.0, 30.0);
  engine.Evaluate(30.0);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kInactive);

  // The burn persists: now both windows exceed 5x and the rule fires.
  append(40.0, 18.0, 40.0);
  engine.Evaluate(40.0);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kFiring);
}

TEST(AlertEngineTest, EveryEdgeIsStampedIntoTheFlightRecorder)
{
  TimeSeriesStore store;
  AlertEngine engine(
      &store, {ThresholdRule("a", 5.0, 0.0), ThresholdRule("b", 5.0, 0.0)});
  obs::FlightRecorder recorder;
  engine.SetRecorder(&recorder);

  store.Append("a", MetricKind::kGauge, 1.0, 9.0);
  store.Append("b", MetricKind::kGauge, 1.0, 1.0);
  engine.Evaluate(1.0);
  store.Append("a", MetricKind::kGauge, 2.0, 1.0);
  store.Append("b", MetricKind::kGauge, 2.0, 9.0);
  engine.Evaluate(2.0);

  const std::vector<obs::FlightRecord> records = recorder.Records();
  // Rule a: pending+firing then resolve; rule b: pending+firing.
  ASSERT_EQ(records.size(), 5u);
  for (const obs::FlightRecord& record : records)
    EXPECT_EQ(record.kind, obs::RecordKind::kAlert);
  EXPECT_EQ(records[0].a, 0);  // rule index
  EXPECT_EQ(records[0].b, static_cast<int>(AlertState::kPending));
  EXPECT_EQ(records[1].b, static_cast<int>(AlertState::kFiring));
  EXPECT_EQ(records[2].a, 0);
  EXPECT_EQ(records[2].b, static_cast<int>(AlertState::kInactive));
  EXPECT_EQ(records[3].a, 1);
  EXPECT_NE(records[0].detail.find("High_a"), std::string::npos);
}

TEST(AlertEngineTest, SnapshotAndJsonlCarryTheTimeline)
{
  TimeSeriesStore store;
  AlertEngine engine(&store, {ThresholdRule("m", 5.0, 0.0)});
  store.Append("m", MetricKind::kGauge, 1.0, 9.0);
  engine.Evaluate(1.0);

  const obs::AlertsSnapshot snapshot = engine.Snapshot();
  EXPECT_EQ(snapshot.firing, 1);
  EXPECT_EQ(snapshot.worst_firing, AlertSeverity::kWarn);
  ASSERT_EQ(snapshot.statuses.size(), 1u);
  EXPECT_EQ(snapshot.statuses[0].state, AlertState::kFiring);
  EXPECT_EQ(snapshot.timeline.size(), 2u);

  const std::string jsonl = engine.TimelineJsonl();
  EXPECT_NE(jsonl.find("\"rule\":\"High_m\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"to\":\"firing\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Emulation drill: telemetry outage during the failover window.
// ---------------------------------------------------------------------------

emulation::EmulationConfig
DrillConfig(std::uint64_t seed)
{
  emulation::EmulationConfig config;
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(120.0);
  config.restore_at = Seconds(200.0);
  config.end_at = Seconds(260.0);
  config.seed = seed;
  // Node-budgeted placement (not wall-clock) so runs are bit-identical
  // regardless of machine speed — the determinism suite's idiom.
  config.placement_solve_seconds = 1e9;
  config.placement_max_nodes = 2000;
  config.alerts.enabled = true;
  return config;
}

/**
 * Every poller of @p config crashes at 140 s and restarts at 180 s,
 * inside the failover window: long enough for the 15 s staleness window
 * plus the 5 s for-duration.
 */
fault::FaultPlan
OutagePlan(const emulation::EmulationConfig& config)
{
  fault::FaultPlan plan;
  for (int poller = 0; poller < config.pipeline.num_pollers; ++poller) {
    fault::FaultEvent crash;
    crash.at = Seconds(140.0);
    crash.kind = fault::FaultKind::kPollerCrash;
    crash.target = poller;
    crash.duration = Seconds(40.0);
    plan.Add(crash);
  }
  return plan;
}

TEST(AlertDrillTest, TelemetryOutageFiresAndResolvesHeadless)
{
  const emulation::EmulationConfig config = DrillConfig(77);
  emulation::RoomEmulation emulation(config);
  const emulation::EmulationReport report =
      fault::RunPlan(emulation, OutagePlan(config)).room;

  EXPECT_GT(report.alerts_fired, 0u);
  EXPECT_NE(report.alert_fingerprint, 0u);
  EXPECT_NE(report.store_fingerprint, 0u);
  EXPECT_GT(report.store_samples, 0u);

  bool fired = false;
  bool resolved = false;
  for (const AlertTransition& edge : report.alert_timeline) {
    if (edge.rule != "TelemetryStalled")
      continue;
    if (edge.to == AlertState::kFiring) {
      fired = true;
      EXPECT_GE(edge.t, 140.0);
    }
    if (fired && edge.to == AlertState::kInactive) {
      resolved = true;
      EXPECT_GT(edge.t, 180.0);
    }
  }
  EXPECT_TRUE(fired) << "telemetry outage never tripped TelemetryStalled";
  EXPECT_TRUE(resolved) << "TelemetryStalled never resolved after recovery";

  // The engine's live view agrees with the report.
  ASSERT_NE(emulation.alert_engine(), nullptr);
  EXPECT_EQ(emulation.alert_engine()->total_fired(), report.alerts_fired);
  ASSERT_NE(emulation.timeseries(), nullptr);
  EXPECT_EQ(emulation.timeseries()->Fingerprint(), report.store_fingerprint);
}

// ---------------------------------------------------------------------------
// Fault drill: alert-triggered forensic bundle, replayed exactly.
// ---------------------------------------------------------------------------

TEST(AlertForensicsTest, AlertFiringDumpsReplayableBundle)
{
  // Crash both pollers mid-run: telemetry stalls (firing the built-in
  // TelemetryStalled page) but no safety invariant trips, so the
  // bundle's only trigger is the alert itself.
  fault::FaultPlan plan;
  for (int poller = 0; poller < 2; ++poller) {
    fault::FaultEvent event;
    event.at = Seconds(30.0);
    event.kind = fault::FaultKind::kPollerCrash;
    event.target = poller;
    event.duration = Seconds(50.0);
    plan.Add(event);
  }

  // The fuzz room, alerts on.
  const emulation::EmulationConfig config = fault::FuzzRoomConfig();
  fault::ForensicsOptions options;
  options.root_dir = ::testing::TempDir() + "alert-forensics";
  options.dump_on_alert = true;

  const fault::RecordedRun run = fault::RunRecordedPlan(config, 7, plan, options);
  EXPECT_TRUE(run.report.violations.empty())
      << "poller crash unexpectedly violated an invariant: "
      << run.report.violation_summary;
  ASSERT_GT(run.report.room.alerts_fired, 0u)
      << "poller outage never fired TelemetryStalled";
  EXPECT_NE(run.report.room.alert_fingerprint, 0u);
  EXPECT_TRUE(run.dump_error.empty()) << run.dump_error;
  ASSERT_FALSE(run.bundle_dir.empty()) << "alert did not trigger a dump";

  // The bundle carries the full history and the alert timeline.
  EXPECT_TRUE(std::ifstream(run.bundle_dir + "/timeseries.jsonl").good());
  EXPECT_TRUE(std::ifstream(run.bundle_dir + "/alerts.jsonl").good());

  const fault::ReplayReport replay = fault::ReplayBundle(run.bundle_dir, config);
  ASSERT_TRUE(replay.loaded) << replay.error;
  EXPECT_EQ(replay.manifest.trigger, "alert-firing");
  EXPECT_TRUE(replay.manifest.replayable);
  EXPECT_GT(replay.compared, 0u);
  EXPECT_FALSE(replay.divergence.has_value())
      << replay.divergence->Summary();
  // The replay fires the identical alerts: kAlert records aligned.
  EXPECT_EQ(replay.report.room.alerts_fired, run.report.room.alerts_fired);
  EXPECT_EQ(replay.report.room.alert_fingerprint,
            run.report.room.alert_fingerprint);
}

TEST(AlertForensicsTest, DumpOnAlertOffLeavesNoBundle)
{
  fault::FaultPlan plan;
  for (int poller = 0; poller < 2; ++poller) {
    fault::FaultEvent event;
    event.at = Seconds(30.0);
    event.kind = fault::FaultKind::kPollerCrash;
    event.target = poller;
    event.duration = Seconds(50.0);
    plan.Add(event);
  }
  const emulation::EmulationConfig config = fault::FuzzRoomConfig();
  fault::ForensicsOptions options;
  options.root_dir = ::testing::TempDir() + "alert-forensics-off";
  options.dump_on_alert = false;  // the fuzz-sweep default

  const fault::RecordedRun run = fault::RunRecordedPlan(config, 7, plan, options);
  EXPECT_GT(run.report.room.alerts_fired, 0u);
  EXPECT_TRUE(run.bundle_dir.empty())
      << "benign alert sprayed a bundle at " << run.bundle_dir;
}

TEST(HarnessClockTest, DestroyedHarnessesLeaveNoClockBehind)
{
  // Nothing binds a clock: a room's log lines carry the simulated time
  // its components pass, and a line logged once the room is gone
  // carries none.
  std::vector<std::string> lines;
  const obs::LogLevel level = obs::GetLogLevel();
  obs::SetLogLevel(obs::LogLevel::kInfo);
  obs::SetLogSink([&lines](obs::LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  fault::ForensicsOptions options;
  options.root_dir = ::testing::TempDir() + "harness-clock";
  fault::RunRecordedScenario(fault::FuzzRoomConfig(), 7, options);
  FLEX_LOG(obs::LogLevel::kWarn, "test", "after the recorded run");
  obs::SetLogSink({});
  obs::SetLogLevel(level);

  int begins = 0;
  for (const std::string& line : lines) {
    if (line.find("fault: begin") == std::string::npos)
      continue;
    ++begins;
    EXPECT_NE(line.find(" t="), std::string::npos) << line;
  }
  EXPECT_GT(begins, 0);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("after the recorded run"), std::string::npos);
  EXPECT_EQ(lines.back().find(" t="), std::string::npos) << lines.back();
}

}  // namespace
}  // namespace flex
