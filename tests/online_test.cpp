/**
 * @file
 * Unit and integration tests for Flex-Online: Algorithm 1 decisions and
 * the multi-primary controller.
 */
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "actuation/rack_manager.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "obs/observability.hpp"
#include "online/controller.hpp"
#include "online/decision.hpp"
#include "online/forecaster.hpp"
#include "power/topology.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/pipeline.hpp"

namespace flex::online {
namespace {

using workload::Category;
using workload::ImpactFunction;

/**
 * A toy 2-UPS, 1-PDU-pair fixture: every rack hangs off the pair
 * (UPS 0, UPS 1), making recovery accounting easy to verify by hand.
 */
class DecisionTest : public ::testing::Test {
 protected:
  DecisionInput
  MakeInput(Watts ups0, Watts ups1)
  {
    DecisionInput input;
    input.ups_power = {ups0, ups1};
    input.ups_limit = {KiloWatts(100.0), KiloWatts(100.0)};
    input.pdu_to_ups = {{0, 1}};
    input.buffer = KiloWatts(2.0);
    return input;
  }

  RackSnapshot
  MakeRack(int id, const std::string& workload, Category category,
           double power_kw, double flex_kw = 0.0)
  {
    RackSnapshot rack;
    rack.rack_id = id;
    rack.workload = workload;
    rack.category = category;
    rack.pdu_pair = 0;
    rack.current_power = KiloWatts(power_kw);
    rack.flex_power = KiloWatts(flex_kw);
    return rack;
  }
};

TEST_F(DecisionTest, NoOverdrawMeansNoActions)
{
  DecisionInput input = MakeInput(KiloWatts(50.0), KiloWatts(50.0));
  input.racks = {MakeRack(0, "sr", Category::kSoftwareRedundant, 20.0)};
  const DecisionResult result = DecideActions(input);
  EXPECT_TRUE(result.satisfied);
  EXPECT_TRUE(result.actions.empty());
  EXPECT_EQ(result.iterations, 0);
}

TEST_F(DecisionTest, ShutsDownSoftwareRedundantToShavePower)
{
  // UPS 1 failed (0 kW), UPS 0 carries 120 kW > 98 kW threshold.
  DecisionInput input = MakeInput(KiloWatts(120.0), Watts(0.0));
  input.racks = {
      MakeRack(0, "sr", Category::kSoftwareRedundant, 15.0),
      MakeRack(1, "sr", Category::kSoftwareRedundant, 15.0),
      MakeRack(2, "nc", Category::kNonRedundantNonCapable, 30.0)};
  const DecisionResult result = DecideActions(input);
  EXPECT_TRUE(result.satisfied);
  // 120 -> needs to drop below 98: two shutdowns of 15 kW each.
  ASSERT_EQ(result.actions.size(), 2u);
  for (const Action& action : result.actions) {
    EXPECT_EQ(action.type, ActionType::kShutdown);
    EXPECT_NE(action.rack_id, 2);  // never the non-cap-able rack
  }
  EXPECT_LE(result.projected_ups_power[0].kilowatts(), 98.0 + 1e-9);
}

TEST_F(DecisionTest, ThrottleRecoversOnlyAboveFlexPower)
{
  DecisionInput input = MakeInput(KiloWatts(110.0), Watts(0.0));
  // Cap-able rack drawing 30 kW with flex power 18 kW: recovery 12 kW.
  input.racks = {
      MakeRack(0, "cap", Category::kNonRedundantCapable, 30.0, 18.0)};
  const DecisionResult result = DecideActions(input);
  EXPECT_TRUE(result.satisfied);
  ASSERT_EQ(result.actions.size(), 1u);
  EXPECT_EQ(result.actions[0].type, ActionType::kThrottle);
  EXPECT_NEAR(result.actions[0].estimated_recovery.kilowatts(), 12.0, 1e-9);
  EXPECT_NEAR(result.projected_ups_power[0].kilowatts(), 98.0, 1e-9);
}

TEST_F(DecisionTest, RackBelowItsCapRecoversNothingAndIsNotPicked)
{
  DecisionInput input = MakeInput(KiloWatts(110.0), Watts(0.0));
  input.racks = {
      MakeRack(0, "cap", Category::kNonRedundantCapable, 15.0, 18.0),
      MakeRack(1, "sr", Category::kSoftwareRedundant, 20.0)};
  const DecisionResult result = DecideActions(input);
  ASSERT_EQ(result.actions.size(), 1u);
  EXPECT_EQ(result.actions[0].rack_id, 1);  // the SR rack, not the idle cap
}

TEST_F(DecisionTest, ImpactFunctionsSteerTheChoice)
{
  DecisionInput input = MakeInput(KiloWatts(105.0), Watts(0.0));
  input.racks = {
      MakeRack(0, "sr", Category::kSoftwareRedundant, 10.0),
      MakeRack(1, "cap", Category::kNonRedundantCapable, 30.0, 18.0)};
  // Extreme-2: shutting down SR is critical, throttling free.
  input.impact.emplace("sr", ImpactFunction::Critical());
  input.impact.emplace("cap", ImpactFunction::Zero());
  const DecisionResult r2 = DecideActions(input);
  ASSERT_FALSE(r2.actions.empty());
  EXPECT_EQ(r2.actions[0].type, ActionType::kThrottle);

  // Extreme-1: the mirror image.
  input.impact.clear();
  input.impact.emplace("sr", ImpactFunction::Zero());
  input.impact.emplace("cap", ImpactFunction::Critical());
  const DecisionResult r1 = DecideActions(input);
  ASSERT_FALSE(r1.actions.empty());
  EXPECT_EQ(r1.actions[0].type, ActionType::kShutdown);
}

TEST_F(DecisionTest, DefaultBehaviourThrottlesBeforeShuttingDown)
{
  // No impact functions registered: the paper's default is to throttle
  // all cap-able racks before shutting down software-redundant ones.
  DecisionInput input = MakeInput(KiloWatts(105.0), Watts(0.0));
  input.racks = {
      MakeRack(0, "sr", Category::kSoftwareRedundant, 10.0),
      MakeRack(1, "cap", Category::kNonRedundantCapable, 30.0, 25.0)};
  const DecisionResult result = DecideActions(input);
  ASSERT_FALSE(result.actions.empty());
  EXPECT_EQ(result.actions[0].type, ActionType::kThrottle);
}

TEST_F(DecisionTest, UnsatisfiableOverloadReportsNotSatisfied)
{
  DecisionInput input = MakeInput(KiloWatts(150.0), Watts(0.0));
  input.racks = {
      MakeRack(0, "nc", Category::kNonRedundantNonCapable, 150.0)};
  const DecisionResult result = DecideActions(input);
  EXPECT_FALSE(result.satisfied);
  EXPECT_TRUE(result.actions.empty());
}

TEST_F(DecisionTest, AlreadyActedRacksAreNotReSelected)
{
  DecisionInput input = MakeInput(KiloWatts(120.0), Watts(0.0));
  input.racks = {
      MakeRack(0, "sr", Category::kSoftwareRedundant, 15.0),
      MakeRack(1, "sr", Category::kSoftwareRedundant, 15.0)};
  input.already_acted = {0};
  const DecisionResult result = DecideActions(input);
  ASSERT_EQ(result.actions.size(), 1u);
  EXPECT_EQ(result.actions[0].rack_id, 1);
}

TEST_F(DecisionTest, RecoveryGoesToTheSurvivorWhenPartnerIsDead)
{
  // Two pairs: pair 0 on (0,1), pair 1 on (0,1) as well in this toy; use
  // a 3-UPS layout to check split attribution instead.
  DecisionInput input;
  input.ups_power = {KiloWatts(120.0), KiloWatts(60.0), KiloWatts(60.0)};
  input.ups_limit = {KiloWatts(100.0), KiloWatts(100.0), KiloWatts(100.0)};
  input.pdu_to_ups = {{0, 1}, {0, 2}};
  input.buffer = KiloWatts(2.0);
  RackSnapshot rack = MakeRack(0, "sr", Category::kSoftwareRedundant, 30.0);
  rack.pdu_pair = 0;  // connects UPS 0 and healthy UPS 1
  input.racks = {rack};
  const DecisionResult result = DecideActions(input);
  ASSERT_EQ(result.actions.size(), 1u);
  // Both UPSes alive: the 30 kW recovery splits 15/15.
  EXPECT_NEAR(result.projected_ups_power[0].kilowatts(), 105.0, 1e-9);
  EXPECT_NEAR(result.projected_ups_power[1].kilowatts(), 45.0, 1e-9);
}

TEST_F(DecisionTest, MinimumImpactCandidateWins)
{
  DecisionInput input = MakeInput(KiloWatts(102.0), Watts(0.0));
  input.racks = {
      MakeRack(0, "a", Category::kSoftwareRedundant, 10.0),
      MakeRack(1, "b", Category::kSoftwareRedundant, 10.0)};
  // Workload a charges heavily for its first rack; b is free.
  input.impact.emplace("a", ImpactFunction::Linear());
  input.impact.emplace("b", ImpactFunction::Zero());
  const DecisionResult result = DecideActions(input);
  ASSERT_EQ(result.actions.size(), 1u);
  EXPECT_EQ(result.actions[0].rack_id, 1);
  EXPECT_NEAR(result.actions[0].impact_after, 0.0, 1e-12);
}

TEST_F(DecisionTest, ValidatesInputShapes)
{
  DecisionInput input = MakeInput(KiloWatts(50.0), KiloWatts(50.0));
  input.ups_limit.pop_back();
  EXPECT_THROW(DecideActions(input), ConfigError);
  DecisionInput bad_rack = MakeInput(KiloWatts(50.0), KiloWatts(50.0));
  RackSnapshot rack = MakeRack(0, "x", Category::kSoftwareRedundant, 1.0);
  rack.pdu_pair = 7;  // unknown pair
  bad_rack.racks = {rack};
  EXPECT_THROW(DecideActions(bad_rack), ConfigError);
}

TEST(DefaultImpactTest, OrdersCategoriesAsThePaperPrescribes)
{
  const ImpactFunction cap = DefaultImpact(Category::kNonRedundantCapable);
  const ImpactFunction sr = DefaultImpact(Category::kSoftwareRedundant);
  const ImpactFunction nc = DefaultImpact(Category::kNonRedundantNonCapable);
  // Throttling cap-able racks is always cheaper than shutting down SR.
  for (const double f : {0.1, 0.5, 1.0})
    EXPECT_LT(cap(f), sr(f));
  // And non-cap-able racks are critical from the first rack.
  EXPECT_NEAR(nc(0.5), 1.0, 1e-9);
}

/**
 * Controller integration fixture: a small room driven by hand-delivered
 * telemetry readings (no pipeline), with real rack managers.
 */
class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : topology_(MakeRoomConfig()),
        plane_(queue_, 8, actuation::RackManagerConfig{}, 99)
  {
  }

  static power::RoomConfig
  MakeRoomConfig()
  {
    power::RoomConfig config;
    config.num_ups = 4;
    config.redundancy_y = 3;
    config.ups_capacity = KiloWatts(100.0);
    config.pdu_pairs_per_ups_pair = 1;
    config.rows_per_pdu_pair = 1;
    config.racks_per_row = 4;
    return config;
  }

  static RackTable
  MakeRacks()
  {
    // 8 racks: 4 software-redundant on pair 0, 4 cap-able on pair 1.
    std::vector<ManagedRack> racks;
    for (int i = 0; i < 8; ++i) {
      ManagedRack rack;
      rack.workload = i < 4 ? "sr" : "cap";
      rack.category = i < 4 ? Category::kSoftwareRedundant
                            : Category::kNonRedundantCapable;
      rack.pdu_pair = i < 4 ? 0 : 1;
      rack.allocated = KiloWatts(20.0);
      rack.flex_power = KiloWatts(16.0);
      racks.push_back(rack);
    }
    return std::make_shared<const std::vector<ManagedRack>>(std::move(racks));
  }

  void
  DeliverUps(FlexController& controller, int ups, double kw)
  {
    telemetry::DeviceReading reading;
    reading.device = {telemetry::DeviceKind::kUps, ups};
    reading.value = KiloWatts(kw);
    reading.sampled_at = queue_.Now();
    reading.delivered_at = queue_.Now();
    controller.OnReading(reading);
  }

  void
  DeliverRack(FlexController& controller, int rack, double kw)
  {
    telemetry::DeviceReading reading;
    reading.device = {telemetry::DeviceKind::kRack, rack};
    reading.value = KiloWatts(kw);
    reading.sampled_at = queue_.Now();
    reading.delivered_at = queue_.Now();
    controller.OnReading(reading);
  }

  sim::EventQueue queue_;
  power::RoomTopology topology_;
  actuation::ActuationPlane plane_;
};

TEST_F(ControllerTest, ActsOnOverdrawAndEnforcesThroughRackManagers)
{
  FlexController controller(queue_, topology_, MakeRacks(), plane_, {},
                            ControllerConfig{}, 0);
  for (int r = 0; r < 8; ++r)
    DeliverRack(controller, r, 18.0);
  // UPS 0 reads far over its 100 kW limit.
  DeliverUps(controller, 0, 140.0);
  EXPECT_EQ(controller.stats().overdraw_events, 1);
  EXPECT_TRUE(controller.actions_in_force());
  queue_.RunUntil(Seconds(10.0));
  // Some rack manager actually received the command.
  int acted = 0;
  for (int r = 0; r < 8; ++r) {
    const auto& state = plane_.rack(r).state();
    if (!state.powered_on || state.power_cap)
      ++acted;
  }
  EXPECT_GT(acted, 0);
}

TEST_F(ControllerTest, NoActionWithoutOverdraw)
{
  FlexController controller(queue_, topology_, MakeRacks(), plane_, {},
                            ControllerConfig{}, 0);
  DeliverUps(controller, 0, 50.0);
  DeliverUps(controller, 1, 60.0);
  EXPECT_EQ(controller.stats().overdraw_events, 0);
  EXPECT_FALSE(controller.actions_in_force());
}

TEST_F(ControllerTest, ReleasesActionsAfterSustainedHealth)
{
  ControllerConfig config;
  config.release_delay = Seconds(5.0);
  FlexController controller(queue_, topology_, MakeRacks(), plane_, {},
                            config, 0);
  for (int r = 0; r < 8; ++r)
    DeliverRack(controller, r, 18.0);
  DeliverUps(controller, 0, 140.0);
  queue_.RunUntil(Seconds(10.0));
  ASSERT_TRUE(controller.actions_in_force());
  // Health returns: all UPSes well under the release threshold.
  for (int step = 0; step < 10; ++step) {
    for (int u = 0; u < 4; ++u)
      DeliverUps(controller, u, 60.0);
    queue_.RunUntil(queue_.Now() + Seconds(2.0));
  }
  queue_.RunUntil(Seconds(200.0));
  EXPECT_FALSE(controller.actions_in_force());
  EXPECT_GT(controller.stats().restore_commands +
                controller.stats().uncap_commands, 0);
}

TEST_F(ControllerTest, DoesNotReleaseWhileAUpsLooksDead)
{
  ControllerConfig config;
  config.release_delay = Seconds(5.0);
  FlexController controller(queue_, topology_, MakeRacks(), plane_, {},
                            config, 0);
  for (int r = 0; r < 8; ++r)
    DeliverRack(controller, r, 18.0);
  DeliverUps(controller, 0, 140.0);
  queue_.RunUntil(Seconds(10.0));
  ASSERT_TRUE(controller.actions_in_force());
  // UPS 3 reads zero (still failed): others healthy. No release.
  for (int step = 0; step < 20; ++step) {
    DeliverUps(controller, 0, 60.0);
    DeliverUps(controller, 1, 60.0);
    DeliverUps(controller, 2, 60.0);
    DeliverUps(controller, 3, 0.0);
    queue_.RunUntil(queue_.Now() + Seconds(2.0));
  }
  EXPECT_TRUE(controller.actions_in_force());
}

TEST_F(ControllerTest, MultiPrimaryReplicasOvercorrectButStaySafe)
{
  auto racks = MakeRacks();
  FlexController a(queue_, topology_, racks, plane_, {}, ControllerConfig{},
                   0);
  FlexController b(queue_, topology_, racks, plane_, {}, ControllerConfig{},
                   1);
  for (int r = 0; r < 8; ++r) {
    DeliverRack(a, r, 18.0);
    DeliverRack(b, r, 18.0);
  }
  // Both replicas see the same overdraw at skewed times.
  DeliverUps(a, 0, 140.0);
  queue_.RunUntil(Seconds(0.5));
  DeliverUps(b, 0, 140.0);
  queue_.RunUntil(Seconds(10.0));
  // Both acted; the union of actions is at least each replica's set, and
  // the rack state is a consistent (idempotent) outcome.
  EXPECT_TRUE(a.actions_in_force());
  EXPECT_TRUE(b.actions_in_force());
  int acted = 0;
  for (int r = 0; r < 8; ++r) {
    const auto& state = plane_.rack(r).state();
    if (!state.powered_on || state.power_cap)
      ++acted;
  }
  EXPECT_GT(acted, 0);
}

TEST_F(ControllerTest, FallsBackToAllocationWithoutRackTelemetry)
{
  // No rack readings at all: the controller must assume the
  // conservative allocation and still resolve the overdraw.
  FlexController controller(queue_, topology_, MakeRacks(), plane_, {},
                            ControllerConfig{}, 0);
  DeliverUps(controller, 0, 140.0);
  EXPECT_TRUE(controller.actions_in_force());
  queue_.RunUntil(Seconds(10.0));
  int acted = 0;
  for (int r = 0; r < 8; ++r) {
    const auto& state = plane_.rack(r).state();
    if (!state.powered_on || state.power_cap)
      ++acted;
  }
  EXPECT_GT(acted, 0);
}

TEST_F(ControllerTest, PublishesEmergencyAndAllClearNotifications)
{
  NotificationBus bus;
  std::vector<PowerEmergencyNotification> events;
  bus.Subscribe("", [&](const PowerEmergencyNotification& n) {
    events.push_back(n);
  });
  ControllerConfig config;
  config.release_delay = Seconds(5.0);
  FlexController controller(queue_, topology_, MakeRacks(), plane_, {},
                            config, 0, &bus);
  for (int r = 0; r < 8; ++r)
    DeliverRack(controller, r, 18.0);
  DeliverUps(controller, 0, 160.0);
  queue_.RunUntil(Seconds(10.0));
  // The default policy throttles cap-able racks first but a 160 kW
  // overdraw forces SR shutdowns too -> an emergency must have fired.
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().workload, "sr");
  EXPECT_FALSE(events.front().cleared);
  EXPECT_FALSE(events.front().racks.empty());

  // Recovery: the all-clear arrives for the same workload.
  for (int step = 0; step < 10; ++step) {
    for (int u = 0; u < 4; ++u)
      DeliverUps(controller, u, 60.0);
    queue_.RunUntil(queue_.Now() + Seconds(2.0));
  }
  queue_.RunUntil(Seconds(300.0));
  ASSERT_GE(events.size(), 2u);
  EXPECT_TRUE(events.back().cleared);
  EXPECT_EQ(events.back().workload, "sr");
}

TEST_F(ControllerTest, FailoverDrillProducesOneCompleteTraceWithinBudget)
{
  // End-to-end observability check: a failover drill must stitch
  // exactly ONE reaction trace across all five stages, and the reaction
  // must land inside the tolerance window (Section IV-E's temporal
  // safety claim).
  obs::ObservabilityConfig obs_config;
  obs_config.tracer.budget = Seconds(10.0);
  obs::Observability observability(obs_config);
  ControllerConfig config;
  config.obs = &observability;
  auto racks = MakeRacks();
  FlexController controller(queue_, topology_, racks, plane_, {}, config, 0);
  FlexController racing(queue_, topology_, racks, plane_, {}, config, 1);
  for (int r = 0; r < 8; ++r) {
    DeliverRack(controller, r, 18.0);
    DeliverRack(racing, r, 18.0);
  }
  queue_.RunUntil(Seconds(2.0));
  // UPS 0's partner fails; the survivor reads far over its limit.
  // Replica 1 sees the same overload a beat later: multi-primary racing
  // that the tracer must absorb into ONE episode.
  DeliverUps(controller, 0, 140.0);
  queue_.RunUntil(Seconds(2.5));
  DeliverUps(racing, 0, 140.0);
  queue_.RunUntil(Seconds(30.0));

  const obs::ReactionTracer& tracer = observability.tracer();
  ASSERT_EQ(tracer.traces().size(), 1u);
  EXPECT_EQ(tracer.complete_count(), 1u);
  const obs::ReactionTrace& trace = tracer.traces().front();
  EXPECT_TRUE(trace.complete);
  EXPECT_EQ(trace.ups_index, 0);
  EXPECT_EQ(trace.detecting_replica, 0);
  EXPECT_GT(trace.actions, 0);
  EXPECT_GE(trace.duplicate_detections, 1);
  // The stage chain is causally ordered and ends inside the window.
  EXPECT_LE(trace.sampled_at.value(), trace.delivered_at.value());
  EXPECT_LE(trace.delivered_at.value(), trace.detected_at.value());
  EXPECT_LE(trace.detected_at.value(), trace.decided_at.value());
  EXPECT_LE(trace.decided_at.value(), trace.enforced_at.value());
  EXPECT_GT(trace.EndToEnd().value(), 0.0);
  EXPECT_LT(trace.EndToEnd().value(), obs_config.tracer.budget.value());
  EXPECT_TRUE(trace.WithinBudget());
  EXPECT_EQ(tracer.within_budget_count(), 1u);

  // Both replicas counted a detection, but the tracer folded them into
  // one episode: exactly one end-to-end sample.
  const obs::MetricsSnapshot snapshot = observability.metrics().Snapshot();
  ASSERT_NE(snapshot.Find("controller.overdraw_detections"), nullptr);
  EXPECT_DOUBLE_EQ(snapshot.Find("controller.overdraw_detections")->value,
                   2.0);
  ASSERT_NE(snapshot.Find("reaction.end_to_end_s"), nullptr);
  EXPECT_EQ(snapshot.Find("reaction.end_to_end_s")->count, 1u);
}

TEST_F(ControllerTest, IgnoresReadingsForUnknownDevices)
{
  FlexController controller(queue_, topology_, MakeRacks(), plane_, {},
                            ControllerConfig{}, 0);
  EXPECT_NO_THROW(DeliverUps(controller, 77, 500.0));
  EXPECT_NO_THROW(DeliverRack(controller, 77, 500.0));
  EXPECT_EQ(controller.stats().overdraw_events, 0);
}

TEST_F(ControllerTest, RejectsBadConfig)
{
  ControllerConfig bad;
  bad.buffer = KiloWatts(-1.0);
  EXPECT_THROW(FlexController(queue_, topology_, MakeRacks(), plane_, {},
                              bad, 0),
               ConfigError);
  bad = ControllerConfig{};
  bad.release_headroom = 1.5;
  EXPECT_THROW(FlexController(queue_, topology_, MakeRacks(), plane_, {},
                              bad, 0),
               ConfigError);
}

// ---------------------------------------------------------------------------
// HoltForecaster (Section IV-D power estimation)
// ---------------------------------------------------------------------------

TEST(HoltForecasterTest, EmptyForecasterReturnsNothing)
{
  const HoltForecaster forecaster;
  EXPECT_FALSE(forecaster.Forecast(Seconds(10.0)).has_value());
  EXPECT_EQ(forecaster.observations(), 0);
}

TEST(HoltForecasterTest, SingleObservationForecastsLevel)
{
  HoltForecaster forecaster;
  forecaster.Observe(HoltParams{}, Seconds(1.0), KiloWatts(40.0));
  const auto forecast = forecaster.Forecast(Seconds(3.0));
  ASSERT_TRUE(forecast.has_value());
  EXPECT_NEAR(forecast->kilowatts(), 40.0, 1e-9);
  EXPECT_EQ(forecaster.observations(), 1);
}

TEST(HoltForecasterTest, TracksLinearRampAheadOfLastValue)
{
  // A steadily climbing rack: the Holt forecast projected to "now"
  // must beat the raw last reading, which is what the controller needs
  // from ~2 s stale telemetry.
  const HoltParams params{0.5, 0.3};
  HoltForecaster forecaster;
  double t = 0.0;
  double value = 100.0;
  for (int i = 0; i < 30; ++i) {
    t += 2.0;
    value += 10.0;  // +5 W/s
    forecaster.Observe(params, Seconds(t), Watts(value));
  }
  const double true_next = value + 10.0;
  const auto forecast = forecaster.Forecast(Seconds(t + 2.0));
  ASSERT_TRUE(forecast.has_value());
  const double forecast_error = std::abs(forecast->value() - true_next);
  const double last_value_error = std::abs(value - true_next);
  EXPECT_LT(forecast_error, last_value_error);
}

TEST(HoltForecasterTest, ForecastsNeverGoNegative)
{
  const HoltParams params{0.8, 0.8};
  HoltForecaster forecaster;
  forecaster.Observe(params, Seconds(1.0), Watts(100.0));
  forecaster.Observe(params, Seconds(2.0), Watts(10.0));  // steep decline
  const auto far = forecaster.Forecast(Seconds(60.0));
  ASSERT_TRUE(far.has_value());
  EXPECT_GE(far->value(), 0.0);
}

TEST(HoltForecasterTest, StaleExtrapolationIsDamped)
{
  // The trend must not extrapolate linearly forever: a forecast far
  // beyond the sampling interval stays near the level.
  HoltForecaster forecaster;
  double t = 0.0;
  for (int i = 0; i < 20; ++i) {
    t += 2.0;
    forecaster.Observe(HoltParams{}, Seconds(t), Watts(1000.0 + 50.0 * i));
  }
  const auto near = forecaster.Forecast(Seconds(t + 2.0));
  const auto far = forecaster.Forecast(Seconds(t + 200.0));
  ASSERT_TRUE(near.has_value());
  ASSERT_TRUE(far.has_value());
  // Undamped linear extrapolation would add ~25 W/s * 198 s ≈ 5 kW.
  EXPECT_LT(far->value() - near->value(), 1000.0);
}

TEST(RackPowerForecasterBankTest, TracksRacksIndependently)
{
  RackPowerForecasterBank bank(3);
  EXPECT_EQ(bank.num_racks(), 3);
  bank.Observe(0, Seconds(1.0), KiloWatts(10.0));
  bank.Observe(2, Seconds(1.0), KiloWatts(30.0));
  EXPECT_TRUE(bank.Forecast(0, Seconds(2.0)).has_value());
  EXPECT_FALSE(bank.Forecast(1, Seconds(2.0)).has_value());
  ASSERT_TRUE(bank.Forecast(2, Seconds(2.0)).has_value());
  EXPECT_NEAR(bank.Forecast(2, Seconds(2.0))->kilowatts(), 30.0, 1e-9);
}

TEST(RackPowerForecasterBankTest, RejectsSmoothingConstantsOutOfRange)
{
  EXPECT_THROW(RackPowerForecasterBank(3, HoltParams{0.0, 0.2}),
               ConfigError);
  EXPECT_THROW(RackPowerForecasterBank(3, HoltParams{1.5, 0.2}),
               ConfigError);
  EXPECT_THROW(RackPowerForecasterBank(3, HoltParams{0.5, -0.1}),
               ConfigError);
  EXPECT_NO_THROW(RackPowerForecasterBank(3, HoltParams{1.0, 0.0}));
}

// ---------------------------------------------------------------------------
// Telemetry to forecast, end to end
// ---------------------------------------------------------------------------

/** Rack powers that ramp up or down and, for some racks, step at 45 s. */
class RampingPowerSource : public telemetry::PowerSource {
 public:
  explicit RampingPowerSource(const sim::EventQueue& queue) : queue_(queue) {}

  Watts
  CurrentPower(telemetry::DeviceId device) const override
  {
    const double t = queue_.Now().value();
    if (device.kind == telemetry::DeviceKind::kUps)
      return Watts(4e5 + 2e3 * t + 1e4 * device.index);
    const double slope = device.index % 3 == 0 ? 40.0 : -15.0;
    const double step = t >= 45.0 && device.index % 4 == 1 ? 3e3 : 0.0;
    return Watts(6e3 + 250.0 * device.index + slope * t + step);
  }

 private:
  const sim::EventQueue& queue_;
};

// A faulted telemetry stream feeding three forecaster banks, pinned bit
// for bit: every delivered reading in delivery order, and every bank's
// forecast of every rack at the end. The Holt arithmetic, the consensus
// reads and the delivery order all sit under these pins. tests/CMakeLists.txt
// reruns it under the non-FMA libm too.
TEST(TelemetryForecastStreamTest, DeliveredReadingsAndForecastsArePinned)
{
  using telemetry::DeviceId;
  using telemetry::DeviceKind;
  constexpr int kUps = 4;
  constexpr int kRacks = 24;
  const Seconds end(120.0);

  sim::EventQueue queue;
  RampingPowerSource source(queue);
  telemetry::PipelineConfig config;
  config.meters_per_device = 3;
  config.num_pollers = 2;
  config.num_buses = 2;
  config.meter.noise_fraction = 0.01;
  config.meter.refresh_interval = Seconds(1.0);
  config.meter.misread_probability = 0.02;
  telemetry::TelemetryPipeline pipeline(queue, source, kUps, kRacks, config,
                                        77);
  std::vector<std::vector<int>> groups(3);
  for (int rack = 0; rack < kRacks; ++rack)
    groups[static_cast<std::size_t>(rack % 3)].push_back(rack);
  pipeline.SetRackPollGroups(groups);

  std::vector<RackPowerForecasterBank> banks;
  banks.emplace_back(kRacks);
  banks.emplace_back(kRacks, HoltParams{0.3, 0.1});
  banks.emplace_back(kRacks, HoltParams{1.0, 0.0});

  Fnv1a stream;
  std::size_t delivered = 0;
  pipeline.Subscribe([&](const telemetry::ReadingBatch& batch) {
    for (const telemetry::BatchReading& r : batch.readings) {
      stream.AddU64(static_cast<std::uint64_t>(batch.kind));
      stream.AddI64(r.index);
      stream.AddDouble(r.value.value());
      stream.AddDouble(batch.sampled_at.value());
      stream.AddDouble(batch.delivered_at.value());
      stream.AddI64(batch.poller);
      stream.AddI64(batch.bus);
      ++delivered;
    }
    if (batch.kind != DeviceKind::kRack)
      return;
    for (RackPowerForecasterBank& bank : banks)
      bank.ObserveBatch(batch.sampled_at, batch.readings);
  });

  // Bus 1 redelivers every batch for 30 s; rack 3's first meter freezes;
  // rack 7 loses one meter, and for 15 s a second one (no quorum).
  const DeviceId rack3{DeviceKind::kRack, 3};
  const DeviceId rack7{DeviceKind::kRack, 7};
  queue.ScheduleAt(Seconds(20.0), [&] { pipeline.SetBusDuplicate(1, true); });
  queue.ScheduleAt(Seconds(50.0), [&] { pipeline.SetBusDuplicate(1, false); });
  queue.ScheduleAt(Seconds(10.0),
                   [&] { pipeline.SetMeterStuck(rack3, 0, true); });
  queue.ScheduleAt(Seconds(70.0),
                   [&] { pipeline.SetMeterStuck(rack3, 0, false); });
  queue.ScheduleAt(Seconds(30.0),
                   [&] { pipeline.SetMeterFailed(rack7, 2, true); });
  queue.ScheduleAt(Seconds(60.0),
                   [&] { pipeline.SetMeterFailed(rack7, 1, true); });
  queue.ScheduleAt(Seconds(75.0),
                   [&] { pipeline.SetMeterFailed(rack7, 1, false); });
  queue.ScheduleAt(Seconds(90.0),
                   [&] { pipeline.SetMeterFailed(rack7, 2, false); });
  pipeline.Start();
  queue.RunUntil(end);

  Fnv1a forecasts;
  for (const RackPowerForecasterBank& bank : banks) {
    for (int rack = 0; rack < kRacks; ++rack) {
      const std::optional<Watts> forecast = bank.Forecast(rack, end);
      ASSERT_TRUE(forecast.has_value()) << "rack " << rack;
      // Within the meters' noise and the Holt lag of the true power.
      EXPECT_NEAR(forecast->value(),
                  source.CurrentPower(DeviceId{DeviceKind::kRack, rack})
                      .value(),
                  600.0)
          << "rack " << rack;
      forecasts.AddDouble(forecast->value());
    }
  }
  EXPECT_EQ(delivered, pipeline.delivered_count());
  EXPECT_EQ(delivered, 7888u);
  EXPECT_EQ(stream.value(), 0xb98a11786920063full);
  EXPECT_EQ(forecasts.value(), 0xc677ce4c499a074cull);
}

// ---------------------------------------------------------------------------
// NotificationBus (Section IV-D power-emergency notifications)
// ---------------------------------------------------------------------------

TEST(NotificationBusTest, DeliversOnlyToMatchingWorkload)
{
  NotificationBus bus;
  int terasort_seen = 0;
  int tpce_seen = 0;
  bus.Subscribe("terasort", [&](const PowerEmergencyNotification&) {
    ++terasort_seen;
  });
  bus.Subscribe("tpce", [&](const PowerEmergencyNotification&) {
    ++tpce_seen;
  });
  PowerEmergencyNotification notification;
  notification.workload = "terasort";
  notification.racks = {1, 2};
  bus.Publish(notification);
  EXPECT_EQ(terasort_seen, 1);
  EXPECT_EQ(tpce_seen, 0);
  EXPECT_EQ(bus.published_count(), 1u);
}

TEST(NotificationBusTest, EmptyWorkloadSubscribesToEverything)
{
  NotificationBus bus;
  std::vector<std::string> seen;
  bus.Subscribe("", [&](const PowerEmergencyNotification& n) {
    seen.push_back(n.workload);
  });
  PowerEmergencyNotification a;
  a.workload = "alpha";
  PowerEmergencyNotification b;
  b.workload = "beta";
  b.cleared = true;
  bus.Publish(a);
  bus.Publish(b);
  EXPECT_EQ(seen, (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(bus.published_count(), 2u);
}

TEST(NotificationBusTest, SubscribersFireInSubscriptionOrder)
{
  NotificationBus bus;
  std::vector<int> order;
  bus.Subscribe("w", [&](const PowerEmergencyNotification&) {
    order.push_back(1);
  });
  bus.Subscribe("", [&](const PowerEmergencyNotification&) {
    order.push_back(2);
  });
  bus.Subscribe("w", [&](const PowerEmergencyNotification&) {
    order.push_back(3);
  });
  PowerEmergencyNotification notification;
  notification.workload = "w";
  bus.Publish(notification);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(NotificationBusTest, PublishWithNoSubscribersStillCounts)
{
  NotificationBus bus;
  PowerEmergencyNotification notification;
  notification.workload = "nobody-listens";
  EXPECT_NO_THROW(bus.Publish(notification));
  EXPECT_EQ(bus.published_count(), 1u);
}

}  // namespace
}  // namespace flex::online
