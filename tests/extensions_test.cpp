/**
 * @file
 * Tests for the deeper substrate features: battery energy model, PDU
 * 2N constraints, flex-power estimation via statistical multiplexing,
 * rack power forecasting, and corrective-model comparisons.
 */
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "offline/flex_offline.hpp"
#include "offline/placement.hpp"
#include "offline/policies.hpp"
#include "online/forecaster.hpp"
#include "power/battery.hpp"
#include "workload/flex_power_estimator.hpp"
#include "workload/trace.hpp"

namespace flex {
namespace {

using workload::Category;

// --- Battery model ---------------------------------------------------------

TEST(BatteryTest, CalibrationMatchesTripCurveAnchors)
{
  const Watts rated = MegaWatts(1.2);
  power::BatteryModel end_of_life(power::BatteryConfig::ForBatteryLife(
      power::BatteryLife::kEndOfLife, rated));
  power::BatteryModel begin_of_life(power::BatteryConfig::ForBatteryLife(
      power::BatteryLife::kBeginOfLife, rated));
  // 10 s / 30 s at the worst-case 133% failover load.
  EXPECT_NEAR(end_of_life.TimeToTrip(rated * (4.0 / 3.0)).value(), 10.0,
              0.2);
  EXPECT_NEAR(begin_of_life.TimeToTrip(rated * (4.0 / 3.0)).value(), 30.0,
              0.5);
}

TEST(BatteryTest, DeeperOverloadTripsDisproportionatelyFaster)
{
  const Watts rated = MegaWatts(1.2);
  power::BatteryModel battery(power::BatteryConfig::ForBatteryLife(
      power::BatteryLife::kEndOfLife, rated));
  const double t133 = battery.TimeToTrip(rated * 1.33).value();
  const double t200 = battery.TimeToTrip(rated * 2.0).value();
  // Peukert effect: 3x the overload, much less than 1/3 the time.
  EXPECT_LT(t200, t133 / 3.0);
  EXPECT_LT(t200, 2.0);
}

TEST(BatteryTest, AdvanceDrainsAndTrips)
{
  const Watts rated = KiloWatts(100.0);
  power::BatteryModel battery(power::BatteryConfig::ForBatteryLife(
      power::BatteryLife::kEndOfLife, rated));
  EXPECT_DOUBLE_EQ(battery.StateOfCharge(), 1.0);
  // Ride the 133% overload for 5 s: about half the budget gone.
  for (int i = 0; i < 5; ++i)
    battery.Advance(rated * (4.0 / 3.0), Seconds(1.0));
  EXPECT_FALSE(battery.tripped());
  EXPECT_NEAR(battery.StateOfCharge(), 0.5, 0.05);
  // Six more seconds exhausts it.
  for (int i = 0; i < 6; ++i)
    battery.Advance(rated * (4.0 / 3.0), Seconds(1.0));
  EXPECT_TRUE(battery.tripped());
  EXPECT_DOUBLE_EQ(battery.StateOfCharge(), 0.0);
}

TEST(BatteryTest, RechargesWhenUnderloaded)
{
  const Watts rated = KiloWatts(100.0);
  power::BatteryModel battery(power::BatteryConfig::ForBatteryLife(
      power::BatteryLife::kEndOfLife, rated));
  battery.Advance(rated * 1.33, Seconds(4.0));
  const double drained = battery.StateOfCharge();
  ASSERT_LT(drained, 1.0);
  battery.Advance(rated * 0.8, Minutes(10.0));
  EXPECT_GT(battery.StateOfCharge(), drained);
  EXPECT_LE(battery.StateOfCharge(), 1.0);
}

TEST(BatteryTest, AtOrBelowRatedNeverTrips)
{
  const Watts rated = KiloWatts(100.0);
  power::BatteryModel battery(power::BatteryConfig::ForBatteryLife(
      power::BatteryLife::kEndOfLife, rated));
  battery.Advance(rated, Hours(2.0));
  EXPECT_FALSE(battery.tripped());
  EXPECT_GE(battery.TimeToTrip(rated).value(), 1e6);
}

// --- PDU 2N constraint -----------------------------------------------------

TEST(PduConstraintTest, PairAllocationCappedAtSinglePduRating)
{
  power::RoomConfig config;
  config.ups_capacity = MegaWatts(2.4);
  config.pdu_rating = KiloWatts(300.0);  // deliberately binding
  config.pdu_pairs_per_ups_pair = 1;
  config.rows_per_pdu_pair = 2;
  config.racks_per_row = 20;
  const power::RoomTopology room{config};
  offline::CapacityTracker tracker(room);

  workload::Deployment d;
  d.id = 0;
  d.workload = "sr";
  d.category = Category::kSoftwareRedundant;
  d.num_racks = 10;
  d.power_per_rack = KiloWatts(20.0);  // 200 kW per deployment
  d.flex_power_fraction = 0.0;
  ASSERT_TRUE(tracker.CanPlace(d, 0));
  tracker.Place(d, 0);
  // A second 200 kW deployment would push the pair to 400 kW > 300 kW
  // even though slots and UPS power are plentiful.
  EXPECT_FALSE(tracker.CanPlace(d, 0));
  EXPECT_TRUE(tracker.CanPlace(d, 1));
}

// --- Corrective models -----------------------------------------------------

TEST(CorrectiveModelTest, CappedPowerPerModel)
{
  workload::Deployment sr;
  sr.id = 0;
  sr.workload = "sr";
  sr.category = Category::kSoftwareRedundant;
  sr.num_racks = 10;
  sr.power_per_rack = KiloWatts(10.0);
  sr.flex_power_fraction = 0.0;
  workload::Deployment cap = sr;
  cap.category = Category::kNonRedundantCapable;
  cap.flex_power_fraction = 0.8;

  using offline::CappedPowerUnder;
  using offline::CorrectiveModel;
  // Flex: SR shuts down entirely; cap-able throttles to flex power.
  EXPECT_NEAR(CappedPowerUnder(CorrectiveModel::kFlex, sr).value(), 0.0,
              1e-9);
  EXPECT_NEAR(CappedPowerUnder(CorrectiveModel::kFlex, cap).kilowatts(),
              80.0, 1e-6);
  // Throttle-only (CapMaestro-like): SR cannot be shut down.
  EXPECT_NEAR(
      CappedPowerUnder(CorrectiveModel::kThrottleOnly, sr).kilowatts(),
      100.0, 1e-6);
  EXPECT_NEAR(
      CappedPowerUnder(CorrectiveModel::kThrottleOnly, cap).kilowatts(),
      80.0, 1e-6);
  // Conventional: nothing recoverable.
  EXPECT_NEAR(CappedPowerUnder(CorrectiveModel::kNone, sr).kilowatts(),
              100.0, 1e-6);
}

TEST(CorrectiveModelTest, FlexUnlocksMoreReserveThanThrottleOnly)
{
  const power::RoomTopology room(power::RoomConfig::EvaluationRoom());
  Rng rng(2024);
  const auto trace = workload::GenerateTrace(
      workload::TraceConfig{}, room.TotalProvisionedPower(), rng);

  auto conventional = offline::MakeConventionalPolicy();
  auto capmaestro = offline::MakeCapMaestroLikePolicy();
  offline::BalancedRoundRobinPolicy flex;

  const Watts p_conventional =
      conventional.Place(room, trace).PlacedPower();
  const Watts p_capmaestro = capmaestro.Place(room, trace).PlacedPower();
  const Watts p_flex = flex.Place(room, trace).PlacedPower();

  // Conventional cannot exceed the failover budget.
  EXPECT_LE(p_conventional.value(), room.FailoverBudget().value() + 1e-3);
  // Throttle-only unlocks some reserve; Flex unlocks more.
  EXPECT_GT(p_capmaestro.value(), p_conventional.value());
  EXPECT_GT(p_flex.value(), p_capmaestro.value());
}

// --- Flex power estimation -------------------------------------------------

TEST(FlexPowerEstimatorTest, ColdRacksAllowDeepCaps)
{
  const workload::FlexPowerEstimator estimator;
  // Racks that never exceed 60%: capping at the minimum fraction is free.
  const std::vector<double> cold(200, 0.55);
  EXPECT_NEAR(estimator.EstimateFraction(cold),
              estimator.config().min_fraction, 1e-9);
}

TEST(FlexPowerEstimatorTest, HotRacksForceHighFlexPower)
{
  const workload::FlexPowerEstimator estimator;
  // Racks pinned at 95%: a cap at c cuts (0.95-c)/0.95; keeping that
  // under 10% needs c >= 0.855.
  const std::vector<double> hot(200, 0.95);
  const double fraction = estimator.EstimateFraction(hot);
  EXPECT_NEAR(fraction, 0.95 * 0.9, 0.01);
  EXPECT_NEAR(estimator.AverageReductionAt(hot, fraction), 0.10, 0.005);
}

TEST(FlexPowerEstimatorTest, MultiplexedMixLandsInThePapersRange)
{
  // A realistic spread of rack utilizations: statistical multiplexing
  // lets the estimator pick a cap in the paper's 0.75-0.85 band while
  // bounding average reduction at 10%.
  Rng rng(99);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i)
    samples.push_back(rng.TruncatedNormal(0.78, 0.10, 0.4, 1.0));
  const workload::FlexPowerEstimator estimator;
  const double fraction = estimator.EstimateFraction(samples);
  EXPECT_GT(fraction, 0.70);
  EXPECT_LT(fraction, 0.90);
  EXPECT_LE(estimator.AverageReductionAt(samples, fraction), 0.10 + 1e-6);
}

TEST(FlexPowerEstimatorTest, ReductionIsMonotoneInCap)
{
  Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i)
    samples.push_back(rng.Uniform(0.5, 1.0));
  const workload::FlexPowerEstimator estimator;
  double previous = 1.0;
  for (double c = 0.5; c <= 1.0; c += 0.05) {
    const double reduction = estimator.AverageReductionAt(samples, c);
    EXPECT_LE(reduction, previous + 1e-12);
    previous = reduction;
  }
  EXPECT_NEAR(estimator.AverageReductionAt(samples, 1.0), 0.0, 1e-12);
}

TEST(FlexPowerEstimatorTest, ValidatesInputs)
{
  workload::FlexPowerEstimatorConfig bad;
  bad.min_fraction = 0.9;
  bad.max_fraction = 0.5;
  EXPECT_THROW(workload::FlexPowerEstimator{bad}, ConfigError);
  const workload::FlexPowerEstimator estimator;
  EXPECT_THROW(estimator.EstimateFraction({}), ConfigError);
}

// --- Forecaster ------------------------------------------------------------

TEST(ForecasterTest, FirstObservationIsTheForecast)
{
  online::HoltForecaster forecaster;
  EXPECT_FALSE(forecaster.Forecast(Seconds(0.0)).has_value());
  forecaster.Observe(online::HoltParams{}, Seconds(0.0), KiloWatts(10.0));
  const auto forecast = forecaster.Forecast(Seconds(2.0));
  ASSERT_TRUE(forecast);
  EXPECT_NEAR(forecast->kilowatts(), 10.0, 1e-9);
}

TEST(ForecasterTest, TracksALinearRamp)
{
  const online::HoltParams params{0.6, 0.4};
  online::HoltForecaster forecaster;
  // 1 kW/s ramp sampled every 2 s.
  for (int i = 0; i <= 20; ++i)
    forecaster.Observe(params, Seconds(2.0 * i), KiloWatts(10.0 + 2.0 * i));
  // Project 2 s ahead: should be near 52 kW (the ramp continued).
  const auto forecast = forecaster.Forecast(Seconds(42.0));
  ASSERT_TRUE(forecast);
  EXPECT_NEAR(forecast->kilowatts(), 52.0, 3.0);
}

TEST(ForecasterTest, DampsStaleExtrapolation)
{
  const online::HoltParams params{0.6, 0.4};
  online::HoltForecaster forecaster;
  for (int i = 0; i <= 10; ++i)
    forecaster.Observe(params, Seconds(2.0 * i), KiloWatts(10.0 + 2.0 * i));
  // An hour with no data: the trend must not extrapolate unboundedly.
  const auto forecast = forecaster.Forecast(Hours(1.0));
  ASSERT_TRUE(forecast);
  EXPECT_LT(forecast->kilowatts(), 60.0);
}

TEST(ForecasterTest, NeverForecastsNegativePower)
{
  const online::HoltParams params{0.9, 0.9};
  online::HoltForecaster forecaster;
  forecaster.Observe(params, Seconds(0.0), KiloWatts(10.0));
  forecaster.Observe(params, Seconds(2.0), KiloWatts(1.0));
  const auto forecast = forecaster.Forecast(Seconds(10.0));
  ASSERT_TRUE(forecast);
  EXPECT_GE(forecast->value(), 0.0);
}

TEST(ForecasterTest, DuplicateDeliveriesAreHarmless)
{
  const online::HoltParams params;
  online::HoltForecaster forecaster;
  forecaster.Observe(params, Seconds(1.0), KiloWatts(10.0));
  forecaster.Observe(params, Seconds(1.0), KiloWatts(10.0));  // redundant bus copy
  forecaster.Observe(params, Seconds(1.0), KiloWatts(10.0));
  const auto forecast = forecaster.Forecast(Seconds(3.0));
  ASSERT_TRUE(forecast);
  EXPECT_NEAR(forecast->kilowatts(), 10.0, 1e-6);
}

TEST(ForecasterBankTest, PerRackIsolation)
{
  online::RackPowerForecasterBank bank(4);
  bank.Observe(0, Seconds(0.0), KiloWatts(5.0));
  bank.Observe(2, Seconds(0.0), KiloWatts(9.0));
  EXPECT_NEAR(bank.Forecast(0, Seconds(1.0))->kilowatts(), 5.0, 1e-9);
  EXPECT_NEAR(bank.Forecast(2, Seconds(1.0))->kilowatts(), 9.0, 1e-9);
  EXPECT_FALSE(bank.Forecast(1, Seconds(1.0)).has_value());
  EXPECT_THROW(bank.Observe(9, Seconds(0.0), Watts(1.0)), ConfigError);
}

// --- Forecast-aware placement ----------------------------------------------

TEST(ForecastAwarePolicyTest, PlacesSafelyAndNamesItself)
{
  power::RoomConfig config;
  config.ups_capacity = KiloWatts(600.0);
  config.pdu_pairs_per_ups_pair = 1;
  config.rows_per_pdu_pair = 2;
  config.racks_per_row = 10;
  const power::RoomTopology room{config};
  Rng rng(2030);
  const auto trace = workload::GenerateTrace(
      workload::TraceConfig{}, room.TotalProvisionedPower(), rng);

  offline::FlexOfflinePolicy policy =
      offline::FlexOfflinePolicy::ForecastAware(trace, 0.7, 2.0);
  EXPECT_EQ(policy.Name(), "Flex-Offline-Forecast");
  const offline::Placement placement = policy.Place(room, trace);
  EXPECT_GT(placement.NumPlaced(), 0);
  EXPECT_TRUE(power::ValidateFailoverSafety(
                  room, placement.CappedPduLoads(room))
                  .safe);
}

TEST(ForecastAwarePolicyTest, RejectsBadConfidence)
{
  EXPECT_THROW(offline::FlexOfflinePolicy::ForecastAware({}, 1.5),
               ConfigError);
}

}  // namespace
}  // namespace flex
