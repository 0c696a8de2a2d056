#include "battery.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"

namespace flex::power {

namespace {

/** Reference overload (fraction of rated) at which drain is nominal. */
constexpr double kReferenceOverload = 1.0 / 3.0;

/**
 * Peukert-style exponent: drain scales as overload^k, so deep
 * overloads exhaust the battery disproportionately fast. ~2 matches
 * the Fig. 6 anchors (10 s at 133%, ~1 s at 200%, end of life).
 */
constexpr double kPeukertExponent = 2.08;

}  // namespace

BatteryConfig
BatteryConfig::ForBatteryLife(BatteryLife life, Watts rated_power)
{
  FLEX_REQUIRE(rated_power > Watts(0.0), "rated power must be positive");
  BatteryConfig config;
  config.rated_power = rated_power;
  // At the reference 133% load the drain equals the raw overload power
  // (1/3 of rated), so usable energy = overload power x ride-through.
  const double ride_through_seconds =
      life == BatteryLife::kEndOfLife ? 10.0 : 30.0;
  config.usable_energy =
      rated_power * kReferenceOverload * Seconds(ride_through_seconds);
  // Recharging a ride-through budget takes minutes, not seconds.
  config.recharge_power = rated_power * 0.002;
  return config;
}

BatteryModel::BatteryModel(BatteryConfig config)
    : config_(config), remaining_(config.usable_energy)
{
  FLEX_REQUIRE(config_.rated_power > Watts(0.0),
               "rated power must be positive");
  FLEX_REQUIRE(config_.usable_energy > Joules(0.0),
               "usable energy must be positive");
  FLEX_REQUIRE(config_.recharge_power >= Watts(0.0),
               "recharge power must be non-negative");
}

double
BatteryModel::DrainWatts(Watts load) const
{
  if (load <= config_.rated_power)
    return 0.0;
  const double overload_fraction =
      (load - config_.rated_power) / config_.rated_power;
  const double raw = (load - config_.rated_power).value();
  // Peukert: drain is superlinear in the overload, normalized so that
  // at the reference overload the drain equals the raw overload power.
  return raw * std::pow(overload_fraction / kReferenceOverload,
                        kPeukertExponent - 1.0);
}

void
BatteryModel::Bind(obs::Observability* obs, int ups_index)
{
  if (obs == nullptr) {
    soc_metric_ = nullptr;
    overload_energy_metric_ = nullptr;
    overload_seconds_metric_ = nullptr;
    trips_metric_ = nullptr;
    return;
  }
  FLEX_REQUIRE(ups_index >= 0, "negative UPS index");
  obs::MetricsRegistry& metrics = obs->metrics();
  const std::string prefix = "power.ups" + std::to_string(ups_index);
  soc_metric_ = &metrics.gauge(prefix + ".soc");
  overload_energy_metric_ = &metrics.counter(prefix + ".overload_energy_j");
  overload_seconds_metric_ = &metrics.counter(prefix + ".overload_seconds");
  trips_metric_ = &metrics.counter(prefix + ".trips");
  soc_metric_->Set(StateOfCharge());
}

void
BatteryModel::Advance(Watts load, Seconds dt)
{
  FLEX_REQUIRE(dt.value() >= 0.0, "negative time step");
  const double drain = DrainWatts(load);
  if (drain > 0.0) {
    remaining_ -= Joules(drain * dt.value());
    const bool was_tripped = tripped_;
    if (remaining_ <= Joules(0.0)) {
      remaining_ = Joules(0.0);
      tripped_ = true;
    }
    if (overload_energy_metric_ != nullptr) {
      overload_energy_metric_->Increment(drain * dt.value());
      overload_seconds_metric_->Increment(dt.value());
      if (tripped_ && !was_tripped)
        trips_metric_->Increment();
    }
  } else {
    remaining_ += config_.recharge_power * dt;
    if (remaining_ > config_.usable_energy)
      remaining_ = config_.usable_energy;
  }
  if (soc_metric_ != nullptr)
    soc_metric_->Set(StateOfCharge());
}

double
BatteryModel::StateOfCharge() const
{
  return remaining_.value() / config_.usable_energy.value();
}

Seconds
BatteryModel::TimeToTrip(Watts load) const
{
  const double drain = DrainWatts(load);
  if (drain <= 0.0)
    return TripCurve::Indefinite();
  return Seconds(remaining_.value() / drain);
}

}  // namespace flex::power
