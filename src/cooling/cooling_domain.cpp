#include "cooling_domain.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "power/trip_curve.hpp"

namespace flex::cooling {

namespace {

/** Heat removal capacity of each cooling unit. */
constexpr Watts kUnitCapacity = MegaWatts(3.2);
/** Thermal inertia of the room (J per degree C). */
constexpr double kThermalMassJPerC = 1.0e8;
/** Supply temperature with adequate cooling. */
constexpr double kSupplyTemperatureC = 22.0;
/** Relaxation time back toward supply temperature when cooled. */
constexpr Seconds kCooldownTau = Seconds(120.0);

/** Mitigation check cadence. */
constexpr Seconds kCheckPeriod = Seconds(15.0);
/** Time for workload migration to another cooling domain to complete. */
constexpr Seconds kMigrationDelay = Minutes(3.0);
/** Fraction of the heat load that migration can move away. */
constexpr double kMigratableFraction = 0.4;
/** Engage Flex capping when overheat is closer than this. */
constexpr Seconds kFlexEngageThreshold = Minutes(2.0);

}  // namespace

CoolingDomain::CoolingDomain(CoolingDomainConfig config)
    : config_(config),
      unit_failed_(static_cast<std::size_t>(config.num_units), false),
      temperature_c_(kSupplyTemperatureC)
{
  FLEX_REQUIRE(config_.num_units >= 1, "need at least one cooling unit");
  FLEX_REQUIRE(config_.max_safe_temperature_c > kSupplyTemperatureC,
               "safe temperature must exceed supply temperature");
}

void
CoolingDomain::SetUnitFailed(int unit, bool failed)
{
  FLEX_REQUIRE(unit >= 0 && unit < config_.num_units,
               "cooling unit index out of range");
  unit_failed_[static_cast<std::size_t>(unit)] = failed;
}

int
CoolingDomain::healthy_units() const
{
  int healthy = 0;
  for (const bool failed : unit_failed_)
    healthy += failed ? 0 : 1;
  return healthy;
}

Watts
CoolingDomain::AvailableCooling() const
{
  return kUnitCapacity * static_cast<double>(healthy_units());
}

bool
CoolingDomain::Overheated() const
{
  return temperature_c_ > config_.max_safe_temperature_c;
}

void
CoolingDomain::Advance(Watts load, Seconds dt)
{
  FLEX_REQUIRE(load >= Watts(0.0), "negative heat load");
  FLEX_REQUIRE(dt.value() >= 0.0, "negative time step");
  const Watts cooling = AvailableCooling();
  if (load > cooling) {
    // Deficit: the room heats with the uncooled remainder.
    const double deficit = (load - cooling).value();
    temperature_c_ += deficit * dt.value() / kThermalMassJPerC;
  } else {
    // Headroom: relax toward the supply temperature.
    const double decay = std::exp(-dt.value() / kCooldownTau.value());
    temperature_c_ = kSupplyTemperatureC +
                     (temperature_c_ - kSupplyTemperatureC) * decay;
  }
}

Seconds
CoolingDomain::TimeToOverheat(Watts load) const
{
  const Watts cooling = AvailableCooling();
  if (load <= cooling)
    return power::TripCurve::Indefinite();
  if (Overheated())
    return Seconds(0.0);
  const double deficit = (load - cooling).value();
  const double headroom_c = config_.max_safe_temperature_c - temperature_c_;
  return Seconds(headroom_c * kThermalMassJPerC / deficit);
}

CoolingFailureHandler::CoolingFailureHandler(
    sim::EventQueue& queue, CoolingDomain& domain,
    std::function<Watts()> load_source,
    std::function<void(Watts)> request_power_cut)
    : queue_(queue),
      domain_(domain),
      load_source_(std::move(load_source)),
      request_power_cut_(std::move(request_power_cut))
{
  FLEX_REQUIRE(static_cast<bool>(load_source_), "null load source");
  FLEX_REQUIRE(static_cast<bool>(request_power_cut_),
               "null power-cut callback");
}

Watts
CoolingFailureHandler::EffectiveLoad() const
{
  return std::max(Watts(0.0), load_source_() - migrated_);
}

void
CoolingFailureHandler::Start()
{
  FLEX_REQUIRE(!running_, "handler already started");
  running_ = true;
  queue_.SchedulePeriodic(kCheckPeriod, [this] {
    if (!running_)
      return false;
    Check();
    return true;
  });
}

void
CoolingFailureHandler::Stop()
{
  running_ = false;
}

void
CoolingFailureHandler::Check()
{
  const Watts load = EffectiveLoad();
  const Watts cooling = domain_.AvailableCooling();
  if (load <= cooling) {
    // Healthy again: completed migrations drain back over time; model
    // that by releasing the migrated load once there is ample headroom.
    if (migrated_ > Watts(0.0) && load + migrated_ <= cooling)
      migrated_ = Watts(0.0);
    return;
  }

  // Step 1 of the ladder: migrate workloads to another cooling domain.
  // Temperature rise is gradual, so this usually completes in time.
  if (!migration_pending_ && migrated_ <= Watts(0.0)) {
    migration_pending_ = true;
    const Watts moved = load * kMigratableFraction;
    queue_.Schedule(kMigrationDelay, [this, moved] {
      migrated_ = moved;
      migration_pending_ = false;
    });
  }

  // Step 2: if the room would overheat before migration can land (or
  // migration was not enough), engage Flex power capping now.
  const Seconds to_overheat = domain_.TimeToOverheat(load);
  const bool migration_will_save_us =
      migration_pending_ &&
      to_overheat.value() > kMigrationDelay.value() + kCheckPeriod.value();
  if (!migration_will_save_us &&
      to_overheat.value() <= kFlexEngageThreshold.value()) {
    ++flex_engagements_;
    request_power_cut_(load - cooling);
  }
}

}  // namespace flex::cooling
