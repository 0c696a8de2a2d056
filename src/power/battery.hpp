/**
 * @file
 * UPS battery energy model.
 *
 * The trip curve (Fig. 6) is a static summary; this model tracks the
 * battery's usable energy through a failover episode: overload drains
 * it (superlinearly in the overload, a Peukert-style effect that
 * matches the curve's steep high-load end), underload recharges it
 * slowly. The Section VI lesson that legacy batteries cannot ride out a
 * full 33% overload long enough — and that new datacenters ship larger
 * batteries — is expressible as a bigger usable-energy budget.
 */
#ifndef FLEX_POWER_BATTERY_HPP_
#define FLEX_POWER_BATTERY_HPP_

#include "common/units.hpp"
#include "obs/observability.hpp"
#include "power/trip_curve.hpp"

namespace flex::power {

/** Parameters of one UPS battery string. */
struct BatteryConfig {
  /** UPS rated output; overload is measured against this. */
  Watts rated_power;
  /** Usable overload-ride-through energy at this life stage. */
  Joules usable_energy;
  /** Recharge rate while the UPS runs at or below rated power. */
  Watts recharge_power;

  /**
   * Calibrated so the time-to-trip at the worst-case 4N/3 failover load
   * (133%) matches the Fig. 6 anchors: 10 s at end of battery life,
   * 30 s at beginning of life.
   */
  static BatteryConfig ForBatteryLife(BatteryLife life, Watts rated_power);
};

/**
 * Stateful battery: advance it with the instantaneous UPS load.
 */
class BatteryModel {
 public:
  explicit BatteryModel(BatteryConfig config);

  /**
   * Attaches instrumentation: publishes this battery's state of charge
   * and overload accumulation under power.ups<index>.* metric names.
   */
  void Bind(obs::Observability* obs, int ups_index);

  /** Advances the battery by @p dt under UPS output @p load. */
  void Advance(Watts load, Seconds dt);

  /** True once the energy budget was exhausted while overloaded. */
  bool tripped() const { return tripped_; }

  /** Remaining usable energy. */
  Joules remaining() const { return remaining_; }

  /** Remaining energy as a fraction of the usable budget. */
  double StateOfCharge() const;

  /** Time to trip at a constant @p load; Indefinite at/below rated. */
  Seconds TimeToTrip(Watts load) const;

  const BatteryConfig& config() const { return config_; }

 private:
  /** Energy drain rate at the given load (zero at/below rated). */
  double DrainWatts(Watts load) const;

  BatteryConfig config_;
  Joules remaining_;
  bool tripped_ = false;

  // Cached metric objects (registry lookups stay off the hot path).
  obs::Gauge* soc_metric_ = nullptr;
  obs::Counter* overload_energy_metric_ = nullptr;
  obs::Counter* overload_seconds_metric_ = nullptr;
  obs::Counter* trips_metric_ = nullptr;
};

}  // namespace flex::power

#endif  // FLEX_POWER_BATTERY_HPP_
