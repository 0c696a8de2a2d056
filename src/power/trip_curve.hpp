/**
 * @file
 * UPS overload tolerance (trip) curves, and the watch that applies them.
 *
 * Reproduces the paper's Fig. 6: how long a UPS can sustain a given
 * overload before tripping, as a function of load relative to rated
 * capacity, for batteries at the beginning and end of their life. At the
 * worst-case 4N/3 failover load of 133%, the end-of-life curve gives
 * 10 seconds — the budget that bounds Flex-Online's end-to-end latency.
 *
 * TripWatch applies a curve to a load trajectory. Simulated UPS loads
 * are piecewise constant between the events that change them, so the
 * watch decides every trip exactly from those change points alone.
 */
#ifndef FLEX_POWER_TRIP_CURVE_HPP_
#define FLEX_POWER_TRIP_CURVE_HPP_

#include <cstdint>
#include <vector>

#include "common/piecewise.hpp"
#include "common/units.hpp"

namespace flex::power {

class RoomTopology;

/** Battery aging used to select a tolerance curve. */
enum class BatteryLife { kBeginOfLife, kEndOfLife };

/**
 * Overload tolerance as a function of load fraction (1.0 = rated
 * capacity).
 *
 * Loads at or below rated capacity are sustainable indefinitely (the
 * 3.5-minute generator ride-through at 100% is modeled separately via
 * RideThroughAtRated()); above rated capacity the tolerance drops
 * steeply.
 */
class TripCurve {
 public:
  /** Builds the curve for the given battery life stage. */
  static TripCurve ForBatteryLife(BatteryLife life);

  /** Curve with custom breakpoints (load fraction -> seconds). */
  explicit TripCurve(PiecewiseLinear tolerance);

  /**
   * Tolerance before trip at @p load_fraction of rated capacity.
   * Effectively unbounded (kIndefinite) at or below 1.0.
   */
  Seconds ToleranceAt(double load_fraction) const;

  /** Additional ride-through at rated load while generators start. */
  static Seconds RideThroughAtRated() { return Minutes(3.5); }

  /** Sentinel for "sustainable indefinitely". */
  static Seconds Indefinite() { return Hours(1e6); }

  /** The underlying piecewise curve (for plotting / benches). */
  const PiecewiseLinear& curve() const { return tolerance_; }

 private:
  PiecewiseLinear tolerance_;
};

/** One trip a TripWatch found. */
struct Trip {
  int ups = -1;
  Seconds at{0.0};        ///< the instant the overload outlasted its tolerance
  Seconds since{0.0};     ///< start of the overload episode
  double fraction = 0.0;  ///< load / rated capacity that held at the trip
};

/**
 * Exact trip verdicts for piecewise-constant UPS loads.
 *
 * Observe() closes the interval since its previous call under the loads
 * that held in it, then adopts the new loads. Between two calls the
 * loads cannot change, so nothing is polled and nothing is scheduled:
 *  - a UPS is overloaded while its load exceeds rated capacity, the
 *    threshold TripCurve::ToleranceAt uses;
 *  - an overload episode starts with the first interval of positive
 *    length above rated capacity and ends with the first one at or
 *    below it; an interval of zero length counts for nothing;
 *  - a UPS trips when an interval of positive length ends with the
 *    episode's elapsed time above the tolerance at the fraction that
 *    held in it; the trip instant is max(interval start, episode start
 *    + tolerance). A UPS trips at most once per episode.
 *
 * Not thread-safe; each room owns its own watch.
 */
class TripWatch {
 public:
  /** Watches one UPS per entry of @p capacities (rated, positive). */
  TripWatch(TripCurve curve, std::vector<Watts> capacities);
  /** Watches every UPS of @p topology under its trip curve. */
  explicit TripWatch(const RoomTopology& topology);

  /**
   * Closes the interval since the previous call, then adopts @p loads
   * (one per UPS) from @p now on. @p now must not decrease.
   */
  void Observe(Seconds now, const std::vector<Watts>& loads);

  /**
   * Closes the open interval at @p now under the current loads, e.g. at
   * the end of a run; a later Observe() continues from @p now.
   */
  void CloseAt(Seconds now);

  /** True while any UPS's current load exceeds rated capacity. */
  bool overloaded() const { return overloaded_; }
  /** UPS @p ups's current load / rated capacity. */
  double fraction(int ups) const;

  /** Every trip found so far, in the order the intervals closed. */
  const std::vector<Trip>& trips() const { return trips_; }
  bool tripped() const { return !trips_.empty(); }
  /** Largest fraction held above rated for a positive time; 0 if none. */
  double worst_overload_fraction() const { return worst_fraction_; }
  /** Longest overload episode of any UPS. */
  Seconds longest_overload() const { return Seconds(longest_overload_); }
  /** Observe() calls so far. */
  std::uint64_t observations() const { return observations_; }

 private:
  struct UpsState {
    double capacity_w = 0.0;
    double fraction = 0.0;  ///< current load / capacity
    double since = 0.0;     ///< episode start, valid while in_episode
    bool in_episode = false;
    bool tripped = false;  ///< this episode already tripped
  };

  TripCurve curve_;
  std::vector<UpsState> ups_;
  std::vector<Trip> trips_;
  double last_ = 0.0;  ///< start of the open interval
  bool overloaded_ = false;
  double worst_fraction_ = 0.0;
  double longest_overload_ = 0.0;
  std::uint64_t observations_ = 0;
};

}  // namespace flex::power

#endif  // FLEX_POWER_TRIP_CURVE_HPP_
