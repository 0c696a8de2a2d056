/**
 * @file
 * Always-on safety-invariant monitor.
 *
 * Hooks the sim::EventQueue's observer so that after *every* executed
 * event it re-checks the paper's safety claims against ground truth:
 *
 *  (a) trip safety — no UPS sustains an overload longer than its trip
 *      curve tolerates (Sections III, Fig. 6). Decided by the same
 *      power::TripWatch the room emulation uses: loads change only at
 *      events and the monitor sees every event, so each trip is exact
 *      and its violation carries the trip instant;
 *  (b) action legality — power caps only ever appear on non-redundant
 *      cap-able racks (Algorithm 1 never caps SR or non-cap-able ones);
 *  (c) safe release — controllers issue release commands (uncap or
 *      restore) only when the room has recently had headroom, modulo a
 *      telemetry-staleness grace window;
 *  (d) no missed overload — a sustained overload is answered by at
 *      least one controller replica within a response deadline
 *      (idempotent overcorrection is fine, silence is not).
 *
 * The monitor is a pure observer: it never schedules events or touches
 * component state, so attaching it cannot perturb the simulation — the
 * event interleaving with and without the monitor is identical.
 */
#ifndef FLEX_FAULT_INVARIANT_MONITOR_HPP_
#define FLEX_FAULT_INVARIANT_MONITOR_HPP_

#include <string>
#include <vector>

#include "actuation/rack_manager.hpp"
#include "common/units.hpp"
#include "obs/observability.hpp"
#include "online/controller.hpp"
#include "power/topology.hpp"
#include "power/trip_curve.hpp"
#include "sim/event_queue.hpp"
#include "workload/deployment.hpp"

namespace flex::fault {

/** Monitor wiring. */
struct MonitorConfig {
  /** Optional instrumentation sink (null: not instrumented). */
  obs::Observability* obs = nullptr;
};

/** One detected invariant violation. */
struct Violation {
  Seconds at{0.0};  ///< when it happened (a trip: the trip instant)
  std::string invariant;  ///< "ups-trip", "illegal-cap", ...
  std::string message;
};

/**
 * The monitor. Construct it with the room's ground-truth surfaces,
 * Attach() it to the queue, and read violations() after the run.
 */
class InvariantMonitor {
 public:
  /**
   * @param true_ups_loads the running true per-UPS loads
   *        (post-failover redistribution), indexed by UpsId, e.g. a
   *        room's ups_loads(). Read in place at every check, never
   *        copied, so it must outlive the monitor.
   */
  InvariantMonitor(sim::EventQueue& queue,
                   const power::RoomTopology& topology,
                   std::vector<workload::Category> rack_categories,
                   const actuation::ActuationPlane& plane,
                   const std::vector<Watts>& true_ups_loads,
                   MonitorConfig config = {});

  /** Adds a controller replica to watch for (c) and (d). */
  void AddController(const online::FlexController* controller);

  /** Installs the monitor as an event observer on the queue. */
  void Attach();

  /** Uninstalls the observer; a no-op when not attached. */
  void Detach();

  /** Runs every invariant check at the current instant. */
  void Check();

  const std::vector<Violation>& violations() const { return violations_; }

  /**
   * Largest true UPS load fraction held above rated capacity for a
   * positive time (1.0 = rated capacity); 0 if none.
   */
  double worst_overload_fraction() const {
    return watch_.worst_overload_fraction();
  }

  /** Number of Check() invocations (≈ executed events once attached). */
  std::uint64_t checks_run() const { return checks_run_; }

  /** Newline-joined violation messages; empty when all invariants held. */
  std::string Summary() const;

 private:
  void AddViolation(Seconds at, const char* invariant,
                    const std::string& message);
  std::size_t TotalReleaseCommands() const;
  bool AnyControllerActed() const;

  sim::EventQueue& queue_;
  const power::RoomTopology& topology_;
  std::vector<workload::Category> categories_;
  const actuation::ActuationPlane& plane_;
  const std::vector<Watts>& true_ups_loads_;
  MonitorConfig config_;
  std::vector<const online::FlexController*> controllers_;
  sim::ObserverId observer_id_ = 0;  // 0: not attached

  // (a) the trip watch, and how many of its trips are reported.
  power::TripWatch watch_;
  std::size_t trips_reported_ = 0;
  // (b) per-rack cap-violation dedup.
  std::vector<bool> cap_reported_;
  // (c)/(d) room-level unsafe episode.
  double unsafe_since_ = -1.0;
  bool missed_reported_ = false;
  std::size_t seen_release_commands_ = 0;

  std::uint64_t checks_run_ = 0;
  std::vector<Violation> violations_;

  // Cached instrumentation (null: not instrumented).
  obs::Counter* violations_metric_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace flex::fault

#endif  // FLEX_FAULT_INVARIANT_MONITOR_HPP_
