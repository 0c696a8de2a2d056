/**
 * @file
 * The Flex-Online controller (paper Section IV-D).
 *
 * Each controller instance subscribes to the telemetry pipeline, keeps
 * the latest power picture of every UPS and rack, and reacts to UPS
 * overdraw by running Algorithm 1 and enforcing the selected actions
 * through the rack managers. Controllers run multi-primary: several
 * replicas observe telemetry at skewed times and act independently;
 * because actions are idempotent the worst outcome is overcorrection,
 * never a missed overload.
 *
 * Once the failed UPS returns and the room has headroom again, the
 * controller lifts power caps and restores shut-down racks.
 */
#ifndef FLEX_ONLINE_CONTROLLER_HPP_
#define FLEX_ONLINE_CONTROLLER_HPP_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "actuation/rack_manager.hpp"
#include "obs/observability.hpp"
#include "online/decision.hpp"
#include "online/forecaster.hpp"
#include "online/notifications.hpp"
#include "power/topology.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/pipeline.hpp"

namespace flex::online {

/**
 * Static description of one rack the controller manages. A rack table
 * is indexed by rack id: entry i describes rack i.
 */
struct ManagedRack {
  std::string workload;
  workload::Category category = workload::Category::kNonRedundantNonCapable;
  power::PduPairId pdu_pair = -1;
  Watts allocated;
  /** Absolute flex power (lowest cap) for cap-able racks. */
  Watts flex_power;
};

/** Controller tuning. */
struct ControllerConfig {
  /** Safety buffer below the UPS limit (Algorithm 1 line 4). */
  Watts buffer = KiloWatts(20.0);
  /**
   * Headroom required before releasing actions: the room must fit under
   * (1 - release_headroom) of every UPS limit with all UPSes healthy.
   */
  double release_headroom = 0.05;
  /** How long conditions must look healthy before releasing. */
  Seconds release_delay = Seconds(30.0);
  /** Optional instrumentation sink (null: not instrumented). */
  obs::Observability* obs = nullptr;
};

/** Counters and timing the controller exposes for evaluation. */
struct ControllerStats {
  int overdraw_events = 0;        ///< distinct overdraw episodes detected
  int throttle_commands = 0;
  int shutdown_commands = 0;
  int restore_commands = 0;
  int uncap_commands = 0;
  int failed_commands = 0;
  /** Detection -> last enforcement completion, per episode (seconds). */
  std::vector<double> enforcement_latencies;
};

/**
 * The racks of a room, indexed by rack id. Immutable once built, so
 * every controller replica of the room shares one table.
 */
using RackTable = std::shared_ptr<const std::vector<ManagedRack>>;

/**
 * One Flex-Online controller replica.
 */
class FlexController {
 public:
  FlexController(sim::EventQueue& queue, const power::RoomTopology& topology,
                 RackTable racks, actuation::ActuationPlane& plane,
                 ImpactRegistry impact, ControllerConfig config,
                 int replica_id, NotificationBus* notifications = nullptr);

  /**
   * Telemetry entry point for one reading of either kind. Readings of
   * devices outside this controller's room are ignored. RoomEmulation
   * passes UPS readings this way and rack batches to OnRackBatch.
   */
  void OnReading(const telemetry::DeviceReading& reading);

  /**
   * Folds one delivered rack batch into this replica's forecasters, as
   * OnReading would reading by reading. Every reading must name a rack
   * of this controller's table (ConfigError otherwise).
   */
  void OnRackBatch(const telemetry::ReadingBatch& batch);

  /** Racks this controller has acted on (and not yet released). */
  const std::set<int>& acted_racks() const { return acted_racks_; }

  const ControllerStats& stats() const { return stats_; }
  int replica_id() const { return replica_id_; }

  /** True while corrective actions are in force. */
  bool actions_in_force() const { return !acted_racks_.empty(); }

  /**
   * Suspends/resumes this replica (process crash and restart). While
   * suspended the replica drops readings; on resume it picks up from its
   * pre-crash state, which may be stale — acting on it is safe because
   * actions are idempotent and only ever overcorrect.
   */
  void SetSuspended(bool suspended) { suspended_ = suspended; }
  bool suspended() const { return suspended_; }

 private:
  void EvaluateOverdraw(const telemetry::DeviceReading& reading);
  void Enforce(const std::vector<Action>& actions, Seconds detected_at);
  /** The table entry of the rack @p action targets. */
  const ManagedRack& RackOf(const Action& action) const;
  void MaybeRelease();
  void ReleaseAll();

  /** Builds Algorithm 1's input from the latest telemetry. */
  DecisionInput BuildDecisionInput() const;

  sim::EventQueue& queue_;
  const power::RoomTopology& topology_;
  RackTable racks_;
  actuation::ActuationPlane& plane_;
  ImpactRegistry impact_;
  ControllerConfig config_;
  int replica_id_;
  NotificationBus* notifications_;  // optional; not owned
  std::set<std::string> notified_workloads_;

  /** Latest UPS telemetry; per-rack power is forecast, not stored. */
  std::vector<std::optional<Watts>> ups_power_;
  RackPowerForecasterBank rack_forecasts_;

  std::set<int> acted_racks_;
  std::map<int, ActionType> action_types_;  // what we did to each rack
  bool suspended_ = false;
  bool episode_active_ = false;
  Seconds healthy_since_{-1.0};
  Seconds last_enforce_{-1e18};
  ControllerStats stats_;

  // Cached metric objects (registry lookups stay off the hot path).
  obs::Counter* overdraw_metric_ = nullptr;
  obs::Counter* actions_metric_ = nullptr;
  obs::Counter* releases_metric_ = nullptr;
  obs::Histogram* enforce_latency_metric_ = nullptr;
};

}  // namespace flex::online

#endif  // FLEX_ONLINE_CONTROLLER_HPP_
