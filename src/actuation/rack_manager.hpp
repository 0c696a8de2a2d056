/**
 * @file
 * Out-of-band rack actuation: the rack manager (RM) / BMC model.
 *
 * Flex-Online enforces its decisions through rack managers: RAPL-style
 * power caps for throttling and power-off for shutdown (paper Sections
 * IV-D and VI). Actions complete after a latency drawn from a
 * distribution calibrated to the paper's production numbers (~2 s at the
 * 99.9th percentile), and can fail when the RM is unreachable or its
 * firmware has regressed — the failure modes the paper's background
 * monitoring service exists to catch.
 */
#ifndef FLEX_ACTUATION_RACK_MANAGER_HPP_
#define FLEX_ACTUATION_RACK_MANAGER_HPP_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "obs/observability.hpp"
#include "sim/event_queue.hpp"

namespace flex::actuation {

/** Power-control state of one rack. */
struct RackState {
  bool powered_on = true;
  /** Active power cap, if any (absolute watts). */
  std::optional<Watts> power_cap;
};

/** Failure knobs for rack managers. */
struct RackManagerConfig {
  /** Probability an action is lost because the RM is unreachable. */
  double unreachable_probability = 0.0;
  /** Optional instrumentation sink (null: not instrumented). */
  obs::Observability* obs = nullptr;
};

class ActuationPlane;

/**
 * One rack's out-of-band controller.
 *
 * Commands are asynchronous: the completion callback fires on the event
 * queue after the action latency, reporting success. Commands are
 * idempotent (re-throttling an already-capped rack simply overwrites the
 * cap), which is what lets Flex run multiple controller replicas safely.
 *
 * A rack manager stores only what differs per rack: its RNG stream, its
 * power state and its fault flags. The event queue, the config, the
 * state listener, the metrics and the latency samples are its plane's,
 * held once per room.
 */
class RackManager {
 public:
  using Completion = std::function<void(bool success)>;

  /** Installs an absolute power cap (RAPL-like). */
  void Throttle(Watts cap, Completion done);
  /** Cuts rack power. */
  void Shutdown(Completion done);
  /** Removes any power cap. */
  void RemoveCap(Completion done);
  /** Powers the rack back on (boot takes longer than a cap action). */
  void Restore(Completion done);

  RackState state() const;
  int rack_id() const { return rack_id_; }

  // --- Failure injection & monitoring hooks -------------------------------

  /** Makes the RM drop all commands (management network issue). */
  void SetUnreachable(bool unreachable) { unreachable_ = unreachable; }
  bool unreachable() const { return unreachable_; }

  /** Marks firmware as regressed: actions complete but have no effect. */
  void SetFirmwareStale(bool stale) { firmware_stale_ = stale; }
  bool firmware_stale() const { return firmware_stale_; }

  /**
   * Adds a fixed delay to every command (management-network congestion /
   * slow BMC firmware). Applies to failure timeouts too; 0 clears it.
   */
  void SetExtraLatency(Seconds extra);
  Seconds extra_latency() const { return extra_latency_; }

  /** Health probe: true when reachable with healthy firmware. */
  bool Probe() const { return !unreachable_ && !firmware_stale_; }

  /** Re-flashes firmware (clears the stale flag). */
  void RedeployFirmware() { firmware_stale_ = false; }

 private:
  friend class ActuationPlane;
  enum class Kind { kThrottle, kShutdown, kRemoveCap, kRestore };

  RackManager(ActuationPlane& plane, int rack_id, Rng rng);

  void Execute(Kind kind, std::optional<Watts> cap, Completion done);
  Seconds DrawLatency(Kind kind);

  ActuationPlane* plane_;
  Rng rng_;
  Watts cap_;  // the active cap while has_cap_
  Seconds extra_latency_{0.0};
  int rack_id_;
  bool powered_on_ = true;
  bool has_cap_ = false;
  bool unreachable_ = false;
  bool firmware_stale_ = false;
};

/**
 * All rack managers of a room, plus the state they share: the event
 * queue, the config, the state listener, the metric handles and the
 * pooled action latencies.
 */
class ActuationPlane {
 public:
  /** Notified with the rack id after a command changes that rack's state. */
  using StateListener = std::function<void(int rack_id)>;

  ActuationPlane(sim::EventQueue& queue, int num_racks,
                 RackManagerConfig config, std::uint64_t seed);

  // Rack managers point back at their plane.
  ActuationPlane(const ActuationPlane&) = delete;
  ActuationPlane& operator=(const ActuationPlane&) = delete;

  RackManager& rack(int rack_id);
  const RackManager& rack(int rack_id) const;
  int num_racks() const { return static_cast<int>(racks_.size()); }

  /** Latency samples of every completed action, in completion order (s). */
  const std::vector<double>& action_latencies() const {
    return action_latencies_;
  }

  /**
   * Installs the state-change hook for every rack (pass an empty
   * function to detach). Fires after a successful command mutates a
   * rack's state(), at the command's completion time on the event queue
   * — the moment the rack's electrical draw actually changes.
   * RoomEmulation uses it to apply incremental power deltas instead of
   * rescanning the room.
   */
  void SetStateListener(StateListener listener)
  {
    state_listener_ = std::move(listener);
  }

 private:
  friend class RackManager;

  sim::EventQueue& queue_;
  RackManagerConfig config_;
  StateListener state_listener_;
  std::vector<double> action_latencies_;

  // Cached metric objects (registry lookups stay off the hot path).
  obs::Counter* commands_metric_ = nullptr;
  obs::Counter* failed_metric_ = nullptr;
  obs::Counter* dropped_metric_ = nullptr;
  obs::Histogram* latency_metric_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;

  std::vector<RackManager> racks_;
};

}  // namespace flex::actuation

#endif  // FLEX_ACTUATION_RACK_MANAGER_HPP_
