/**
 * @file
 * Software-redundant service continuity: scale-out to another AZ.
 *
 * Paper Sections II-B and IV-D: software-redundant services are
 * replicated across availability zones and "can tolerate server
 * failures in one AZ by service-healing or scaling-out in another";
 * when Flex shuts their racks down it notifies them so they scale out
 * remotely *instead of* auto-recovering locally (which would fight the
 * controller). This model tracks a service's aggregate serving capacity
 * through an emergency: local racks drop instantly, remote capacity
 * spins up after a delay, and everything drains back when the all-clear
 * arrives.
 */
#ifndef FLEX_EMULATION_SCALE_OUT_HPP_
#define FLEX_EMULATION_SCALE_OUT_HPP_

#include <set>
#include <string>

#include "online/notifications.hpp"
#include "sim/event_queue.hpp"

namespace flex::emulation {

/** Behaviour of one software-redundant service's scale-out plane. */
struct ScaleOutConfig {
  std::string workload = "terasort";
  /** Racks the service runs locally (its nominal capacity). */
  int local_racks = 0;
};

/**
 * One service's reaction to Flex power emergencies.
 */
class ScaleOutModel {
 public:
  ScaleOutModel(sim::EventQueue& queue, ScaleOutConfig config);

  /** Wire to a NotificationBus: bus.Subscribe(workload, callback). */
  void OnNotification(const online::PowerEmergencyNotification& n);

  /**
   * The service's own health checker noticed rack @p rack_id down. If
   * no emergency notification covers it, the service would try to
   * auto-recover it locally — exactly the instability the notification
   * exists to prevent; such attempts are counted, not performed.
   */
  void ObserveRackDown(int rack_id);

  /** Serving capacity right now, as a fraction of nominal. */
  double ServiceCapacityFraction() const;

  /** Racks currently administratively down due to the emergency. */
  int local_down() const { return static_cast<int>(down_racks_.size()); }

  /** Remote capacity currently active (rack-equivalents). */
  int remote_active() const { return remote_active_; }

  /** Auto-recovery attempts that would have happened unnotified. */
  int inhibited_auto_recoveries() const { return attempted_restarts_; }
  bool emergency_active() const { return emergency_active_; }

 private:
  sim::EventQueue& queue_;
  ScaleOutConfig config_;
  std::set<int> down_racks_;       // covered by an active emergency
  int remote_active_ = 0;
  int remote_target_ = 0;
  bool emergency_active_ = false;
  int attempted_restarts_ = 0;
  std::uint64_t generation_ = 0;   // invalidates stale scheduled events
};

}  // namespace flex::emulation

#endif  // FLEX_EMULATION_SCALE_OUT_HPP_
