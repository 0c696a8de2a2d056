/**
 * @file
 * Arms FaultPlans onto a live room.
 *
 * The injector turns a FaultPlan (plain data) into scheduled events on
 * an emulation::RoomEmulation's queue: every fault gets a begin event
 * at its start time and, when it has a finite duration, a repair event
 * at start + duration. Execution is recorded into a textual trace in
 * exact firing order, which is what the seed-replay tests compare —
 * two runs of the same seed must produce byte-identical traces.
 */
#ifndef FLEX_FAULT_FAULT_INJECTOR_HPP_
#define FLEX_FAULT_FAULT_INJECTOR_HPP_

#include <string>
#include <vector>

#include "emulation/room_emulation.hpp"
#include "fault/fault_plan.hpp"
#include "obs/flight_recorder.hpp"

namespace flex::fault {

/**
 * Schedules a FaultPlan's events and applies them as they fire.
 */
class FaultInjector {
 public:
  /**
   * Injects into @p room's pipeline, actuation plane, controller
   * replicas and UPSes, and feeds begin/repair records to the flight
   * recorder of the room's obs sink, when it has one.
   */
  explicit FaultInjector(emulation::RoomEmulation& room);

  /**
   * Validates every event against the room and schedules it. May be
   * called multiple times (plans compose). Events whose begin time is
   * already in the past fire immediately on the next queue step.
   */
  void Arm(const FaultPlan& plan);

  /** Begin/repair records in execution order ("t=... begin ..."). */
  const std::vector<std::string>& executed_trace() const { return trace_; }

  /** Queue events scheduled so far (begin + repair). */
  int scheduled_count() const { return scheduled_; }

 private:
  void Validate(const FaultEvent& event) const;
  /** Applies the begin (start=true) or repair (start=false) half. */
  void Apply(const FaultEvent& event, bool start);
  void Record(const FaultEvent& event, bool start);

  emulation::RoomEmulation& room_;
  obs::FlightRecorder* recorder_ = nullptr;
  std::vector<std::string> trace_;
  int scheduled_ = 0;
};

}  // namespace flex::fault

#endif  // FLEX_FAULT_FAULT_INJECTOR_HPP_
