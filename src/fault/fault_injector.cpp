#include "fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "obs/log.hpp"

namespace flex::fault {

using telemetry::DeviceId;
using telemetry::DeviceKind;

FaultInjector::FaultInjector(emulation::RoomEmulation& room) : room_(room)
{
  if (room_.config().obs != nullptr)
    recorder_ = &room_.config().obs->recorder();
}

void
FaultInjector::Validate(const FaultEvent& event) const
{
  // Non-finite values would reach the event queue as unreachable times
  // (a bus lag of +inf parks every delivery at +inf).
  FLEX_REQUIRE(std::isfinite(event.at.value()), "fault 'at' must be finite");
  FLEX_REQUIRE(std::isfinite(event.duration.value()),
               "fault 'duration' must be finite");
  FLEX_REQUIRE(std::isfinite(event.magnitude),
               "fault 'magnitude' must be finite");
  FLEX_REQUIRE(event.at.value() >= 0.0, "fault begins before t=0");
  FLEX_REQUIRE(event.duration.value() >= 0.0, "negative fault duration");
  const telemetry::PipelineConfig& config = room_.pipeline().config();
  const int num_ups = room_.topology().NumUpses();
  switch (event.kind) {
    case FaultKind::kUpsFailover:
      FLEX_REQUIRE(event.target >= 0 && event.target < num_ups,
                   "UPS target out of range");
      break;
    case FaultKind::kMeterFailure:
    case FaultKind::kMeterStuck:
    case FaultKind::kMeterDrift:
      FLEX_REQUIRE(event.target >= 0 &&
                       event.target < (event.device_kind == DeviceKind::kUps
                                           ? num_ups
                                           : room_.total_racks()),
                   "metered device out of range");
      FLEX_REQUIRE(event.meter_index >= 0 &&
                       event.meter_index < config.meters_per_device,
                   "meter index out of range");
      break;
    case FaultKind::kPollerCrash:
      FLEX_REQUIRE(event.target >= 0 && event.target < config.num_pollers,
                   "poller target out of range");
      break;
    case FaultKind::kBusOutage:
    case FaultKind::kBusDelay:
    case FaultKind::kBusDuplicate:
      FLEX_REQUIRE(event.target >= 0 && event.target < config.num_buses,
                   "bus target out of range");
      break;
    case FaultKind::kRackManagerTimeout:
    case FaultKind::kRackManagerUnreachable:
      FLEX_REQUIRE(event.target >= 0 &&
                       event.target < room_.plane().num_racks(),
                   "rack target out of range");
      break;
    case FaultKind::kControllerPause:
      FLEX_REQUIRE(event.target >= 0 &&
                       static_cast<std::size_t>(event.target) <
                           room_.controllers().size(),
                   "controller target out of range");
      break;
  }
  if (event.kind == FaultKind::kBusDelay ||
      event.kind == FaultKind::kRackManagerTimeout) {
    FLEX_REQUIRE(event.magnitude >= 0.0, "negative latency magnitude");
  }
}

void
FaultInjector::Apply(const FaultEvent& event, bool start)
{
  const DeviceId device{event.device_kind, event.target};
  switch (event.kind) {
    case FaultKind::kUpsFailover:
      room_.SetUpsFailed(event.target, start);
      break;
    case FaultKind::kMeterFailure:
      room_.pipeline().SetMeterFailed(device, event.meter_index, start);
      break;
    case FaultKind::kMeterStuck:
      room_.pipeline().SetMeterStuck(device, event.meter_index, start);
      break;
    case FaultKind::kMeterDrift:
      if (start) {
        room_.pipeline().SetMeterDrift(device, event.meter_index,
                                       event.magnitude);
      } else {
        room_.pipeline().ClearMeterDrift(device, event.meter_index);
      }
      break;
    case FaultKind::kPollerCrash:
      room_.pipeline().SetPollerFailed(event.target, start);
      break;
    case FaultKind::kBusOutage:
      room_.pipeline().SetBusFailed(event.target, start);
      break;
    case FaultKind::kBusDelay:
      room_.pipeline().SetBusLag(event.target,
                                 Seconds(start ? event.magnitude : 0.0));
      break;
    case FaultKind::kBusDuplicate:
      room_.pipeline().SetBusDuplicate(event.target, start);
      break;
    case FaultKind::kRackManagerTimeout:
      room_.plane().rack(event.target)
          .SetExtraLatency(Seconds(start ? event.magnitude : 0.0));
      break;
    case FaultKind::kRackManagerUnreachable:
      room_.plane().rack(event.target).SetUnreachable(start);
      break;
    case FaultKind::kControllerPause:
      room_.controllers()[static_cast<std::size_t>(event.target)]
          ->SetSuspended(start);
      break;
  }
  Record(event, start);
}

void
FaultInjector::Record(const FaultEvent& event, bool start)
{
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer), "t=%.3f %s %s",
                room_.queue().Now().value(), start ? "begin" : "repair",
                event.DebugString().c_str());
  trace_.emplace_back(buffer);
  FLEX_LOG(obs::LogLevel::kInfo, "fault", "%s %s",
           start ? "begin" : "repair", event.DebugString().c_str());
  if (recorder_ != nullptr)
    recorder_->Record(room_.queue().Now(),
                      start ? obs::RecordKind::kFaultBegin
                            : obs::RecordKind::kFaultRepair,
                      event.target, static_cast<int>(event.kind), 0.0,
                      event.DebugString());
}

void
FaultInjector::Arm(const FaultPlan& plan)
{
  for (const FaultEvent& event : plan.events())
    Validate(event);
  FLEX_LOG(obs::LogLevel::kDebug, "fault", "arming plan with %zu event(s)",
           plan.events().size());
  for (const FaultEvent& event : plan.events()) {
    FLEX_LOG(obs::LogLevel::kDebug, "fault", "scheduled %s",
             event.DebugString().c_str());
    const Seconds now = room_.queue().Now();
    room_.queue().ScheduleAt(std::max(event.at, now),
                             [this, event] { Apply(event, true); });
    ++scheduled_;
    if (event.duration.value() > 0.0) {
      room_.queue().ScheduleAt(std::max(event.at + event.duration, now),
                               [this, event] { Apply(event, false); });
      ++scheduled_;
    }
  }
}

}  // namespace flex::fault
