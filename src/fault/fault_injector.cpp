#include "fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "obs/log.hpp"

namespace flex::fault {

using telemetry::DeviceId;
using telemetry::DeviceKind;

FaultInjector::FaultInjector(InjectorTargets targets)
    : targets_(std::move(targets))
{
  FLEX_REQUIRE(targets_.queue != nullptr, "injector needs an event queue");
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
  const auto& config =
      targets_.pipeline ? targets_.pipeline->config()
                        : telemetry::PipelineConfig{};
  switch (event.kind) {
    case FaultKind::kUpsFailover:
      FLEX_REQUIRE(static_cast<bool>(targets_.set_ups_failed),
                   "no UPS failure handler wired");
      FLEX_REQUIRE(event.target >= 0 && event.target < targets_.num_ups,
                   "UPS target out of range");
      break;
    case FaultKind::kMeterFailure:
    case FaultKind::kMeterStuck:
    case FaultKind::kMeterDrift:
      FLEX_REQUIRE(targets_.pipeline != nullptr, "no telemetry pipeline");
      FLEX_REQUIRE(event.meter_index >= 0 &&
                       event.meter_index < config.meters_per_device,
                   "meter index out of range");
      break;
    case FaultKind::kPollerCrash:
      FLEX_REQUIRE(targets_.pipeline != nullptr, "no telemetry pipeline");
      FLEX_REQUIRE(event.target >= 0 && event.target < config.num_pollers,
                   "poller target out of range");
      break;
    case FaultKind::kBusOutage:
    case FaultKind::kBusDelay:
    case FaultKind::kBusDuplicate:
      FLEX_REQUIRE(targets_.pipeline != nullptr, "no telemetry pipeline");
      FLEX_REQUIRE(event.target >= 0 && event.target < config.num_buses,
                   "bus target out of range");
      break;
    case FaultKind::kRackManagerTimeout:
    case FaultKind::kRackManagerUnreachable:
      FLEX_REQUIRE(targets_.plane != nullptr, "no actuation plane");
      FLEX_REQUIRE(event.target >= 0 &&
                       event.target < targets_.plane->num_racks(),
                   "rack target out of range");
      break;
    case FaultKind::kControllerPause:
      FLEX_REQUIRE(event.target >= 0 &&
                       static_cast<std::size_t>(event.target) <
                           targets_.controllers.size(),
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
      targets_.set_ups_failed(event.target, start);
      break;
    case FaultKind::kMeterFailure:
      targets_.pipeline->SetMeterFailed(device, event.meter_index, start);
      break;
    case FaultKind::kMeterStuck:
      targets_.pipeline->SetMeterStuck(device, event.meter_index, start);
      break;
    case FaultKind::kMeterDrift:
      if (start) {
        targets_.pipeline->SetMeterDrift(device, event.meter_index,
                                         event.magnitude);
      } else {
        targets_.pipeline->ClearMeterDrift(device, event.meter_index);
      }
      break;
    case FaultKind::kPollerCrash:
      targets_.pipeline->SetPollerFailed(event.target, start);
      break;
    case FaultKind::kBusOutage:
      targets_.pipeline->SetBusFailed(event.target, start);
      break;
    case FaultKind::kBusDelay:
      targets_.pipeline->SetBusLag(
          event.target, Seconds(start ? event.magnitude : 0.0));
      break;
    case FaultKind::kBusDuplicate:
      targets_.pipeline->SetBusDuplicate(event.target, start);
      break;
    case FaultKind::kRackManagerTimeout:
      targets_.plane->rack(event.target)
          .SetExtraLatency(Seconds(start ? event.magnitude : 0.0));
      break;
    case FaultKind::kRackManagerUnreachable:
      targets_.plane->rack(event.target).SetUnreachable(start);
      break;
    case FaultKind::kControllerPause:
      targets_.controllers[static_cast<std::size_t>(event.target)]
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
                targets_.queue->Now().value(), start ? "begin" : "repair",
                event.DebugString().c_str());
  trace_.emplace_back(buffer);
  FLEX_LOG(obs::LogLevel::kInfo, "fault", "%s %s",
           start ? "begin" : "repair", event.DebugString().c_str());
  if (targets_.recorder != nullptr)
    targets_.recorder->Record(targets_.queue->Now(),
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
    const Seconds now = targets_.queue->Now();
    targets_.queue->ScheduleAt(std::max(event.at, now),
                               [this, event] { Apply(event, true); });
    ++scheduled_;
    if (event.duration.value() > 0.0) {
      targets_.queue->ScheduleAt(std::max(event.at + event.duration, now),
                                 [this, event] { Apply(event, false); });
      ++scheduled_;
    }
  }
}

}  // namespace flex::fault
