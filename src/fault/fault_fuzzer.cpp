#include "fault_fuzzer.hpp"

#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace flex::fault {

using telemetry::DeviceKind;

FaultFuzzer::FaultFuzzer(ScenarioShape shape) : shape_(shape)
{
  FLEX_REQUIRE(shape_.num_ups >= 2, "fuzzing needs a redundant UPS level");
  FLEX_REQUIRE(shape_.num_racks >= 1, "fuzzing needs racks");
  FLEX_REQUIRE(shape_.num_pollers >= 2 && shape_.num_buses >= 2,
               "fault envelope requires redundant telemetry stages");
  FLEX_REQUIRE(shape_.meters_per_device >= 3,
               "fault envelope requires a meter quorum");
  FLEX_REQUIRE(shape_.num_controllers >= 1, "fuzzing needs a controller");
  FLEX_REQUIRE(
      shape_.horizon.value() >
          (kWarmup + kMaxFailoverDuration + kSettleTail).value(),
      "horizon too short for even one failover");
}

FaultPlan
FaultFuzzer::SamplePlan(std::uint64_t seed) const
{
  // All draws come from this one generator, in the fixed textual order
  // below. Adding a draw anywhere changes every later draw for every
  // seed — append new fault families at the end.
  Rng rng(seed);
  FaultPlan plan;
  const double horizon = shape_.horizon.value();
  const double latest = horizon - kSettleTail.value();

  // 1. UPS failovers: strictly sequential windows with a recovery gap.
  const int failovers =
      static_cast<int>(rng.UniformInt(0, kMaxFailovers));
  double next_start =
      rng.Uniform(kWarmup.value(), kWarmup.value() + 12.0);
  for (int i = 0; i < failovers; ++i) {
    const double duration =
        rng.Uniform(kMinFailoverDuration.value(), kMaxFailoverDuration.value());
    const int target = static_cast<int>(rng.UniformInt(0, shape_.num_ups - 1));
    if (next_start + duration > latest)
      break;
    FaultEvent event;
    event.at = Seconds(next_start);
    event.kind = FaultKind::kUpsFailover;
    event.target = target;
    event.duration = Seconds(duration);
    plan.Add(event);
    next_start += duration + kFailoverGap.value() + rng.Uniform(0.0, 8.0);
  }

  // 2. Meter faults: at most one faulty physical meter per device, so
  // the 2-of-3 median quorum always survives.
  const int meter_faults =
      static_cast<int>(rng.UniformInt(0, kMaxMeterFaults));
  std::set<std::pair<int, int>> used_devices;  // (kind, index)
  for (int i = 0; i < meter_faults; ++i) {
    const int device = static_cast<int>(
        rng.UniformInt(0, shape_.num_ups + shape_.num_racks - 1));
    const int flavor = static_cast<int>(rng.UniformInt(0, 2));
    const int meter_index =
        static_cast<int>(rng.UniformInt(0, shape_.meters_per_device - 1));
    const double start = rng.Uniform(5.0, latest - 10.0);
    const double duration = rng.Uniform(10.0, 50.0);
    const double drift = rng.Uniform(-kMaxDriftRate, kMaxDriftRate);
    const bool is_ups = device < shape_.num_ups;
    const std::pair<int, int> key{is_ups ? 0 : 1,
                                  is_ups ? device : device - shape_.num_ups};
    if (!used_devices.insert(key).second)
      continue;  // keep the quorum: one fault per device
    FaultEvent event;
    event.at = Seconds(start);
    event.kind = flavor == 0   ? FaultKind::kMeterFailure
                 : flavor == 1 ? FaultKind::kMeterStuck
                               : FaultKind::kMeterDrift;
    event.device_kind = is_ups ? DeviceKind::kUps : DeviceKind::kRack;
    event.target = key.second;
    event.meter_index = meter_index;
    event.magnitude = event.kind == FaultKind::kMeterDrift ? drift : 0.0;
    event.duration = Seconds(duration);
    plan.Add(event);
  }

  // 3. One poller crash at most (the sibling keeps polling).
  if (rng.Bernoulli(kPollerCrashProbability)) {
    FaultEvent event;
    event.at = Seconds(rng.Uniform(5.0, latest - 10.0));
    event.kind = FaultKind::kPollerCrash;
    event.target = static_cast<int>(rng.UniformInt(0, shape_.num_pollers - 1));
    event.duration = Seconds(rng.Uniform(5.0, 30.0));
    plan.Add(event);
  }

  // 4. One bus outage at most (the sibling keeps delivering).
  if (rng.Bernoulli(kBusOutageProbability)) {
    FaultEvent event;
    event.at = Seconds(rng.Uniform(5.0, latest - 10.0));
    event.kind = FaultKind::kBusOutage;
    event.target = static_cast<int>(rng.UniformInt(0, shape_.num_buses - 1));
    event.duration = Seconds(rng.Uniform(5.0, 25.0));
    plan.Add(event);
  }

  // 5. Bus congestion (bounded extra lag; delivery remains ordered).
  if (rng.Bernoulli(kBusDelayProbability)) {
    FaultEvent event;
    event.at = Seconds(rng.Uniform(5.0, latest - 10.0));
    event.kind = FaultKind::kBusDelay;
    event.target = static_cast<int>(rng.UniformInt(0, shape_.num_buses - 1));
    event.magnitude = rng.Uniform(0.1, kMaxBusDelay.value());
    event.duration = Seconds(rng.Uniform(10.0, 40.0));
    plan.Add(event);
  }

  // 6. At-least-once redelivery storms (controllers must be idempotent).
  if (rng.Bernoulli(kBusDuplicateProbability)) {
    FaultEvent event;
    event.at = Seconds(rng.Uniform(5.0, latest - 15.0));
    event.kind = FaultKind::kBusDuplicate;
    event.target = static_cast<int>(rng.UniformInt(0, shape_.num_buses - 1));
    event.duration = Seconds(rng.Uniform(15.0, 60.0));
    plan.Add(event);
  }

  // 7. Slow rack managers (commands land late but land).
  const int rm_timeouts =
      static_cast<int>(rng.UniformInt(0, kMaxRackManagerTimeouts));
  std::set<int> slow_racks;
  for (int i = 0; i < rm_timeouts; ++i) {
    const int rack = static_cast<int>(rng.UniformInt(0, shape_.num_racks - 1));
    const double start = rng.Uniform(5.0, latest - 10.0);
    const double extra = rng.Uniform(0.5, kMaxRackManagerExtra.value());
    const double duration = rng.Uniform(10.0, 40.0);
    if (!slow_racks.insert(rack).second)
      continue;
    FaultEvent event;
    event.at = Seconds(start);
    event.kind = FaultKind::kRackManagerTimeout;
    event.target = rack;
    event.magnitude = extra;
    event.duration = Seconds(duration);
    plan.Add(event);
  }

  // 8. At most one unreachable rack manager — the room's headroom is
  // sized so the controllers can recover around one silent rack.
  if (rng.Bernoulli(kRackManagerUnreachableProbability)) {
    FaultEvent event;
    event.at = Seconds(rng.Uniform(kWarmup.value(), latest - 25.0));
    event.kind = FaultKind::kRackManagerUnreachable;
    event.target = static_cast<int>(rng.UniformInt(0, shape_.num_racks - 1));
    event.duration = Seconds(rng.Uniform(8.0, 25.0));
    plan.Add(event);
  }

  // 9. Controller replica crash — never all replicas at once.
  if (shape_.num_controllers >= 2 &&
      rng.Bernoulli(kControllerPauseProbability)) {
    FaultEvent event;
    event.at = Seconds(rng.Uniform(5.0, latest - 10.0));
    event.kind = FaultKind::kControllerPause;
    event.target =
        static_cast<int>(rng.UniformInt(0, shape_.num_controllers - 1));
    event.duration = Seconds(rng.Uniform(10.0, 40.0));
    plan.Add(event);
  }

  plan.SortByTime();
  return plan;
}

}  // namespace flex::fault
