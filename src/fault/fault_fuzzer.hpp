/**
 * @file
 * Seeded random fault-plan generation.
 *
 * The fuzzer samples FaultPlans from the paper's *tolerated* fault
 * envelope — the set of failures Flex is designed to absorb: at most
 * one UPS failed at a time (xN/y powers exactly one failover), a meter
 * quorum alive on every device (≤1 faulty physical meter of 3), at
 * least one live poller and one live pub/sub bus, at most one
 * unreachable rack manager, and at most num_controllers − 1 paused
 * replicas. Within that envelope the safety invariants must hold for
 * EVERY plan, which is exactly what the property tests assert over
 * hundreds of seeds.
 *
 * Sampling is fully deterministic: all draws come from one seeded
 * common::Rng in a fixed order, so a failing seed reproduces the exact
 * same plan — and, through the deterministic event queue, the exact
 * same interleaving.
 */
#ifndef FLEX_FAULT_FAULT_FUZZER_HPP_
#define FLEX_FAULT_FAULT_FUZZER_HPP_

#include <cstdint>

#include "common/units.hpp"
#include "fault/fault_plan.hpp"

namespace flex::fault {

/** Dimensions of the room a plan is sampled for. */
struct ScenarioShape {
  int num_ups = 3;
  int num_racks = 12;
  int num_pollers = 2;
  int num_buses = 2;
  int meters_per_device = 3;
  int num_controllers = 2;
  /** Simulated time the room runs for. */
  Seconds horizon{120.0};
};

/*
 * The tolerated fault envelope every sampled plan stays inside (the
 * paper's fault model). Property tests read these bounds back.
 */
/** UPS failovers are sequential — never concurrent — per xN/y design. */
inline constexpr int kMaxFailovers = 2;
/** No fault begins before telemetry has warmed up. */
inline constexpr Seconds kWarmup{12.0};
/** Quiet tail so the room can settle before the run ends. */
inline constexpr Seconds kSettleTail{15.0};
inline constexpr Seconds kMinFailoverDuration{8.0};
inline constexpr Seconds kMaxFailoverDuration{16.0};
/**
 * Minimum quiet time between a failover's repair and the next
 * failover, sized so restores (~25 s boot) finish in between.
 */
inline constexpr Seconds kFailoverGap{45.0};
/** At most one faulty physical meter per device (quorum survives). */
inline constexpr int kMaxMeterFaults = 3;
inline constexpr double kMaxDriftRate = 0.02;  ///< 1/s; ~2%/s calibration drift
inline constexpr double kPollerCrashProbability = 0.5;  ///< ≤1 of 2 pollers
inline constexpr double kBusOutageProbability = 0.5;    ///< ≤1 of 2 buses
inline constexpr double kBusDelayProbability = 0.5;
inline constexpr Seconds kMaxBusDelay{1.0};
inline constexpr double kBusDuplicateProbability = 0.5;
inline constexpr int kMaxRackManagerTimeouts = 2;
inline constexpr Seconds kMaxRackManagerExtra{3.0};
inline constexpr double kRackManagerUnreachableProbability = 0.4;  ///< ≤1 rack
inline constexpr double kControllerPauseProbability = 0.5;  ///< ≤ replicas − 1

/**
 * Samples fault plans for a fixed room shape.
 */
class FaultFuzzer {
 public:
  explicit FaultFuzzer(ScenarioShape shape);

  /**
   * Samples one plan. Same seed ⇒ byte-identical plan. The result is
   * time-sorted and always within the tolerated envelope.
   */
  FaultPlan SamplePlan(std::uint64_t seed) const;

  const ScenarioShape& shape() const { return shape_; }

 private:
  ScenarioShape shape_;
};

}  // namespace flex::fault

#endif  // FLEX_FAULT_FAULT_FUZZER_HPP_
