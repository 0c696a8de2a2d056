/**
 * @file
 * Fault plans run on the real room engine.
 *
 * Every fault run — a fuzzed seed, a sweep lane, a recorded run, a
 * bundle replay — goes through RunPlan: an InvariantMonitor watches an
 * emulation::RoomEmulation's queue, a FaultInjector arms the plan, and
 * the room runs its timeline to the end. FuzzRoomConfig() is the room
 * the fuzz property sweeps: small enough that one run executes a few
 * thousand events, and loaded so that a failover pushes the survivors
 * well past rated capacity, where a late or missing reaction trips a
 * UPS.
 *
 * Everything derives from the room's seed (placement, workloads,
 * telemetry jitter, actuation latencies) and the plan, so a failing
 * seed replays the exact same run.
 */
#ifndef FLEX_FAULT_FAULT_RUN_HPP_
#define FLEX_FAULT_FAULT_RUN_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "emulation/room_emulation.hpp"
#include "fault/fault_plan.hpp"
#include "fault/invariant_monitor.hpp"

namespace flex::fault {

/**
 * The fuzz room: 3N/2 with 200 kW UPSes and 12 rack slots (one PDU
 * pair per UPS pair, two rows of two racks each), Flex-Offline placement
 * at 0.78 utilization under a node budget, two controller replicas, and
 * a 120 s timeline that scripts no failover (failed_ups = -1): the plan
 * brings the failovers. Alerts are on, so recorded runs and their
 * replays evaluate the same rules.
 */
emulation::EmulationConfig FuzzRoomConfig();

/** What one fault run measured. */
struct FaultRunReport {
  /** The room's report: trip verdict, action counts, alert fingerprints. */
  emulation::EmulationReport room;
  std::size_t readings_delivered = 0;
  /** Controller counts the room's report does not aggregate. */
  int restore_commands = 0;
  int uncap_commands = 0;
  int failed_commands = 0;
  std::vector<Violation> violations;
  /** Human-readable violation listing; empty when all invariants held. */
  std::string violation_summary;
  /** InvariantMonitor checks: one per executed event, one at the end. */
  std::uint64_t monitor_checks = 0;
  /** The injector's begin/repair trace in execution order. */
  std::vector<std::string> fault_trace;
};

/**
 * The fuzzer's plan for @p room: sampled for its seed and for the racks
 * its placement kept, which may be fewer than its slots.
 */
FaultPlan FuzzedPlan(const emulation::RoomEmulation& room);

/**
 * Runs @p plan on @p room, built and not yet started, with an
 * InvariantMonitor attached, and reports. The room is spent afterwards.
 */
FaultRunReport RunPlan(emulation::RoomEmulation& room, const FaultPlan& plan);

/**
 * Runs the fuzzer's plan on a room built from @p config for @p seed.
 * When @p trace_out is non-null it receives the plan's DebugString —
 * print it alongside the seed on violation so the failure is
 * reproducible from the test log alone.
 */
FaultRunReport RunFuzzedScenario(const emulation::EmulationConfig& config,
                                 std::uint64_t seed,
                                 std::string* trace_out = nullptr);

/**
 * Runs RunFuzzedScenario for seeds first_seed .. first_seed+count-1,
 * fanning independent rooms out across common::Lanes(threads) and
 * merging serially in seed order — reports[i] is seed first_seed+i for
 * any thread count. Each lane forces obs = nullptr (the registry is
 * single-threaded). When @p traces is non-null it receives the plan
 * DebugStrings, also in seed order.
 */
std::vector<FaultRunReport> RunFuzzSweep(
    const emulation::EmulationConfig& config, std::uint64_t first_seed,
    int count, int threads = 0, std::vector<std::string>* traces = nullptr);

}  // namespace flex::fault

#endif  // FLEX_FAULT_FAULT_RUN_HPP_
