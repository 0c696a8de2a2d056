/**
 * @file
 * Sharded multi-room fleet engine, and the repo's one engine for many
 * rooms: a trace-variant sweep (the same room under seeds seed, seed+1,
 * ...) is a fleet with the substation left off, its default.
 *
 * Steps N independent RoomEmulation instances — 100k+ racks in
 * aggregate — in parallel across common::Lanes, in fixed
 * simulated-time epochs. Each lane owns one room outright: its calendar
 * wheel, its SoA rack state, its lane-local time-series store and alert
 * engine. Between epochs every lane is parked at the same simulated
 * time and the driver merges serially, in room order:
 *
 *   - per-room epoch summaries fold into a chained FNV-1a state hash
 *     per room (the lane-identity fingerprint),
 *   - freshly appended alert edges concatenate into one fleet timeline
 *     (epoch-major, then room-major, then time — deterministic because
 *     rooms are visited in index order at every barrier),
 *   - room loads sum into the shared-substation check (power/
 *     substation.hpp), whose overload verdict feeds back to each room
 *     as a purely observational gauge.
 *
 * Determinism: rooms never share mutable state while stepping, every
 * cross-room read happens at a barrier in serial room order, and
 * EventQueue::RunUntil tiles exactly (RunUntil(t1); RunUntil(t2) runs
 * the event sequence of one RunUntil(t2)) — so every room hash and
 * the merged alert timeline are bit-identical at 1, 2, or 8 lanes, and
 * identical to monolithic RoomEmulation::Run().
 *
 * Allocation: rooms reserve their sample series up front, and epoch
 * views and wall-time accounting live in flat per-room vectors sized at
 * construction — steady-state stepping allocates only the O(rooms) task
 * list handed to the pool each epoch.
 */
#ifndef FLEX_EMULATION_FLEET_EMULATION_HPP_
#define FLEX_EMULATION_FLEET_EMULATION_HPP_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "emulation/room_emulation.hpp"
#include "emulation/sweep.hpp"
#include "power/substation.hpp"

namespace flex::emulation {

/** A fleet: `rooms` copies of `room`, seeded room.seed, room.seed+1... */
struct FleetConfig {
  /** Per-room base configuration; room r runs with seed room.seed + r. */
  EmulationConfig room;
  int rooms = 4;
  /** Lanes to step on, per common::Lanes: 0 = the shared pool, 1 = inline. */
  int threads = 0;
  /** Simulated-time epoch length between merge barriers. */
  Seconds epoch = Seconds(30.0);
  /**
   * Shared upstream feed. Disabled (capacity <= 0) by default; when
   * enabled, every barrier sums the epoch-end room loads against it and
   * publishes the overload verdict back to each room's metric plane.
   */
  power::SubstationConfig substation;
};

/** One alert edge in the merged fleet timeline. */
struct FleetAlertEdge {
  int room = 0;
  obs::AlertTransition edge;
};

/** One room's outcome plus its determinism fingerprints. */
struct FleetRoomResult {
  EmulationReport report;
  /** HashEmulationReport of the final report. */
  std::uint64_t report_hash = 0;
  /** FNV-1a chained over every epoch's RoomEpochView, in epoch order. */
  std::uint64_t epoch_hash = 0;
};

/** Merged fleet output, always in room order. */
struct FleetReport {
  std::vector<FleetRoomResult> rooms;
  /** FNV-1a over every room's (epoch_hash, report_hash), in order. */
  std::uint64_t fleet_hash = 0;
  /** Merged alert edges, epoch-major then room-major then time. */
  std::vector<FleetAlertEdge> alert_timeline;
  std::uint64_t alert_fingerprint = 0;

  int total_racks = 0;
  std::uint64_t epochs = 0;
  std::uint64_t events_executed = 0;
  /** Lanes the fleet actually stepped on. */
  int lanes = 0;

  /** Peak serial-order sum of room loads at any barrier. */
  double peak_fleet_mw = 0.0;
  double peak_substation_utilization = 0.0;
  std::uint64_t substation_overload_epochs = 0;

  /** Wall time inside the parallel step regions (sum over epochs). */
  double step_wall_seconds = 0.0;
  /** Wall time inside the serial merge barriers (sum over epochs). */
  double merge_wall_seconds = 0.0;
  /** Summed per-room step wall time (lane busy time). */
  double lane_busy_seconds = 0.0;
  /** Barrier cost as a percentage of total epoch wall time. */
  double merge_overhead_pct = 0.0;
  /** lane_busy / (lanes * step_wall): 1.0 = perfectly balanced lanes. */
  double lane_utilization = 0.0;
};

/**
 * The fleet engine. Construction builds every room serially in room
 * order (placement MILP solves must not run under lane contention —
 * the solve outcome would change and break bit-identity); Run() steps
 * the epochs and returns the merged report. One-shot: construct, Run,
 * discard.
 */
class FleetEmulation {
 public:
  explicit FleetEmulation(FleetConfig config);
  ~FleetEmulation();

  FleetEmulation(const FleetEmulation&) = delete;
  FleetEmulation& operator=(const FleetEmulation&) = delete;

  /** Steps every room to the timeline end and merges the results. */
  FleetReport Run();

  int total_racks() const;
  const RoomEmulation& room(int index) const;

 private:
  /** One epoch: parallel AdvanceTo on every lane, then the barrier. */
  void StepEpoch(Seconds horizon);
  /** Serial merge in room order; everything cross-room happens here. */
  void MergeBarrier();

  FleetConfig config_;
  common::Lanes lanes_;
  std::vector<std::unique_ptr<RoomEmulation>> rooms_;

  // Per-room flat state, indexed by room; each slot is written only by
  // its own lane task (stepping) or the serial barrier (merging).
  std::vector<RoomEpochView> views_;
  std::vector<std::uint64_t> epoch_hashes_;
  std::vector<std::uint64_t> epoch_events_;
  std::vector<double> room_busy_seconds_;
  std::vector<std::size_t> alert_consumed_;  ///< merged timeline edges

  FleetReport report_;
  Seconds epoch_horizon_{0.0};  ///< current epoch target (lanes read it)
};

}  // namespace flex::emulation

#endif  // FLEX_EMULATION_FLEET_EMULATION_HPP_
