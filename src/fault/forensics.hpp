/**
 * @file
 * Replayable forensic bundles for fault runs.
 *
 * Builds on the room's seed-determinism: placement, workloads,
 * telemetry jitter and actuation latencies all derive from one seed, so
 * a bundle holding {seed, fault plan, recorded timeline} is a complete
 * reproduction recipe for a given room config. RunRecordedScenario runs
 * one fuzzed seed with a FlightRecorder attached and dumps a bundle when
 * an invariant trips (or unconditionally, for drills); ReplayBundle
 * loads a bundle, re-executes the stored plan on the stored seed in a
 * fresh room, and diffs the two timelines record-by-record — zero
 * divergence is the determinism proof, a divergence pinpoints the first
 * event where the re-execution left the recorded rails.
 *
 * The plan is persisted machine-readably (fault_plan.jsonl) rather than
 * re-sampled from the seed, so hand-built plans — the induced-violation
 * drills in fault_test — replay exactly like fuzzed ones.
 */
#ifndef FLEX_FAULT_FORENSICS_HPP_
#define FLEX_FAULT_FORENSICS_HPP_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "emulation/room_emulation.hpp"
#include "fault/fault_run.hpp"
#include "obs/forensics.hpp"

namespace flex::fault {

/** Serializes @p plan as one JSON object per event (numeric kinds). */
std::string FaultPlanToJsonl(const FaultPlan& plan);

/**
 * Parses FaultPlanToJsonl output. False + @p error, naming the line, on
 * malformed input: a missing field, or a kind or device kind out of
 * range.
 */
bool ParseFaultPlanJsonl(const std::string& jsonl, FaultPlan* out,
                         std::string* error = nullptr);

/** The room's per-rack ground-truth state (the bundle's racks.csv). */
std::string RacksCsv(const emulation::RoomEmulation& room);

/** Recorded-run tuning. */
struct ForensicsOptions {
  /** Where bundles land; "" resolves via FLEX_FORENSICS_DIR. */
  std::string root_dir;
  /** Dump a bundle when the run ends with invariant violations. */
  bool dump_on_violation = true;
  /**
   * Dump a bundle when any alert rule fired, even with every invariant
   * intact (trigger "alert-firing"). Off by default: fuzz sweeps fire
   * benign alerts (telemetry staleness under injected bus outages) and
   * must not spray bundles; alerting drills opt in.
   */
  bool dump_on_alert = false;
  /** Dump unconditionally (drills, bundle-format tests). */
  bool force_dump = false;
  /** Ring capacity for the run's recorder. */
  std::size_t recorder_capacity = 8192;
};

/** One recorded run's outcome. */
struct RecordedRun {
  FaultRunReport report;
  /** The recorder's retained timeline at run end. */
  std::vector<obs::FlightRecord> records;
  /** Bundle directory, or "" when no dump was triggered. */
  std::string bundle_dir;
  /** Non-empty when a triggered dump failed to write. */
  std::string dump_error;
};

/**
 * Runs @p plan on a fresh room built from @p config for @p seed, with
 * full observability attached (config.obs is overridden), dumping a
 * forensic bundle per @p options, tagged "fault-plan". The config must
 * describe the same room on replay.
 */
RecordedRun RunRecordedPlan(const emulation::EmulationConfig& config,
                            std::uint64_t seed, const FaultPlan& plan,
                            const ForensicsOptions& options = {});

/**
 * RunRecordedPlan with the fuzzer's plan for the room @p seed builds;
 * its bundle is tagged "fault-fuzz".
 */
RecordedRun RunRecordedScenario(const emulation::EmulationConfig& config,
                                std::uint64_t seed,
                                const ForensicsOptions& options = {});

/** What a replay found. */
struct ReplayReport {
  /** False when the bundle could not be loaded (see error). */
  bool loaded = false;
  std::string error;
  obs::BundleManifest manifest;
  /** The re-executed run's report. */
  FaultRunReport report;
  /** Records from the bundle that the replay was compared against. */
  std::size_t compared = 0;
  /** First timeline mismatch; nullopt means the replay tracked exactly. */
  std::optional<obs::RecordDivergence> divergence;
};

/**
 * Loads the bundle at @p bundle_dir and re-executes it: same seed (from
 * the manifest), same fault plan (from fault_plan.jsonl), fresh room
 * built from @p config. Compares the bundle's timeline against the
 * replay's, aligned by sequence number. Refuses (loaded = false) a
 * bundle whose manifest horizon_s is not @p config's end_at at the
 * manifest's 9-digit precision: it was recorded on another room.
 */
ReplayReport ReplayBundle(
    const std::string& bundle_dir,
    const emulation::EmulationConfig& config = FuzzRoomConfig());

}  // namespace flex::fault

#endif  // FLEX_FAULT_FORENSICS_HPP_
