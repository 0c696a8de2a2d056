/**
 * @file
 * Forensic bundles: on-disk post-mortem snapshots of a run.
 *
 * A bundle is a directory holding everything needed to understand — and
 * where possible deterministically re-execute — a failed episode:
 *
 *   manifest.json     trigger, scenario tag, seed, record window, notes
 *   events.jsonl      the flight recorder's retained timeline
 *   metrics.json      full MetricsRegistry snapshot at dump time
 *   traces.jsonl      reaction traces, one TraceToJson line each (the
 *                     /trace format; when a tracer was attached)
 *   racks.csv         per-rack power / category / actuation state
 *   fault_plan.txt    human-readable fault plan (when one was armed)
 *   fault_plan.jsonl  machine-readable plan, written by the fault layer
 *   timeseries.jsonl  time-series store contents (when a store existed)
 *   alerts.jsonl      alert-transition timeline (when rules were armed)
 *
 * This layer is scenario-agnostic: it serializes whatever the caller
 * puts into the BundleSpec. The fault module's forensics.hpp builds the
 * replayable fault-fuzz bundles on top of it; the emulation benches dump
 * non-replayable "crash dump" bundles for triage.
 */
#ifndef FLEX_OBS_FORENSICS_HPP_
#define FLEX_OBS_FORENSICS_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flex::obs {

inline constexpr const char* kBundleFormat = "flex-forensic-bundle-v1";

/** Everything a bundle dump captures. Pointers are optional, not owned. */
struct BundleSpec {
  /** What fired the dump: "invariant-violation", "budget-miss", "manual". */
  std::string trigger = "manual";
  /** Harness tag: "fault-fuzz", "emulation", ... */
  std::string scenario;
  std::uint64_t seed = 0;
  double sim_time_s = 0.0;
  double horizon_s = 0.0;
  /** True when seed + fault plan deterministically re-execute the run. */
  bool replayable = false;

  std::vector<FlightRecord> records;
  const MetricsRegistry* metrics = nullptr;
  const ReactionTracer* tracer = nullptr;
  /** Human-readable fault plan listing (fault_plan.txt). */
  std::string fault_plan_text;
  /** Machine-readable plan timeline (fault_plan.jsonl). */
  std::string fault_plan_jsonl;
  /** Per-rack state table, already in CSV form (racks.csv). */
  std::string racks_csv;
  /** TimeSeriesStore::ToJsonl() dump (timeseries.jsonl). */
  std::string timeseries_jsonl;
  /** AlertEngine::TimelineJsonl() dump (alerts.jsonl). */
  std::string alerts_jsonl;
  /** Free-text notes — typically the violation messages. */
  std::vector<std::string> notes;
};

/**
 * Writes the bundle into directory @p dir (created, parents included).
 * Returns false and fills @p error on I/O failure; partial bundles are
 * possible on failure and carry no manifest marker.
 */
bool WriteForensicBundle(const std::string& dir, const BundleSpec& spec,
                         std::string* error = nullptr);

/** The parsed manifest.json. */
struct BundleManifest {
  std::string format;
  std::string trigger;
  std::string scenario;
  std::uint64_t seed = 0;
  double sim_time_s = 0.0;
  double horizon_s = 0.0;
  bool replayable = false;
  std::uint64_t first_sequence = 0;
  std::uint64_t last_sequence = 0;
  std::uint64_t num_records = 0;
  std::vector<std::string> notes;
};

/**
 * Loads and parses @p dir/manifest.json. Fails when the format, the
 * seed or the record window is missing or not an exact unsigned 64-bit
 * integer.
 */
bool LoadBundleManifest(const std::string& dir, BundleManifest* out,
                        std::string* error = nullptr);

/** A loaded bundle: manifest plus the event timeline. */
struct LoadedBundle {
  BundleManifest manifest;
  std::vector<FlightRecord> records;
  /** fault_plan.jsonl contents; empty when the bundle has none. */
  std::string fault_plan_jsonl;
};

/** Loads manifest + events.jsonl (+ fault_plan.jsonl when present). */
bool LoadForensicBundle(const std::string& dir, LoadedBundle* out,
                        std::string* error = nullptr);

/**
 * Picks a fresh bundle directory under @p root: "<root>/<stem>", or
 * "<root>/<stem>-2", ... when taken. Does not create the directory.
 */
std::string UniqueBundleDir(const std::string& root, const std::string& stem);

/**
 * Forensics root directory: the FLEX_FORENSICS_DIR environment variable
 * when set and non-empty, else @p fallback.
 */
std::string ForensicsRootDir(const std::string& fallback = "forensics");

}  // namespace flex::obs

#endif  // FLEX_OBS_FORENSICS_HPP_
