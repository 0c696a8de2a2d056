/**
 * @file
 * Always-on flight recorder: a fixed-capacity ring of compact records.
 *
 * Aircraft-style black box for the simulation. Instrumented components
 * (telemetry delivery, controller reactions, fault injection, invariant
 * checks, actuation commands) append one small structured record per
 * noteworthy event; the ring keeps only the most recent `capacity`
 * records, dropping oldest-first, so steady-state overhead is one
 * branch plus a bounded store regardless of run length. On a trigger —
 * an invariant violation, a blown reaction budget, or an explicit
 * request — the retained window is dumped into a forensic bundle (see
 * forensics.hpp) whose JSONL timeline can be diffed against a replay of
 * the same seed record-by-record.
 *
 * Records carry simulated time and only seed-deterministic payloads, so
 * two runs of one seed produce byte-identical timelines; sequence
 * numbers are assigned at Record() time and survive ring drops, which
 * is what lets a replay with a larger ring align against a bundle whose
 * early records were evicted.
 */
#ifndef FLEX_OBS_FLIGHT_RECORDER_HPP_
#define FLEX_OBS_FLIGHT_RECORDER_HPP_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace flex::obs {

/** What a flight record describes. */
enum class RecordKind {
  kAnnotation = 0,    ///< free-form marker (detail carries the text)
  kMeterSample,       ///< a UPS reading was delivered (a=ups, b=bus)
  kDetection,         ///< a replica flagged overdraw (a=replica, b=ups)
  kDecision,          ///< Algorithm 1 produced a wave (a=replica, value=n)
  kEnforced,          ///< a corrective wave fully landed (a=replica)
  kEpisodeClosed,     ///< the episode released (a=replica)
  kFaultBegin,        ///< an injected fault began (a=target)
  kFaultRepair,       ///< an injected fault was repaired (a=target)
  kViolation,         ///< the invariant monitor flagged a violation
  kBatteryTrip,       ///< a UPS battery exhausted its budget (a=ups)
  kRackCommand,       ///< an actuation command was issued (a=rack, b=kind)
  kAlert,             ///< an alert-rule edge (a=rule index, b=new state)
};

/** Stable lowercase kind name ("meter_sample", ...). */
const char* RecordKindName(RecordKind kind);

/** Parses a kind name; false when unknown. */
bool ParseRecordKind(const std::string& name, RecordKind* out);

/**
 * One compact record. The generic a/b/value payload keeps the struct
 * POD-sized; the per-kind meaning is documented on RecordKind. `detail`
 * is a short free-text tail (violation messages, fault descriptions)
 * and stays empty on hot-path kinds.
 */
struct FlightRecord {
  std::uint64_t sequence = 0;  ///< monotone, assigned at Record() time
  double t = 0.0;              ///< simulated seconds
  RecordKind kind = RecordKind::kAnnotation;
  int a = -1;
  int b = -1;
  double value = 0.0;
  std::string detail;
};

/** Recorder tuning. */
struct RecorderConfig {
  /** Ring capacity in records; the window a forensic dump can see. */
  std::size_t capacity = 4096;
};

/**
 * The ring buffer. Single-threaded like the simulation; Record() is a
 * bounded store with no allocation once the ring has filled (detail
 * strings aside), so it is safe to call from per-event hooks.
 */
class FlightRecorder {
 public:
  explicit FlightRecorder(RecorderConfig config = {});

  /** Appends one record stamped @p t; evicts the oldest when full. */
  void Record(Seconds t, RecordKind kind, int a = -1, int b = -1,
              double value = 0.0, std::string detail = {});

  /** Retained records, oldest first. */
  std::vector<FlightRecord> Records() const;

  /** Records evicted so far (total recorded = dropped + size). */
  std::uint64_t dropped_count() const { return dropped_; }

  /** Sequence the next Record() call will be assigned. */
  std::uint64_t next_sequence() const { return next_sequence_; }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }

  /** Empties the ring; sequence numbering continues monotonically. */
  void Clear();

 private:
  std::vector<FlightRecord> ring_;
  std::size_t head_ = 0;  ///< next write slot
  std::size_t size_ = 0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t dropped_ = 0;
};

/** One record as a single-line JSON object with fixed key order. */
std::string RecordToJson(const FlightRecord& record);

/** All records, one JSON object per line (JSONL). */
std::string RecordsToJsonl(const std::vector<FlightRecord>& records);

/** Parses one RecordToJson line; false on malformed input. */
bool ParseRecordJson(const std::string& line, FlightRecord* out);

/**
 * Parses a JSONL timeline (blank lines skipped). Returns false and
 * fills @p error, naming the physical line, on the first malformed line.
 */
bool ParseRecordsJsonl(const std::string& jsonl,
                       std::vector<FlightRecord>* out, std::string* error);

/** First mismatch between an expected and a replayed timeline. */
struct RecordDivergence {
  std::uint64_t sequence = 0;
  /** Which field differed: "missing", "kind", "t", "a", "b", "value", "detail". */
  std::string field;
  std::string expected;
  std::string actual;

  /** One-line human-readable description. */
  std::string Summary() const;
};

/**
 * Compares @p expected (e.g. a bundle's timeline) against @p actual
 * (e.g. a replay's), aligned by sequence number. Records in @p actual
 * with sequences outside @p expected's range are ignored — a replay
 * with a larger ring legitimately retains more history. Doubles are
 * compared through json::Num (%.9g), the format events.jsonl is
 * written in, so a timeline that went through one serialize/parse
 * round trip compares clean.
 */
std::optional<RecordDivergence> FirstDivergence(
    const std::vector<FlightRecord>& expected,
    const std::vector<FlightRecord>& actual);

}  // namespace flex::obs

#endif  // FLEX_OBS_FLIGHT_RECORDER_HPP_
