#include "flight_recorder.hpp"

#include <map>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace flex::obs {

const char*
RecordKindName(RecordKind kind)
{
  switch (kind) {
    case RecordKind::kAnnotation:
      return "annotation";
    case RecordKind::kMeterSample:
      return "meter_sample";
    case RecordKind::kDetection:
      return "detection";
    case RecordKind::kDecision:
      return "decision";
    case RecordKind::kEnforced:
      return "enforced";
    case RecordKind::kEpisodeClosed:
      return "episode_closed";
    case RecordKind::kFaultBegin:
      return "fault_begin";
    case RecordKind::kFaultRepair:
      return "fault_repair";
    case RecordKind::kViolation:
      return "violation";
    case RecordKind::kBatteryTrip:
      return "battery_trip";
    case RecordKind::kRackCommand:
      return "rack_command";
    case RecordKind::kAlert:
      return "alert";
  }
  return "unknown";
}

bool
ParseRecordKind(const std::string& name, RecordKind* out)
{
  static const RecordKind kAll[] = {
      RecordKind::kAnnotation,    RecordKind::kMeterSample,
      RecordKind::kDetection,     RecordKind::kDecision,
      RecordKind::kEnforced,      RecordKind::kEpisodeClosed,
      RecordKind::kFaultBegin,    RecordKind::kFaultRepair,
      RecordKind::kViolation,     RecordKind::kBatteryTrip,
      RecordKind::kRackCommand,  RecordKind::kAlert,
  };
  for (const RecordKind kind : kAll) {
    if (name == RecordKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

FlightRecorder::FlightRecorder(RecorderConfig config)
{
  FLEX_REQUIRE(config.capacity > 0, "flight recorder capacity must be > 0");
  ring_.resize(config.capacity);
}

void
FlightRecorder::Record(Seconds t, RecordKind kind, int a, int b, double value,
                       std::string detail)
{
  FlightRecord& slot = ring_[head_];
  slot.sequence = next_sequence_++;
  slot.t = t.value();
  slot.kind = kind;
  slot.a = a;
  slot.b = b;
  slot.value = value;
  slot.detail = std::move(detail);
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size())
    ++size_;
  else
    ++dropped_;
}

std::vector<FlightRecord>
FlightRecorder::Records() const
{
  std::vector<FlightRecord> out;
  out.reserve(size_);
  // Oldest record sits at head_ once the ring has wrapped, at 0 before.
  const std::size_t start = size_ < ring_.size() ? 0 : head_;
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

void
FlightRecorder::Clear()
{
  head_ = 0;
  size_ = 0;
}

std::string
RecordToJson(const FlightRecord& record)
{
  std::string out = "{\"seq\":" + std::to_string(record.sequence);
  out += ",\"t\":" + json::Num(record.t);
  out += ",\"kind\":\"";
  out += RecordKindName(record.kind);
  out += "\",\"a\":" + std::to_string(record.a);
  out += ",\"b\":" + std::to_string(record.b);
  out += ",\"value\":" + json::Num(record.value);
  out += ",\"detail\":\"" + json::EscapeJson(record.detail) + "\"}";
  return out;
}

std::string
RecordsToJsonl(const std::vector<FlightRecord>& records)
{
  std::string out;
  for (const FlightRecord& record : records) {
    out += RecordToJson(record);
    out += '\n';
  }
  return out;
}

bool
ParseRecordJson(const std::string& line, FlightRecord* out)
{
  FlightRecord record;
  std::string kind_name;
  if (!json::ReadUint(line, "seq", &record.sequence) ||
      !json::ReadNumber(line, "t", &record.t) ||
      !json::ReadString(line, "kind", &kind_name) ||
      !ParseRecordKind(kind_name, &record.kind) ||
      !json::ReadInt(line, "a", &record.a) ||
      !json::ReadInt(line, "b", &record.b) ||
      !json::ReadNumber(line, "value", &record.value) ||
      !json::ReadString(line, "detail", &record.detail))
    return false;
  *out = std::move(record);
  return true;
}

bool
ParseRecordsJsonl(const std::string& jsonl, std::vector<FlightRecord>* out,
                  std::string* error)
{
  out->clear();
  json::LineReader lines(jsonl);
  while (lines.Next()) {
    FlightRecord record;
    if (!ParseRecordJson(lines.line(), &record)) {
      if (error != nullptr)
        *error = "malformed record at line " + std::to_string(lines.number());
      return false;
    }
    out->push_back(std::move(record));
  }
  return true;
}

std::string
RecordDivergence::Summary() const
{
  return "seq " + std::to_string(sequence) + " field '" + field +
         "': expected " + expected + ", got " + actual;
}

std::optional<RecordDivergence>
FirstDivergence(const std::vector<FlightRecord>& expected,
                const std::vector<FlightRecord>& actual)
{
  std::map<std::uint64_t, const FlightRecord*> by_sequence;
  for (const FlightRecord& record : actual)
    by_sequence[record.sequence] = &record;

  for (const FlightRecord& want : expected) {
    RecordDivergence divergence;
    divergence.sequence = want.sequence;
    const auto it = by_sequence.find(want.sequence);
    if (it == by_sequence.end()) {
      divergence.field = "missing";
      divergence.expected = RecordToJson(want);
      divergence.actual = "(no record with this sequence)";
      return divergence;
    }
    const FlightRecord& got = *it->second;
    if (want.kind != got.kind) {
      divergence.field = "kind";
      divergence.expected = RecordKindName(want.kind);
      divergence.actual = RecordKindName(got.kind);
      return divergence;
    }
    if (json::Num(want.t) != json::Num(got.t)) {
      divergence.field = "t";
      divergence.expected = json::Num(want.t);
      divergence.actual = json::Num(got.t);
      return divergence;
    }
    if (want.a != got.a) {
      divergence.field = "a";
      divergence.expected = std::to_string(want.a);
      divergence.actual = std::to_string(got.a);
      return divergence;
    }
    if (want.b != got.b) {
      divergence.field = "b";
      divergence.expected = std::to_string(want.b);
      divergence.actual = std::to_string(got.b);
      return divergence;
    }
    if (json::Num(want.value) != json::Num(got.value)) {
      divergence.field = "value";
      divergence.expected = json::Num(want.value);
      divergence.actual = json::Num(got.value);
      return divergence;
    }
    if (want.detail != got.detail) {
      divergence.field = "detail";
      divergence.expected = want.detail;
      divergence.actual = got.detail;
      return divergence;
    }
  }
  return std::nullopt;
}

}  // namespace flex::obs
