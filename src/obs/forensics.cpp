#include "forensics.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/export.hpp"
#include "obs/json.hpp"

namespace flex::obs {

namespace {

bool
ReadFile(const std::string& path, std::string* out)
{
  std::ifstream stream(path, std::ios::binary);
  if (!stream)
    return false;
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  *out = buffer.str();
  return stream.good() || stream.eof();
}

bool
Fail(std::string* error, std::string message)
{
  if (error != nullptr)
    *error = std::move(message);
  return false;
}

std::string
ManifestJson(const BundleSpec& spec)
{
  std::uint64_t first_sequence = 0;
  std::uint64_t last_sequence = 0;
  if (!spec.records.empty()) {
    first_sequence = spec.records.front().sequence;
    last_sequence = spec.records.back().sequence;
  }
  std::string out = "{\n";
  out += "  \"format\": \"" + std::string(kBundleFormat) + "\",\n";
  out += "  \"trigger\": \"" + json::EscapeJson(spec.trigger) + "\",\n";
  out += "  \"scenario\": \"" + json::EscapeJson(spec.scenario) + "\",\n";
  out += "  \"seed\": " + std::to_string(spec.seed) + ",\n";
  out += "  \"sim_time_s\": " + json::Num(spec.sim_time_s) + ",\n";
  out += "  \"horizon_s\": " + json::Num(spec.horizon_s) + ",\n";
  out += std::string("  \"replayable\": ") +
         (spec.replayable ? "true" : "false") + ",\n";
  out += "  \"first_sequence\": " + std::to_string(first_sequence) + ",\n";
  out += "  \"last_sequence\": " + std::to_string(last_sequence) + ",\n";
  out += "  \"num_records\": " + std::to_string(spec.records.size()) + ",\n";
  out += "  \"notes\": [";
  for (std::size_t i = 0; i < spec.notes.size(); ++i) {
    if (i > 0)
      out += ", ";
    out += "\"" + json::EscapeJson(spec.notes[i]) + "\"";
  }
  out += "]\n}\n";
  return out;
}

}  // namespace

bool
WriteForensicBundle(const std::string& dir, const BundleSpec& spec,
                    std::string* error)
{
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    return Fail(error, "cannot create bundle dir " + dir + ": " + ec.message());

  const std::filesystem::path root(dir);
  // events.jsonl first: the timeline is the heart of the bundle, and the
  // manifest last so its presence marks a complete dump.
  if (!WriteFile((root / "events.jsonl").string(),
                 RecordsToJsonl(spec.records)))
    return Fail(error, "cannot write events.jsonl under " + dir);
  if (spec.metrics != nullptr) {
    if (!WriteFile((root / "metrics.json").string(),
                   SnapshotToJson(spec.metrics->Snapshot(spec.sim_time_s))))
      return Fail(error, "cannot write metrics.json under " + dir);
  }
  if (spec.tracer != nullptr) {
    if (!WriteFile((root / "traces.jsonl").string(),
                   TracesToJsonl(*spec.tracer)))
      return Fail(error, "cannot write traces.jsonl under " + dir);
  }
  if (!spec.racks_csv.empty()) {
    if (!WriteFile((root / "racks.csv").string(), spec.racks_csv))
      return Fail(error, "cannot write racks.csv under " + dir);
  }
  if (!spec.fault_plan_text.empty()) {
    if (!WriteFile((root / "fault_plan.txt").string(), spec.fault_plan_text))
      return Fail(error, "cannot write fault_plan.txt under " + dir);
  }
  if (!spec.fault_plan_jsonl.empty()) {
    if (!WriteFile((root / "fault_plan.jsonl").string(),
                   spec.fault_plan_jsonl))
      return Fail(error, "cannot write fault_plan.jsonl under " + dir);
  }
  if (!spec.timeseries_jsonl.empty()) {
    if (!WriteFile((root / "timeseries.jsonl").string(),
                   spec.timeseries_jsonl))
      return Fail(error, "cannot write timeseries.jsonl under " + dir);
  }
  if (!spec.alerts_jsonl.empty()) {
    if (!WriteFile((root / "alerts.jsonl").string(), spec.alerts_jsonl))
      return Fail(error, "cannot write alerts.jsonl under " + dir);
  }
  if (!WriteFile((root / "manifest.json").string(), ManifestJson(spec)))
    return Fail(error, "cannot write manifest.json under " + dir);
  return true;
}

bool
LoadBundleManifest(const std::string& dir, BundleManifest* out,
                   std::string* error)
{
  const std::string path =
      (std::filesystem::path(dir) / "manifest.json").string();
  std::string text;
  if (!ReadFile(path, &text))
    return Fail(error, "cannot read " + path);

  BundleManifest manifest;
  if (!json::ReadString(text, "format", &manifest.format))
    return Fail(error, path + ": missing format field");
  if (manifest.format != kBundleFormat)
    return Fail(error, path + ": unsupported format '" + manifest.format + "'");
  json::ReadString(text, "trigger", &manifest.trigger);
  json::ReadString(text, "scenario", &manifest.scenario);
  json::ReadNumber(text, "sim_time_s", &manifest.sim_time_s);
  json::ReadNumber(text, "horizon_s", &manifest.horizon_s);
  json::ReadBool(text, "replayable", &manifest.replayable);
  // A seed that does not read back exactly would replay another run.
  if (!json::ReadUint(text, "seed", &manifest.seed) ||
      !json::ReadUint(text, "first_sequence", &manifest.first_sequence) ||
      !json::ReadUint(text, "last_sequence", &manifest.last_sequence) ||
      !json::ReadUint(text, "num_records", &manifest.num_records))
    return Fail(error, path + ": malformed seed or record window");

  // Notes: an array of JSON strings. Reading each element as a string
  // literal keeps a ']' inside a note ("[ups-trip]") from ending it.
  std::size_t at = json::FindValue(text, "notes");
  if (at < text.size() && text[at] == '[') {
    ++at;
    std::string note;
    while (at < text.size() && text[at] != ']') {
      if (text[at] != '"') {
        ++at;  // whitespace or the comma between elements
        continue;
      }
      if (!json::ReadStringAt(text, &at, &note))
        return Fail(error, path + ": malformed notes");
      manifest.notes.push_back(note);
    }
  }

  *out = std::move(manifest);
  return true;
}

bool
LoadForensicBundle(const std::string& dir, LoadedBundle* out,
                   std::string* error)
{
  LoadedBundle bundle;
  if (!LoadBundleManifest(dir, &bundle.manifest, error))
    return false;

  const std::filesystem::path root(dir);
  std::string jsonl;
  const std::string events_path = (root / "events.jsonl").string();
  if (!ReadFile(events_path, &jsonl))
    return Fail(error, "cannot read " + events_path);
  std::string parse_error;
  if (!ParseRecordsJsonl(jsonl, &bundle.records, &parse_error))
    return Fail(error, events_path + ": " + parse_error);

  const std::string plan_path = (root / "fault_plan.jsonl").string();
  if (std::filesystem::exists(plan_path)) {
    if (!ReadFile(plan_path, &bundle.fault_plan_jsonl))
      return Fail(error, "cannot read " + plan_path);
  }

  *out = std::move(bundle);
  return true;
}

std::string
UniqueBundleDir(const std::string& root, const std::string& stem)
{
  const std::filesystem::path base(root);
  std::filesystem::path candidate = base / stem;
  for (int suffix = 2; std::filesystem::exists(candidate); ++suffix)
    candidate = base / (stem + "-" + std::to_string(suffix));
  return candidate.string();
}

std::string
ForensicsRootDir(const std::string& fallback)
{
  const char* env = std::getenv("FLEX_FORENSICS_DIR");
  if (env != nullptr && env[0] != '\0')
    return env;
  return fallback;
}

}  // namespace flex::obs
