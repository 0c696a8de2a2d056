#include "forensics.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace flex::fault {

namespace json = obs::json;

std::string
FaultPlanToJsonl(const FaultPlan& plan)
{
  // Numeric kinds keep the format trivially parseable; fault_plan.txt in
  // the same bundle carries the human-readable listing.
  std::string out;
  for (const FaultEvent& event : plan.events()) {
    out += "{\"at\":" + json::ExactNum(event.at.value());
    out += ",\"kind\":" + std::to_string(static_cast<int>(event.kind));
    out += ",\"target\":" + std::to_string(event.target);
    out += ",\"device_kind\":" +
           std::to_string(static_cast<int>(event.device_kind));
    out += ",\"meter_index\":" + std::to_string(event.meter_index);
    out += ",\"magnitude\":" + json::ExactNum(event.magnitude);
    out += ",\"duration\":" + json::ExactNum(event.duration.value());
    out += "}\n";
  }
  return out;
}

bool
ParseFaultPlanJsonl(const std::string& jsonl, FaultPlan* out,
                    std::string* error)
{
  *out = FaultPlan();
  json::LineReader lines(jsonl);
  while (lines.Next()) {
    const std::string& line = lines.line();
    double at = 0.0;
    int kind = 0;
    int device_kind = 0;
    double duration = 0.0;
    FaultEvent event;
    const bool ok = json::ReadNumber(line, "at", &at) &&
                    json::ReadInt(line, "kind", &kind) &&
                    json::ReadInt(line, "target", &event.target) &&
                    json::ReadInt(line, "device_kind", &device_kind) &&
                    json::ReadInt(line, "meter_index", &event.meter_index) &&
                    json::ReadNumber(line, "magnitude", &event.magnitude) &&
                    json::ReadNumber(line, "duration", &duration);
    if (!ok || kind < static_cast<int>(FaultKind::kUpsFailover) ||
        kind > static_cast<int>(FaultKind::kControllerPause) ||
        (device_kind != static_cast<int>(telemetry::DeviceKind::kUps) &&
         device_kind != static_cast<int>(telemetry::DeviceKind::kRack))) {
      if (error != nullptr)
        *error = "malformed fault event at line " +
                 std::to_string(lines.number());
      return false;
    }
    event.at = Seconds(at);
    event.kind = static_cast<FaultKind>(kind);
    event.device_kind = static_cast<telemetry::DeviceKind>(device_kind);
    event.duration = Seconds(duration);
    out->Add(event);
  }
  return true;
}

std::string
RacksCsv(const emulation::RoomEmulation& room)
{
  std::string out = "rack,category,powered_on,power_cap_w,true_power_w\n";
  const auto& categories = room.rack_categories();
  for (int r = 0; r < static_cast<int>(categories.size()); ++r) {
    const actuation::RackState& state = room.plane().rack(r).state();
    const Watts power =
        room.CurrentPower(telemetry::DeviceId{telemetry::DeviceKind::kRack, r});
    out += std::to_string(r) + ",";
    out += std::to_string(
               static_cast<int>(categories[static_cast<std::size_t>(r)])) +
           ",";
    out += state.powered_on ? "1," : "0,";
    if (state.power_cap.has_value())
      out += json::Num(state.power_cap->value());
    out += ",";
    out += json::Num(power.value());
    out += "\n";
  }
  return out;
}

namespace {

/** RunRecordedPlan; a null @p plan runs the fuzzer's plan for the room. */
RecordedRun
RunRecorded(const emulation::EmulationConfig& config, std::uint64_t seed,
            const FaultPlan* plan, const ForensicsOptions& options)
{
  obs::ObservabilityConfig obs_config;
  obs_config.recorder.capacity = options.recorder_capacity;
  obs::Observability obs(obs_config);

  emulation::EmulationConfig recorded_config = config;
  recorded_config.obs = &obs;
  recorded_config.seed = seed;
  emulation::RoomEmulation room(recorded_config);
  const FaultPlan run_plan = plan != nullptr ? *plan : FuzzedPlan(room);

  RecordedRun run;
  run.report = RunPlan(room, run_plan);
  run.records = obs.recorder().Records();

  const bool violated = !run.report.violations.empty();
  const bool alerted = run.report.room.alerts_fired > 0;
  if (!options.force_dump && !(options.dump_on_violation && violated) &&
      !(options.dump_on_alert && alerted))
    return run;

  obs::BundleSpec spec;
  spec.trigger = violated ? "invariant-violation"
                 : alerted ? "alert-firing"
                           : "manual";
  spec.scenario = "fault-fuzz";
  spec.seed = seed;
  spec.sim_time_s = room.queue().Now().value();
  spec.horizon_s = config.end_at.value();
  spec.replayable = true;
  spec.records = run.records;
  spec.metrics = &obs.metrics();
  spec.tracer = &obs.tracer();
  spec.fault_plan_text = run_plan.DebugString();
  spec.fault_plan_jsonl = FaultPlanToJsonl(run_plan);
  spec.racks_csv = RacksCsv(room);
  if (room.timeseries() != nullptr) {
    spec.timeseries_jsonl = room.timeseries()->ToJsonl();
    spec.alerts_jsonl = room.alert_engine()->TimelineJsonl();
  }
  for (const Violation& violation : run.report.violations)
    spec.notes.push_back("t=" + json::Num(violation.at.value()) + " [" +
                         violation.invariant + "] " + violation.message);
  for (const obs::AlertTransition& edge : run.report.room.alert_timeline) {
    if (edge.to != obs::AlertState::kFiring)
      continue;
    spec.notes.push_back("t=" + json::Num(edge.t) + " [alert] " + edge.rule +
                         " fired: " + edge.message);
  }

  const std::string root = options.root_dir.empty()
                               ? obs::ForensicsRootDir()
                               : options.root_dir;
  const std::string dir = obs::UniqueBundleDir(
      root, "bundle-seed" + std::to_string(seed));
  std::string error;
  if (obs::WriteForensicBundle(dir, spec, &error)) {
    run.bundle_dir = dir;
    FLEX_LOG(obs::LogLevel::kWarn, "forensics", "dumped bundle to %s (%s)",
             dir.c_str(), spec.trigger.c_str());
  } else {
    run.dump_error = error;
    FLEX_LOG(obs::LogLevel::kError, "forensics", "bundle dump failed: %s",
             error.c_str());
  }
  return run;
}

}  // namespace

RecordedRun
RunRecordedPlan(const emulation::EmulationConfig& config, std::uint64_t seed,
                const FaultPlan& plan, const ForensicsOptions& options)
{
  return RunRecorded(config, seed, &plan, options);
}

RecordedRun
RunRecordedScenario(const emulation::EmulationConfig& config,
                    std::uint64_t seed, const ForensicsOptions& options)
{
  return RunRecorded(config, seed, nullptr, options);
}

ReplayReport
ReplayBundle(const std::string& bundle_dir,
             const emulation::EmulationConfig& config)
{
  ReplayReport replay;

  obs::LoadedBundle bundle;
  if (!obs::LoadForensicBundle(bundle_dir, &bundle, &replay.error))
    return replay;
  replay.manifest = bundle.manifest;
  if (!bundle.manifest.replayable) {
    replay.error = "bundle is not marked replayable";
    return replay;
  }
  // A plan replayed on another room diverges at once, which would read as
  // a determinism failure. The manifest keeps the recorded room's end
  // time to 9 digits; refuse a config whose end differs at that precision.
  const std::string recorded_end = json::Num(bundle.manifest.horizon_s);
  const std::string replay_end = json::Num(config.end_at.value());
  if (recorded_end != replay_end) {
    replay.error = "bundle was recorded on a room ending at " +
                   recorded_end + " s, not on this room ending at " +
                   replay_end + " s";
    return replay;
  }

  FaultPlan plan;
  if (!ParseFaultPlanJsonl(bundle.fault_plan_jsonl, &plan, &replay.error))
    return replay;
  replay.loaded = true;

  // Re-execute in a fresh room on the bundle's seed, recording with a
  // ring at least as large as the bundle window so the replay retains
  // everything the bundle retained.
  ForensicsOptions replay_options;
  replay_options.dump_on_violation = false;
  replay_options.force_dump = false;
  replay_options.recorder_capacity =
      std::max<std::size_t>(bundle.records.size(), 1) * 2;
  RecordedRun rerun =
      RunRecordedPlan(config, bundle.manifest.seed, plan, replay_options);
  replay.report = rerun.report;
  replay.compared = bundle.records.size();
  replay.divergence = obs::FirstDivergence(bundle.records, rerun.records);
  return replay;
}

}  // namespace flex::fault
