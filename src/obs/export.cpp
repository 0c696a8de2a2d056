#include "export.hpp"

#include <cstdio>
#include <fstream>

#include "obs/json.hpp"

namespace flex::obs {

namespace {

std::string
MetricJsonObject(const MetricRow& row)
{
  std::string out = "{\"type\":\"";
  out += MetricKindName(row.kind);
  out += "\"";
  if (row.kind == MetricKind::kHistogram) {
    out += ",\"count\":" + std::to_string(row.count);
    out += ",\"sum\":" + json::Num(row.sum);
    out += ",\"min\":" + json::Num(row.min);
    out += ",\"max\":" + json::Num(row.max);
    out += ",\"p50\":" + json::Num(row.p50);
    out += ",\"p99\":" + json::Num(row.p99);
  } else {
    out += ",\"value\":" + json::Num(row.value);
  }
  out += "}";
  return out;
}

}  // namespace

std::string
TraceToJson(const ReactionTrace& trace)
{
  std::string out = "{\"id\":" + std::to_string(trace.id);
  out += ",\"replica\":" + std::to_string(trace.detecting_replica);
  out += ",\"ups\":" + std::to_string(trace.ups_index);
  out += ",\"actions\":" + std::to_string(trace.actions);
  out += ",\"dup_detections\":" + std::to_string(trace.duplicate_detections);
  out += ",\"dup_waves\":" + std::to_string(trace.duplicate_waves);
  out += ",\"sampled_at\":" + json::Num(trace.sampled_at.value());
  out += ",\"delivered_at\":" + json::Num(trace.delivered_at.value());
  out += ",\"detected_at\":" + json::Num(trace.detected_at.value());
  out += ",\"decided_at\":" + json::Num(trace.decided_at.value());
  out += ",\"enforced_at\":" + json::Num(trace.enforced_at.value());
  out += std::string(",\"complete\":") + (trace.complete ? "true" : "false");
  out += std::string(",\"closed\":") + (trace.closed ? "true" : "false");
  out += ",\"budget\":" + json::Num(trace.budget.value()) + "}";
  return out;
}

bool
ParseTraceJson(const std::string& line, ReactionTrace* out)
{
  const auto read_seconds = [&line](const char* key, Seconds* value) {
    double seconds = 0.0;
    if (!json::ReadNumber(line, key, &seconds))
      return false;
    *value = Seconds(seconds);
    return true;
  };
  ReactionTrace trace;
  if (!json::ReadUint(line, "id", &trace.id) ||
      !json::ReadInt(line, "replica", &trace.detecting_replica) ||
      !json::ReadInt(line, "ups", &trace.ups_index) ||
      !json::ReadInt(line, "actions", &trace.actions) ||
      !json::ReadInt(line, "dup_detections", &trace.duplicate_detections) ||
      !json::ReadInt(line, "dup_waves", &trace.duplicate_waves) ||
      !read_seconds("sampled_at", &trace.sampled_at) ||
      !read_seconds("delivered_at", &trace.delivered_at) ||
      !read_seconds("detected_at", &trace.detected_at) ||
      !read_seconds("decided_at", &trace.decided_at) ||
      !read_seconds("enforced_at", &trace.enforced_at) ||
      !json::ReadBool(line, "complete", &trace.complete) ||
      !json::ReadBool(line, "closed", &trace.closed) ||
      !read_seconds("budget", &trace.budget))
    return false;
  *out = trace;
  return true;
}

std::string
TracesToJsonl(const ReactionTracer& tracer)
{
  std::string out;
  for (const ReactionTrace& trace : tracer.traces()) {
    out += TraceToJson(trace);
    out += '\n';
  }
  return out;
}

std::string
SnapshotToJson(const MetricsSnapshot& snapshot)
{
  std::string out = "{\n";
  out += "  \"sim_time_s\": " + json::Num(snapshot.sim_time_seconds);
  out += ",\n  \"metrics\": {";
  bool first = true;
  for (const MetricRow& row : snapshot.rows) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + row.name + "\": " + MetricJsonObject(row);
  }
  out += "\n  }\n}\n";
  return out;
}

std::string
BenchJsonLine(const std::string& bench_name, const MetricsSnapshot& snapshot)
{
  std::string out = "{\"bench\":\"" + bench_name + "\"";
  out += ",\"sim_time_s\":" + json::Num(snapshot.sim_time_seconds);
  out += ",\"metrics\":{";
  bool first = true;
  for (const MetricRow& row : snapshot.rows) {
    if (!first)
      out += ',';
    first = false;
    out += "\"" + row.name + "\":" + MetricJsonObject(row);
  }
  out += "}}";
  return out;
}

bool
AppendLine(const std::string& path, const std::string& line)
{
  std::ofstream file(path, std::ios::app);
  if (!file)
    return false;
  file << line << '\n';
  return static_cast<bool>(file);
}

bool
WriteFile(const std::string& path, const std::string& content)
{
  std::ofstream file(path, std::ios::trunc);
  if (!file)
    return false;
  file << content;
  return static_cast<bool>(file);
}

std::string
SummaryTable(const MetricsSnapshot& snapshot, const ReactionTracer* tracer)
{
  char line[200];
  std::string out;
  out += "--- metrics @ t=" + json::Num(snapshot.sim_time_seconds) +
         " s ---\n";
  bool header_done = false;
  for (const MetricRow& row : snapshot.rows) {
    if (row.kind != MetricKind::kHistogram)
      continue;
    if (!header_done) {
      std::snprintf(line, sizeof(line), "%-32s %10s %12s %12s %12s\n",
                    "histogram", "count", "p50", "p99", "max");
      out += line;
      header_done = true;
    }
    std::snprintf(line, sizeof(line), "%-32s %10llu %12.4g %12.4g %12.4g\n",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.count), row.p50,
                  row.p99, row.max);
    out += line;
  }
  header_done = false;
  for (const MetricRow& row : snapshot.rows) {
    if (row.kind == MetricKind::kHistogram)
      continue;
    if (!header_done) {
      std::snprintf(line, sizeof(line), "%-32s %10s %12s\n", "scalar", "kind",
                    "value");
      out += line;
      header_done = true;
    }
    std::snprintf(line, sizeof(line), "%-32s %10s %12.6g\n", row.name.c_str(),
                  MetricKindName(row.kind), row.value);
    out += line;
  }
  if (tracer == nullptr)
    return out;

  out += "--- reaction traces (budget " +
         json::Num(tracer->config().budget.value()) + " s) ---\n";
  if (tracer->traces().empty()) {
    out += "(no overload episodes)\n";
    return out;
  }
  std::snprintf(line, sizeof(line),
                "%5s %4s %8s %8s %8s %8s %10s %7s\n", "trace", "ups",
                "publish", "observe", "decide", "actuate", "end-to-end",
                "verdict");
  out += line;
  for (const ReactionTrace& trace : tracer->traces()) {
    if (!trace.complete) {
      std::snprintf(line, sizeof(line), "%5llu %4d %8.3f %8.3f %8s %8s %10s %7s\n",
                    static_cast<unsigned long long>(trace.id),
                    trace.ups_index,
                    trace.StageLatency(ReactionStage::kPublish).value(),
                    trace.StageLatency(ReactionStage::kObserve).value(), "-",
                    "-", "-", "open");
      out += line;
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "%5llu %4d %8.3f %8.3f %8.3f %8.3f %10.3f %7s\n",
                  static_cast<unsigned long long>(trace.id), trace.ups_index,
                  trace.StageLatency(ReactionStage::kPublish).value(),
                  trace.StageLatency(ReactionStage::kObserve).value(),
                  trace.StageLatency(ReactionStage::kDecide).value(),
                  trace.StageLatency(ReactionStage::kActuate).value(),
                  trace.EndToEnd().value(),
                  trace.WithinBudget() ? "OK" : "OVER");
    out += line;
  }
  return out;
}

}  // namespace flex::obs
