/**
 * @file
 * Exporters: reaction traces, JSON metrics snapshots, and the
 * human-readable end-of-run summary table.
 *
 * The JSON metrics format is line-oriented — one metric object per line
 * in a fixed key order — so BENCH_*.json trajectory files stay diffable
 * across runs and shell tooling (scripts/check_budget.sh) can extract
 * values without a JSON parser. Numbers render with json::Num (%.9g):
 * nine significant digits, identical bytes for equal seeds, but not a
 * bit-exact double round trip (see obs/json.hpp).
 */
#ifndef FLEX_OBS_EXPORT_HPP_
#define FLEX_OBS_EXPORT_HPP_

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flex::obs {

/**
 * One reaction trace as a single-line JSON object with fixed key order:
 * id, replica, ups, actions, dup_detections, dup_waves, the five stage
 * timestamps sampled_at .. enforced_at, complete, closed, budget. The
 * one trace wire format: /trace, a bundle's traces.jsonl and
 * FLEX_TRACE_OUT all carry these lines.
 */
std::string TraceToJson(const ReactionTrace& trace);

/** Every trace, one TraceToJson line each (JSONL). */
std::string TracesToJsonl(const ReactionTracer& tracer);

/**
 * Parses one TraceToJson line; false on malformed input. Timestamps
 * come back to the nine significant digits they were written with.
 */
bool ParseTraceJson(const std::string& line, ReactionTrace* out);

/** Pretty multi-line JSON: snapshot header + one metric per line. */
std::string SnapshotToJson(const MetricsSnapshot& snapshot);

/**
 * One compact JSON object (single line) tagging the snapshot with a
 * bench name — the unit appended to a BENCH_*.json trajectory file.
 */
std::string BenchJsonLine(const std::string& bench_name,
                          const MetricsSnapshot& snapshot);

/**
 * Appends @p line + '\n' to @p path (creating it if needed).
 * @return false on I/O failure.
 */
bool AppendLine(const std::string& path, const std::string& line);

/** Overwrites @p path with @p content. @return false on I/O failure. */
bool WriteFile(const std::string& path, const std::string& content);

/**
 * Human-readable end-of-run summary: histogram table (count / p50 /
 * p99 / max), counters and gauges, and — when a tracer is supplied —
 * the per-stage reaction breakdown of every completed trace against
 * the budget.
 */
std::string SummaryTable(const MetricsSnapshot& snapshot,
                         const ReactionTracer* tracer = nullptr);

}  // namespace flex::obs

#endif  // FLEX_OBS_EXPORT_HPP_
