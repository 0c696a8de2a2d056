/**
 * @file
 * Live observability plane: snapshot hub + HTTP endpoints.
 *
 * The repo's original observability (metrics registry, reaction tracer,
 * flight recorder) is export-at-end-of-run; this layer makes a running
 * harness scrapeable without perturbing it. The concurrency model is
 * one-directional publishing:
 *
 *   sim/solver thread --Publish*()--> LiveHub --Latest*()--> HTTP thread
 *
 * The hub stores deep copies under a mutex; the instrumented thread
 * copies its single-threaded state in (at sample cadence), the server
 * thread copies it out per scrape. Neither side ever touches the other
 * side's live structures, so a scraper hammering the endpoints cannot
 * change a single simulated event — the bit-identity determinism tests
 * run unchanged with a concurrent scrape loop (asserted in
 * tests/obs_http_test.cpp).
 *
 * Endpoints served by ObservabilityServer:
 *   /metrics  - Prometheus text exposition: the last published registry
 *               snapshot, live process gauges (thread-pool utilization
 *               via AddLiveGauge), the hub's solver progress
 *               (flex_solver_*), profiler phase histograms, watchdog +
 *               log-suppression counters, and a flex_build_info series
 *               carrying run-info labels.
 *   /healthz  - JSON health rollup (published invariant status +
 *               watchdog state); HTTP 503 when unhealthy or stalled.
 *   /trace    - last-N reaction episodes as a JSON array of TraceToJson
 *               objects (obs/export.hpp).
 *   /recorder - flight-recorder tail snapshot as JSONL.
 *   /alerts   - alert-engine state + recent transition history (JSON).
 *   /query    - ?metric=&window=&res= time-series reads from the last
 *               published TimeSeriesStore snapshot (res=0: raw points).
 */
#ifndef FLEX_OBS_HTTP_EXPORT_HPP_
#define FLEX_OBS_HTTP_EXPORT_HPP_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/alerts.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "solver/live_stats.hpp"

namespace flex::common {
class ThreadPool;
}  // namespace flex::common

namespace flex::obs {

/** Health rollup published by the instrumented harness. */
struct HealthSnapshot {
  bool ok = true;
  double sim_time_seconds = 0.0;
  /** Safety/invariant violations observed so far. */
  std::uint64_t violations = 0;
  /** First/most recent violation message; empty when healthy. */
  std::string detail;
};

/**
 * Thread-safe snapshot mailbox between instrumented harnesses and the
 * HTTP server. Publishing replaces the previous copy (last writer
 * wins), which is exactly right for concurrent sweep lanes sharing one
 * hub: the scrape sees *a* recent lane's state, and the lanes never
 * coordinate — determinism stays untouched.
 *
 * The hub also owns the live plane's two shared sinks: the stall
 * watchdog every publishing loop heartbeats into, and the solver
 * progress its harnesses' placement solves write. Both are
 * write-only from the harness side.
 */
class LiveHub {
 public:
  explicit LiveHub(WatchdogConfig watchdog = {})
      : watchdog_(std::move(watchdog)) {}

  /** Heartbeats of the loops publishing here (one per room). */
  StallWatchdog& watchdog() { return watchdog_; }
  /** Progress of the placement solves of the harnesses publishing here. */
  solver::LiveSolverStats& solver() { return solver_; }

  void PublishMetrics(const MetricsSnapshot& snapshot);
  MetricsSnapshot LatestMetrics() const;

  /** Keeps the last @p tail traces of @p traces. */
  void PublishTraces(const std::vector<ReactionTrace>& traces,
                     std::size_t tail = 32);
  std::vector<ReactionTrace> LatestTraces() const;

  /** Keeps the last @p tail records of the recorder's retained window. */
  void PublishRecorderTail(const FlightRecorder& recorder,
                           std::size_t tail = 256);
  std::vector<FlightRecord> LatestRecords() const;

  void PublishHealth(const HealthSnapshot& health);
  HealthSnapshot LatestHealth() const;

  void PublishAlerts(const AlertsSnapshot& alerts);
  AlertsSnapshot LatestAlerts() const;

  void PublishSeries(const TimeSeriesSnapshot& series);
  TimeSeriesSnapshot LatestSeries() const;

  /** Publish calls of any kind (an atomic; readable from any thread). */
  std::uint64_t publish_count() const {
    return publishes_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  MetricsSnapshot metrics_;
  std::vector<ReactionTrace> traces_;
  std::vector<FlightRecord> records_;
  HealthSnapshot health_;
  AlertsSnapshot alerts_;
  TimeSeriesSnapshot series_;
  std::atomic<std::uint64_t> publishes_{0};
  StallWatchdog watchdog_;
  solver::LiveSolverStats solver_;
};

/**
 * Sanitizes a dot-separated registry name into a legal Prometheus
 * metric name with the "flex_" namespace prefix:
 * "pipeline.publish_lag_s" -> "flex_pipeline_publish_lag_s".
 */
std::string PrometheusName(const std::string& name);

/**
 * Renders a registry snapshot in Prometheus text exposition format
 * (counters gain a `_total` suffix, histograms expand to cumulative
 * `_bucket{le=...}` series plus `_sum`/`_count`). Pure function — also
 * used headless by exporters and tests.
 */
std::string SnapshotToPrometheus(const MetricsSnapshot& snapshot);

/** Server tuning. */
struct ObservabilityServerConfig {
  /** TCP port; 0 binds an ephemeral port (see HttpServer::port()). */
  int port = 0;
  /** Run-info labels stamped onto the flex_build_info series. */
  std::vector<std::pair<std::string, std::string>> run_info;
};

/**
 * Extracts an (unescaped) query-string parameter: "metric=a&window=60".
 * False when @p key is absent; an empty value ("metric=") returns true.
 */
bool HttpQueryParam(const std::string& query, const std::string& key,
                    std::string* value);

/**
 * Binds a LiveHub (plus optional profiler / live gauges) to the HTTP
 * endpoints; the hub's watchdog and solver progress are always served.
 * The Render* methods are public so tests and exporters can exercise
 * the exact endpoint bodies without a socket.
 */
class ObservabilityServer {
 public:
  explicit ObservabilityServer(LiveHub& hub,
                               ObservabilityServerConfig config = {});

  /**
   * Registers a gauge sampled at scrape time. @p sample runs on the
   * server thread and must only read atomics (thread-pool counters) —
   * that contract is what keeps scrapes observer-only. Call before
   * Start().
   */
  void AddLiveGauge(std::string name, std::function<double()> sample);

  /** Convenience: flex_pool_{size,running,queued} + steals gauges. */
  void WireThreadPool(const common::ThreadPool& pool);

  /** Profiler whose phase histograms join /metrics; not owned. */
  void SetProfiler(const Profiler* profiler) { profiler_ = profiler; }

  /** Starts serving and the hub's watchdog checker; false if bind fails. */
  bool Start() {
    if (!http_.Start(config_.port))
      return false;
    hub_.watchdog().Start();
    return true;
  }
  void Stop() {
    http_.Stop();
    hub_.watchdog().Stop();
  }
  int port() const { return http_.port(); }
  bool running() const { return http_.running(); }
  std::uint64_t requests_served() const { return http_.requests_served(); }

  /** Endpoint bodies (also served over HTTP once Start()ed). */
  std::string RenderMetrics() const;
  /**
   * @p http_status (optional out): 200 healthy, 503 otherwise. The
   * rollup folds in the last published alert state; only a firing
   * page-severity alert (not warn/info) degrades the status code.
   */
  std::string RenderHealth(int* http_status = nullptr) const;
  std::string RenderTrace() const;
  std::string RenderRecorder() const;
  std::string RenderAlerts() const;
  /**
   * Body for /query. @p resolution_s 0 serves raw points; otherwise
   * the finest tier at least as coarse as requested. @p window_s 0
   * serves the full retained window. 404 on an unknown metric.
   */
  std::string RenderQuery(const std::string& metric, double window_s,
                          double resolution_s,
                          int* http_status = nullptr) const;

 private:
  LiveHub& hub_;
  ObservabilityServerConfig config_;
  const Profiler* profiler_ = nullptr;
  std::vector<std::pair<std::string, std::function<double()>>> live_gauges_;
  HttpServer http_;
};

}  // namespace flex::obs

#endif  // FLEX_OBS_HTTP_EXPORT_HPP_
