/**
 * @file
 * Live-observability demo: the failover drill with the embedded HTTP
 * plane attached, recorded as a fault run and then replayed.
 *
 * Starts the ObservabilityServer on FLEX_LIVE_PORT (default: an
 * ephemeral port, printed at startup), runs the Section V-C failover
 * drill while a LiveHub publishes metrics/traces/recorder tails every
 * sample, then self-scrapes /metrics and prints the first lines so the
 * demo is useful even without a browser. Set FLEX_LIVE_HOLD=<seconds>
 * to keep the server up after the drill for manual curl / Prometheus
 * scraping:
 *
 *   FLEX_LIVE_PORT=9090 FLEX_LIVE_HOLD=600 ./flex_live &
 *   curl -s localhost:9090/metrics | head
 *   curl -s localhost:9090/healthz
 *   curl -s localhost:9090/trace | python3 -m json.tool | head
 *   curl -s localhost:9090/recorder | tail -3
 *   curl -s localhost:9090/alerts | python3 -m json.tool | head -40
 *   curl -s 'localhost:9090/query?metric=pipeline.readings_delivered&window=120'
 *
 * The drill is a fault plan: every poller crashes for 60 s during the
 * failover window, so the run is also an alerting walkthrough. Watch
 * the built-in TelemetryStalled page go pending -> firing on /alerts
 * (and as ALERTS{...} on /metrics), then resolve when the pollers
 * restart. The run is recorded (fault::RunRecordedPlan), so a fired
 * alert leaves a forensic bundle under FLEX_FORENSICS_DIR (default
 * ./forensics) with the full time-series history attached; the demo then
 * replays that bundle and prints the verdict. Exit status: 0 when safety
 * held, a bundle was written and its replay matched; 1 when safety was
 * violated, no bundle was written or it could not be replayed; 2 when
 * the replay diverged.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "emulation/room_emulation.hpp"
#include "fault/fault_plan.hpp"
#include "fault/forensics.hpp"
#include "obs/http_export.hpp"
#include "obs/profiler.hpp"

int
main()
{
  using namespace flex;

  obs::LiveHub hub;

  obs::ObservabilityServerConfig server_config;
  if (const char* port = std::getenv("FLEX_LIVE_PORT");
      port != nullptr && *port != '\0')
    server_config.port = std::atoi(port);
  server_config.run_info = {{"example", "flex_live"}, {"seed", "2021"}};
  obs::ObservabilityServer server(hub, server_config);
  server.SetProfiler(&obs::Profiler::Global());
  if (!server.Start()) {
    std::fprintf(stderr, "failed to start HTTP server\n");
    return 1;
  }
  std::printf("live observability plane on http://localhost:%d\n"
              "  endpoints: /metrics /healthz /trace /recorder\n\n",
              server.port());

  emulation::EmulationConfig config;
  config.live = &hub;
  // History + rules on every sample tick; a node-budgeted placement, so
  // the replay builds the same room on any machine.
  config.alerts.enabled = true;
  config.placement_solve_seconds = 1e9;
  config.placement_max_nodes = 2000;

  // The outage: every poller crashes mid-failover and restarts a minute
  // later, long enough to trip TelemetryStalled.
  const Seconds outage_at(15.0 * 60.0);
  const Seconds outage_for(60.0);
  fault::FaultPlan plan;
  for (int poller = 0; poller < config.pipeline.num_pollers; ++poller) {
    fault::FaultEvent crash;
    crash.at = outage_at;
    crash.kind = fault::FaultKind::kPollerCrash;
    crash.target = poller;
    crash.duration = outage_for;
    plan.Add(crash);
  }
  fault::ForensicsOptions options;
  options.dump_on_alert = true;

  std::printf("running the failover drill (%0.f emulated minutes, "
              "telemetry outage at t=%.0f..%.0f s)...\n",
              config.end_at.value() / 60.0, outage_at.value(),
              (outage_at + outage_for).value());
  const fault::RecordedRun run =
      fault::RunRecordedPlan(config, config.seed, plan, options);
  const emulation::EmulationReport& report = run.report.room;

  std::printf("drill done: safety %s, time to safe %.2f s, "
              "%llu publishes, %llu scrapes served\n\n",
              report.safety_violated ? "VIOLATED" : "maintained",
              report.time_to_safe_seconds,
              static_cast<unsigned long long>(hub.publish_count()),
              static_cast<unsigned long long>(server.requests_served()));

  std::printf("--- alert timeline (%llu fired, fingerprint %016llx) ---\n",
              static_cast<unsigned long long>(report.alerts_fired),
              static_cast<unsigned long long>(report.alert_fingerprint));
  for (const obs::AlertTransition& edge : report.alert_timeline)
    std::printf("  t=%8.1f  %-18s %s -> %s  %s\n", edge.t, edge.rule.c_str(),
                obs::AlertStateName(edge.from), obs::AlertStateName(edge.to),
                edge.message.c_str());
  std::printf("\n");

  // Self-scrape so the demo shows real exposition without curl.
  std::istringstream metrics(server.RenderMetrics());
  std::printf("--- /metrics (first 16 lines) ---\n");
  std::string line;
  for (int i = 0; i < 16 && std::getline(metrics, line); ++i)
    std::printf("%s\n", line.c_str());
  int health_status = 0;
  const std::string health = server.RenderHealth(&health_status);
  std::printf("--- /healthz (%d) ---\n%s\n", health_status, health.c_str());
  std::istringstream alerts(server.RenderAlerts());
  std::printf("--- /alerts (first 12 lines) ---\n");
  for (int i = 0; i < 12 && std::getline(alerts, line); ++i)
    std::printf("%s\n", line.c_str());
  int query_status = 0;
  std::istringstream query(server.RenderQuery(
      "pipeline.readings_delivered", 120.0, 0.0, &query_status));
  std::printf("--- /query?metric=pipeline.readings_delivered&window=120 "
              "(%d, first 2 lines) ---\n", query_status);
  for (int i = 0; i < 2 && std::getline(query, line); ++i)
    std::printf("%s\n", line.c_str());

  // The bundle is the recorded run, so replaying it re-executes the
  // drill and must track every recorded event.
  int exit_code = report.safety_violated ? 1 : 0;
  if (run.bundle_dir.empty()) {
    std::fprintf(stderr, "no alert bundle was written%s%s\n",
                 run.dump_error.empty() ? "" : ": ", run.dump_error.c_str());
    exit_code = 1;
  } else {
    const fault::ReplayReport replay =
        fault::ReplayBundle(run.bundle_dir, config);
    std::printf("--- replay of %s ---\n", run.bundle_dir.c_str());
    if (!replay.loaded) {
      std::fprintf(stderr, "cannot replay %s: %s\n", run.bundle_dir.c_str(),
                   replay.error.c_str());
      exit_code = 1;
    } else if (replay.divergence.has_value()) {
      std::printf("DIVERGED: %s\n", replay.divergence->Summary().c_str());
      exit_code = 2;
    } else {
      std::printf("%zu records replayed with zero divergence\n",
                  replay.compared);
    }
  }

  if (const char* hold = std::getenv("FLEX_LIVE_HOLD");
      hold != nullptr && *hold != '\0') {
    const int seconds = std::atoi(hold);
    std::printf("holding the server open for %d s (FLEX_LIVE_HOLD)...\n",
                seconds);
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
  }

  server.Stop();
  return exit_code;
}
