/**
 * @file
 * Live-observability demo: the failover drill with the embedded HTTP
 * plane attached.
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
 * The drill injects a 60 s telemetry outage during the failover window,
 * so the run is also an alerting walkthrough: watch the built-in
 * TelemetryStalled page go pending -> firing on /alerts (and as
 * ALERTS{...} on /metrics), then resolve when the pollers recover. The
 * firing edge drops a forensic bundle under FLEX_FORENSICS_DIR
 * (default build/forensics) with the full time-series history attached.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "emulation/room_emulation.hpp"
#include "obs/http_export.hpp"
#include "obs/observability.hpp"
#include "obs/profiler.hpp"

int
main()
{
  using namespace flex;

  obs::Observability observability;
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
  config.obs = &observability;
  config.live = &hub;
  // The alerting walkthrough: history + rules on every sample tick, a
  // telemetry outage injected mid-failover to trip TelemetryStalled,
  // and a forensic bundle dumped on the firing edge.
  config.alerts.enabled = true;
  const char* forensics_env = std::getenv("FLEX_FORENSICS_DIR");
  config.alerts.forensics_root =
      forensics_env != nullptr && *forensics_env != '\0' ? forensics_env
                                                         : "forensics";
  config.telemetry_outage_at = Seconds(15.0 * 60.0);
  config.telemetry_outage_until = Seconds(16.0 * 60.0);
  emulation::RoomEmulation emulation(config);
  std::printf("running the failover drill (%0.f emulated minutes, "
              "telemetry outage at t=%.0f..%.0f s)...\n",
              config.end_at.value() / 60.0,
              config.telemetry_outage_at.value(),
              config.telemetry_outage_until.value());
  const emulation::EmulationReport report = emulation.Run();

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

  if (const char* hold = std::getenv("FLEX_LIVE_HOLD");
      hold != nullptr && *hold != '\0') {
    const int seconds = std::atoi(hold);
    std::printf("holding the server open for %d s (FLEX_LIVE_HOLD)...\n",
                seconds);
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
  }

  server.Stop();
  return report.safety_violated ? 1 : 0;
}
