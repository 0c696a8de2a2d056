/**
 * @file
 * Tests for the live observability plane: the embedded HTTP server, the
 * Prometheus/JSON exporters, the in-process profiler and stall
 * watchdog, and — the house invariant — proof that a scraper hammering
 * every endpoint cannot change one bit of a deterministic sweep.
 */
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "emulation/fleet_emulation.hpp"
#include "emulation/room_emulation.hpp"
#include "obs/alerts.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_export.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/profiler.hpp"
#include "solver/branch_and_bound.hpp"
#include "solver/model.hpp"

namespace flex::obs {
namespace {

/** Minimal blocking HTTP/1.0-style client for exercising the server. */
struct ClientResponse {
  int status = 0;
  std::string body;
};

ClientResponse
HttpGet(int port, const std::string& path)
{
  ClientResponse response;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return response;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return response;
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ssize_t unused = ::send(fd, request.data(), request.size(), 0);
  (void)unused;
  std::string raw;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0)
    raw.append(buffer, static_cast<std::size_t>(n));
  ::close(fd);
  if (raw.compare(0, 9, "HTTP/1.1 ") == 0)
    response.status = std::atoi(raw.c_str() + 9);
  const std::size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos)
    response.body = raw.substr(split + 4);
  return response;
}

/**
 * Sends raw bytes (in timed chunks) and parses whatever comes back —
 * for exercising the protocol-abuse paths a well-formed GET never hits.
 * Each element of @p chunks is sent after @p pause_between.
 */
ClientResponse
RawRequest(int port, const std::vector<std::string>& chunks,
           std::chrono::milliseconds pause_between = {})
{
  ClientResponse response;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return response;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return response;
  }
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (i > 0 && pause_between.count() > 0)
      std::this_thread::sleep_for(pause_between);
    if (::send(fd, chunks[i].data(), chunks[i].size(), MSG_NOSIGNAL) < 0)
      break;  // the server may already have answered and closed
  }
  std::string raw;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0)
    raw.append(buffer, static_cast<std::size_t>(n));
  ::close(fd);
  if (raw.compare(0, 9, "HTTP/1.1 ") == 0)
    response.status = std::atoi(raw.c_str() + 9);
  const std::size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos)
    response.body = raw.substr(split + 4);
  return response;
}

/**
 * Validates Prometheus text-exposition grammar on @p text: every
 * non-comment line is `name value` or `name{labels} value` with a
 * finite-or-inf numeric value, every series name was announced by a
 * preceding # TYPE line (histogram/summary series match their family
 * prefix), and no family is announced twice.
 */
void
ValidateExposition(const std::string& text)
{
  std::map<std::string, std::string> type_of;  // family -> type
  std::istringstream stream(text);
  std::string line;
  int series = 0;
  while (std::getline(stream, line)) {
    if (line.empty())
      continue;
    if (line.compare(0, 7, "# TYPE ") == 0) {
      std::istringstream header(line.substr(7));
      std::string family, type;
      header >> family >> type;
      ASSERT_FALSE(family.empty()) << line;
      ASSERT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram" || type == "summary")
          << line;
      ASSERT_TRUE(type_of.emplace(family, type).second)
          << "family announced twice: " << line;
      continue;
    }
    ASSERT_NE(line.front(), '#') << "unexpected comment: " << line;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string series_name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    ASSERT_EQ(*end, '\0') << "non-numeric value in: " << line;
    const std::size_t brace = series_name.find('{');
    if (brace != std::string::npos) {
      ASSERT_EQ(series_name.back(), '}') << line;
      series_name = series_name.substr(0, brace);
    }
    // The series must belong to an announced family: either the name
    // itself or, for histogram/summary expansions, its prefix before
    // _bucket/_sum/_count.
    bool announced = type_of.count(series_name) > 0;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      if (announced)
        break;
      const std::string s(suffix);
      if (series_name.size() > s.size() &&
          series_name.compare(series_name.size() - s.size(), s.size(), s) ==
              0) {
        announced =
            type_of.count(series_name.substr(0, series_name.size() -
                                                    s.size())) > 0;
      }
    }
    EXPECT_TRUE(announced) << "series without # TYPE: " << series_name;
    ++series;
  }
  EXPECT_GT(series, 0);
}

TEST(PrometheusExportTest, NameSanitization)
{
  EXPECT_EQ(PrometheusName("pipeline.publish_lag_s"),
            "flex_pipeline_publish_lag_s");
  EXPECT_EQ(PrometheusName("room.events_executed"),
            "flex_room_events_executed");
  EXPECT_EQ(PrometheusName("weird-name with spaces"),
            "flex_weird_name_with_spaces");
}

TEST(PrometheusExportTest, SnapshotRendersValidExposition)
{
  MetricsRegistry registry;
  registry.counter("controller.overdraw_events").Increment(3.0);
  registry.gauge("room.total_mw").Set(4.8);
  Histogram& h = registry.histogram("pipeline.publish_lag_s");
  h.Observe(0.01);
  h.Observe(0.5);
  h.Observe(2.0);

  const std::string text = SnapshotToPrometheus(registry.Snapshot());
  ValidateExposition(text);
  EXPECT_NE(text.find("# TYPE flex_controller_overdraw_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("flex_controller_overdraw_events_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("flex_room_total_mw 4.8"), std::string::npos);
  EXPECT_NE(text.find("# TYPE flex_pipeline_publish_lag_s summary"),
            std::string::npos);
  EXPECT_NE(text.find("flex_pipeline_publish_lag_s_count 3"),
            std::string::npos);
  EXPECT_NE(text.find("flex_sim_time_seconds 0"), std::string::npos);
}

TEST(PrometheusExportTest, ProfilerHistogramBucketsAreCumulative)
{
  Profiler profiler;
  profiler.Record("unit.phase", 3.0, 2.0);     // ~2 us bucket
  profiler.Record("unit.phase", 100.0, 80.0);  // ~128 us bucket
  profiler.Record("unit.phase", 1e7, 1e7);     // overflow (+Inf only)

  LiveHub hub;
  ObservabilityServer server(hub);
  server.SetProfiler(&profiler);
  const std::string text = server.RenderMetrics();
  ValidateExposition(text);

  // Walk the wall-time bucket series: counts must be monotonically
  // non-decreasing and the +Inf bucket must equal _count.
  std::istringstream stream(text);
  std::string line;
  std::uint64_t previous = 0;
  std::uint64_t inf_count = 0;
  int buckets = 0;
  while (std::getline(stream, line)) {
    if (line.rfind("flex_phase_wall_microseconds_bucket{", 0) == 0) {
      const std::uint64_t count = std::strtoull(
          line.c_str() + line.rfind(' ') + 1, nullptr, 10);
      EXPECT_GE(count, previous) << line;
      previous = count;
      ++buckets;
      if (line.find("le=\"+Inf\"") != std::string::npos)
        inf_count = count;
    }
  }
  EXPECT_GT(buckets, 1);
  EXPECT_EQ(inf_count, 3u);
  EXPECT_NE(text.find("flex_phase_wall_microseconds_count{phase=\"unit.phase\"} 3"),
            std::string::npos);
}

TEST(HttpServerTest, ServesRegisteredRoutesOverRealSockets)
{
  HttpServer server;
  server.Route("/ping", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = "pong " + request.query;
    return response;
  });
  ASSERT_TRUE(server.Start(0));
  ASSERT_GT(server.port(), 0);

  const ClientResponse ok = HttpGet(server.port(), "/ping?x=1");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "pong x=1");

  const ClientResponse missing = HttpGet(server.port(), "/nope");
  EXPECT_EQ(missing.status, 404);

  EXPECT_GE(server.requests_served(), 2u);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServerTest, OversizedHeaderBlockAnswers431)
{
  HttpServerConfig config;
  config.max_request_bytes = 256;
  HttpServer server(config);
  server.Route("/ping", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start(0));

  // A legitimate request still fits under the shrunken cap.
  EXPECT_EQ(HttpGet(server.port(), "/ping").status, 200);

  // One giant header blows past it: the server must refuse with 431
  // instead of buffering unbounded attacker-controlled bytes.
  const std::string huge =
      "GET /ping HTTP/1.1\r\nX-Padding: " + std::string(4096, 'a') +
      "\r\n\r\n";
  const ClientResponse refused = RawRequest(server.port(), {huge});
  EXPECT_EQ(refused.status, 431);
  server.Stop();
}

TEST(HttpServerTest, SlowDripClientAnswers408)
{
  HttpServerConfig config;
  config.connection_deadline_s = 0.25;
  config.recv_timeout_s = 0.1;
  HttpServer server(config);
  server.Route("/ping", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start(0));

  // Drip the request one fragment at a time, never finishing the header
  // block before the wall deadline: each chunk resets nothing — the
  // deadline is absolute per connection, so the server answers 408
  // rather than letting a slowloris client pin the accept thread.
  const std::vector<std::string> drip = {"GET /pi", "ng HT", "TP/1.1\r\n",
                                         "Host: x\r\n", "X: 1\r\n",
                                         "Y: 2\r\n",   "Z: 3\r\n"};
  const ClientResponse timed_out =
      RawRequest(server.port(), drip, std::chrono::milliseconds(80));
  EXPECT_EQ(timed_out.status, 408);

  // The server survives the abuse and keeps serving normal traffic.
  EXPECT_EQ(HttpGet(server.port(), "/ping").status, 200);
  server.Stop();
}

TEST(HttpServerTest, HealthzTransitionsWithHubAndWatchdog)
{
  WatchdogConfig wd_config;
  wd_config.threshold_seconds = 0.05;
  wd_config.forensic_hint = "bundles/latest";
  LiveHub hub(wd_config);
  ObservabilityServer server(hub);
  StallWatchdog& watchdog = hub.watchdog();
  const int wd = watchdog.RegisterThread("unit-loop");

  // Healthy by default.
  int status = 0;
  std::string body = server.RenderHealth(&status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"ok\":true"), std::string::npos);

  // An invariant violation published by the harness flips to 503.
  HealthSnapshot bad;
  bad.ok = false;
  bad.violations = 2;
  bad.detail = "[ups-trip] UPS 1 overloaded";
  hub.PublishHealth(bad);
  body = server.RenderHealth(&status);
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(body.find("ups-trip"), std::string::npos);

  // Back healthy — but a stalled thread still answers 503.
  hub.PublishHealth(HealthSnapshot{});
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  watchdog.CheckNow();
  EXPECT_TRUE(watchdog.any_stalled());
  body = server.RenderHealth(&status);
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"stalled\":true"), std::string::npos);
  EXPECT_NE(body.find("bundles/latest"), std::string::npos);

  // A heartbeat clears the stall and the endpoint recovers.
  watchdog.Beat(wd);
  watchdog.CheckNow();
  EXPECT_FALSE(watchdog.any_stalled());
  body = server.RenderHealth(&status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(watchdog.stall_events(), 1u);

  // A loop that finished cleanly is retired: silent forever, never
  // stalled again.
  watchdog.MarkDone(wd);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  watchdog.CheckNow();
  EXPECT_FALSE(watchdog.any_stalled());
  body = server.RenderHealth(&status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"done\":true"), std::string::npos);
  EXPECT_EQ(watchdog.stall_events(), 1u);
}

TEST(TraceJsonTest, RoundTripsEveryField)
{
  ReactionTrace trace;
  trace.id = 7;
  trace.detecting_replica = 2;
  trace.ups_index = 1;
  trace.actions = 42;
  trace.duplicate_detections = 3;
  trace.duplicate_waves = 1;
  trace.sampled_at = Seconds(12.25);
  trace.delivered_at = Seconds(12.5);
  trace.detected_at = Seconds(12.625);
  trace.decided_at = Seconds(12.75);
  trace.enforced_at = Seconds(13.125);
  trace.complete = true;
  trace.closed = false;
  trace.budget = Seconds(10.0);

  ReactionTrace parsed;
  ASSERT_TRUE(ParseTraceJson(TraceToJson(trace), &parsed));
  EXPECT_EQ(parsed.id, trace.id);
  EXPECT_EQ(parsed.detecting_replica, trace.detecting_replica);
  EXPECT_EQ(parsed.ups_index, trace.ups_index);
  EXPECT_EQ(parsed.actions, trace.actions);
  EXPECT_EQ(parsed.duplicate_detections, trace.duplicate_detections);
  EXPECT_EQ(parsed.duplicate_waves, trace.duplicate_waves);
  EXPECT_EQ(parsed.sampled_at.value(), trace.sampled_at.value());
  EXPECT_EQ(parsed.delivered_at.value(), trace.delivered_at.value());
  EXPECT_EQ(parsed.detected_at.value(), trace.detected_at.value());
  EXPECT_EQ(parsed.decided_at.value(), trace.decided_at.value());
  EXPECT_EQ(parsed.enforced_at.value(), trace.enforced_at.value());
  EXPECT_EQ(parsed.complete, trace.complete);
  EXPECT_EQ(parsed.closed, trace.closed);
  EXPECT_EQ(parsed.budget.value(), trace.budget.value());

  ReactionTrace bad;
  EXPECT_FALSE(ParseTraceJson("{\"id\":1}", &bad));
  EXPECT_FALSE(ParseTraceJson("not json", &bad));
}

TEST(TraceJsonTest, TraceEndpointServesPublishedTail)
{
  LiveHub hub;
  std::vector<ReactionTrace> traces(40);
  for (std::size_t i = 0; i < traces.size(); ++i)
    traces[i].id = i + 1;
  hub.PublishTraces(traces);  // default tail 32

  ObservabilityServer server(hub);
  const std::string body = server.RenderTrace();
  // The tail keeps the LAST 32: ids 9..40.
  EXPECT_EQ(hub.LatestTraces().size(), 32u);
  EXPECT_EQ(hub.LatestTraces().front().id, 9u);
  // /trace serves the same lines as a bundle's traces.jsonl.
  EXPECT_EQ(body.find("[" + TraceToJson(hub.LatestTraces().front()) + ","),
            0u);
  // Every object line in the array must parse back.
  std::size_t parsed = 0;
  std::size_t at = 0;
  while ((at = body.find('{', at)) != std::string::npos) {
    const std::size_t end = body.find('}', at);
    ASSERT_NE(end, std::string::npos);
    ReactionTrace t;
    ASSERT_TRUE(
        ParseTraceJson(body.substr(at, end - at + 1), &t));
    ++parsed;
    at = end;
  }
  EXPECT_EQ(parsed, 32u);
}

TEST(RecorderEndpointTest, TailRoundTripsThroughJsonl)
{
  FlightRecorder recorder;
  for (int i = 0; i < 10; ++i)
    recorder.Record(Seconds(i * 1.5), RecordKind::kMeterSample, i, i % 4,
                    1.25 * i);
  LiveHub hub;
  hub.PublishRecorderTail(recorder, 4);

  ObservabilityServer server(hub);
  std::vector<FlightRecord> parsed;
  std::string error;
  ASSERT_TRUE(ParseRecordsJsonl(server.RenderRecorder(), &parsed, &error))
      << error;
  ASSERT_EQ(parsed.size(), 4u);
  EXPECT_EQ(parsed.front().sequence, 6u);  // last 4 of 10
  EXPECT_EQ(parsed.back().sequence, 9u);
}

TEST(ProfilerTest, AggregatesPhasesAcrossThreads)
{
  Profiler profiler;
  const auto record = [&profiler] {
    for (int i = 0; i < 50; ++i) {
      ScopedPhaseTimer timer("test.phase", &profiler);
    }
  };
  std::thread a(record);
  std::thread b(record);
  a.join();
  b.join();
  profiler.Record("test.other", 5.0, 4.0);

  const auto rows = profiler.Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].phase, "test.other");  // sorted by name
  EXPECT_EQ(rows[1].phase, "test.phase");
  EXPECT_EQ(rows[1].threads, 2);
  EXPECT_EQ(rows[1].wall.count(), 100u);
  EXPECT_EQ(rows[1].cpu.count(), 100u);
  EXPECT_EQ(profiler.record_count(), 101u);

  profiler.Reset();
  EXPECT_TRUE(profiler.Snapshot().empty());
}

TEST(PrometheusExportTest, InstrumentedRoomAnnouncesEachFamilyOnce)
{
  // An instrumented room publishes its registry through the hub; the
  // process-wide log suppression tally reaches /metrics as the server's
  // own line, never as a second copy from the room's registry.
  LiveHub hub;
  ObservabilityServer server(hub);
  Observability observability;
  emulation::EmulationConfig config;
  config.setup_duration = Seconds(5.0);
  config.failover_at = Seconds(10.0);
  config.restore_at = Seconds(20.0);
  config.end_at = Seconds(40.0);
  config.placement_max_nodes = 20;
  config.obs = &observability;
  config.alerts.enabled = true;
  config.live = &hub;
  emulation::RoomEmulation(config).Run();

  const std::string text = server.RenderMetrics();
  ValidateExposition(text);
  EXPECT_NE(text.find("\nflex_controller_"), std::string::npos);
  const std::string family = "# TYPE flex_log_suppressed_total counter";
  const std::size_t at = text.find(family);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(text.find(family, at + 1), std::string::npos);
}

TEST(LiveSolverStatsTest, SolverPublishesProgressThroughLiveGauges)
{
  // A small knapsack-style MILP that needs real branching.
  solver::Model model;
  std::vector<solver::VarIndex> x;
  std::vector<std::pair<solver::VarIndex, double>> weights;
  const double values[] = {9.0, 7.5, 6.1, 5.2, 4.9, 3.3, 2.8, 1.7};
  const double costs[] = {5.0, 4.0, 3.5, 3.0, 2.9, 2.0, 1.8, 1.1};
  for (int i = 0; i < 8; ++i) {
    x.push_back(model.AddBinary("x" + std::to_string(i), values[i]));
    weights.push_back({x.back(), costs[i]});
  }
  model.AddConstraint("capacity", weights, solver::Relation::kLessEqual,
                      10.0);

  LiveHub hub;
  const solver::LiveSolverStats& live = hub.solver();
  solver::BranchAndBoundSolver::Options options;
  options.threads = 1;
  options.presolve = false;
  options.live = &hub.solver();
  const solver::MipResult result =
      solver::BranchAndBoundSolver(options).Solve(model);
  ASSERT_TRUE(result.HasSolution());

  EXPECT_EQ(live.solves_started.load(), 1);
  EXPECT_EQ(live.solves_finished.load(), 1);
  EXPECT_FALSE(live.active());
  EXPECT_EQ(live.nodes_explored.load(), result.nodes_explored);
  EXPECT_GE(live.lp_solves.load(), result.nodes_explored);
  EXPECT_EQ(live.wave_nodes.load(), 0);  // cleared on exit

  ObservabilityServer server(hub);
  const std::string text = server.RenderMetrics();
  ValidateExposition(text);
  EXPECT_NE(text.find("flex_solver_nodes_explored " +
                      std::to_string(result.nodes_explored)),
            std::string::npos);
}

TEST(ObservabilityServerTest, EndpointsServeOverHttpWithThreadPoolGauges)
{
  LiveHub hub;
  MetricsRegistry registry;
  registry.counter("unit.requests").Increment(5.0);
  hub.PublishMetrics(registry.Snapshot());

  ObservabilityServerConfig config;
  config.run_info = {{"bench", "unit"}, {"seed", "2021"}};
  ObservabilityServer server(hub, config);
  common::ThreadPool pool(2);
  server.WireThreadPool(pool);
  ASSERT_TRUE(server.Start());

  const ClientResponse metrics = HttpGet(server.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  ValidateExposition(metrics.body);
  EXPECT_NE(metrics.body.find(
                "flex_build_info{bench=\"unit\",seed=\"2021\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("flex_unit_requests_total 5"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("flex_pool_size 2"), std::string::npos);
  EXPECT_NE(metrics.body.find("flex_hub_publishes_total 1"),
            std::string::npos);

  const ClientResponse health = HttpGet(server.port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  const ClientResponse trace = HttpGet(server.port(), "/trace");
  EXPECT_EQ(trace.status, 200);
  EXPECT_EQ(trace.body.front(), '[');
  const ClientResponse recorder = HttpGet(server.port(), "/recorder");
  EXPECT_EQ(recorder.status, 200);
  server.Stop();
}

TEST(ObservabilityServerTest, AlertsAndQueryEndpointsServeLiveState)
{
  // One firing rule plus a short history, published the way harnesses
  // do: the engine/store live on the sim thread, the hub carries deep
  // copies to the HTTP thread.
  TimeSeriesStore store;
  AlertRule rule;
  rule.name = "UnitHot";
  rule.metric = "unit.level";
  rule.severity = AlertSeverity::kWarn;
  rule.kind = AlertRuleKind::kThreshold;
  rule.compare = AlertCompare::kGreaterThan;
  rule.threshold = 5.0;
  AlertEngine engine(&store, {rule});
  for (int i = 0; i <= 8; ++i) {
    store.Append("unit.level", MetricKind::kGauge, i * 10.0, i);
    engine.Evaluate(i * 10.0);
  }

  LiveHub hub;
  AlertsSnapshot alerts = engine.Snapshot();
  alerts.sim_time_seconds = 80.0;
  hub.PublishAlerts(alerts);
  hub.PublishSeries(store.Snapshot());

  ObservabilityServer server(hub);
  ASSERT_TRUE(server.Start());

  const ClientResponse alerts_body = HttpGet(server.port(), "/alerts");
  EXPECT_EQ(alerts_body.status, 200);
  EXPECT_NE(alerts_body.body.find("\"name\":\"UnitHot\""),
            std::string::npos);
  EXPECT_NE(alerts_body.body.find("\"state\":\"firing\""),
            std::string::npos);
  EXPECT_NE(alerts_body.body.find("\"worst_firing\":\"warn\""),
            std::string::npos);
  EXPECT_NE(alerts_body.body.find("\"to\":\"firing\""), std::string::npos);

  // The Prometheus-convention ALERTS series joins /metrics.
  const ClientResponse metrics = HttpGet(server.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("ALERTS{alertname=\"UnitHot\",severity="
                              "\"warn\",alertstate=\"firing\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("flex_alerts_firing 1"), std::string::npos);

  // /query serves raw points, windows them, and aggregates on demand.
  const ClientResponse raw =
      HttpGet(server.port(), "/query?metric=unit.level");
  EXPECT_EQ(raw.status, 200);
  EXPECT_NE(raw.body.find("\"metric\":\"unit.level\""), std::string::npos);
  EXPECT_NE(raw.body.find("[0,0]"), std::string::npos);
  EXPECT_NE(raw.body.find("[80,8]"), std::string::npos);

  const ClientResponse windowed =
      HttpGet(server.port(), "/query?metric=unit.level&window=20");
  EXPECT_EQ(windowed.status, 200);
  EXPECT_EQ(windowed.body.find("[0,0]"), std::string::npos);
  EXPECT_NE(windowed.body.find("[80,8]"), std::string::npos);

  const ClientResponse agg =
      HttpGet(server.port(), "/query?metric=unit.level&res=30");
  EXPECT_EQ(agg.status, 200);
  EXPECT_NE(agg.body.find("\"res\":30"), std::string::npos);

  const ClientResponse unknown =
      HttpGet(server.port(), "/query?metric=no.such");
  EXPECT_EQ(unknown.status, 404);
  const ClientResponse missing = HttpGet(server.port(), "/query");
  EXPECT_EQ(missing.status, 400);
  server.Stop();
}

TEST(ObservabilityServerTest, HealthzDegradesOnlyOnPageSeverityAlerts)
{
  TimeSeriesStore store;
  AlertRule warn;
  warn.name = "WarnOnly";
  warn.metric = "unit.warn";
  warn.severity = AlertSeverity::kWarn;
  warn.threshold = 0.0;
  AlertRule page;
  page.name = "PageNow";
  page.metric = "unit.page";
  page.severity = AlertSeverity::kPage;
  page.threshold = 0.0;
  AlertEngine engine(&store, {warn, page});

  LiveHub hub;
  ObservabilityServer server(hub);

  // A firing warn-severity alert is reported but does not 503: ops see
  // it on /alerts, load balancers keep routing.
  store.Append("unit.warn", MetricKind::kGauge, 1.0, 1.0);
  engine.Evaluate(1.0);
  hub.PublishAlerts(engine.Snapshot());
  int status = 0;
  std::string body = server.RenderHealth(&status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"alerts_firing\":1"), std::string::npos);
  EXPECT_NE(body.find("\"worst_firing\":\"warn\""), std::string::npos);

  // A page-severity alert joining it flips the rollup to 503.
  store.Append("unit.page", MetricKind::kGauge, 2.0, 1.0);
  engine.Evaluate(2.0);
  hub.PublishAlerts(engine.Snapshot());
  body = server.RenderHealth(&status);
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(body.find("\"alerts_firing\":2"), std::string::npos);
  EXPECT_NE(body.find("\"worst_firing\":\"page\""), std::string::npos);

  // Both resolve: healthy again.
  store.Append("unit.warn", MetricKind::kGauge, 3.0, -1.0);
  store.Append("unit.page", MetricKind::kGauge, 3.0, -1.0);
  engine.Evaluate(3.0);
  hub.PublishAlerts(engine.Snapshot());
  body = server.RenderHealth(&status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"worst_firing\":\"none\""), std::string::npos);
}

TEST(ConcurrentScrapeTest, SweepStaysBitIdenticalUnderScrapeLoad)
{
  // The tentpole guarantee: a scraper hammering every endpoint while a
  // parallel sweep (a fleet with the substation off) runs cannot change
  // a single sample. Placement solves are node-budgeted (not
  // wall-clock-budgeted), so the baseline and the scraped runs are
  // comparable bit-for-bit.
  emulation::FleetConfig sweep;
  sweep.room.setup_duration = Seconds(30.0);
  sweep.room.failover_at = Seconds(120.0);
  sweep.room.restore_at = Seconds(150.0);
  sweep.room.end_at = Seconds(180.0);
  sweep.room.seed = 2021;
  sweep.room.placement_solve_seconds = 1e9;
  sweep.room.placement_max_nodes = 2000;
  sweep.rooms = 2;
  sweep.threads = 1;
  const emulation::FleetReport baseline =
      emulation::FleetEmulation(sweep).Run();

  WatchdogConfig wd_config;
  wd_config.threshold_seconds = 60.0;  // generous: CI boxes stall briefly
  LiveHub hub(wd_config);
  ObservabilityServer server(hub);
  server.SetProfiler(&Profiler::Global());
  server.WireThreadPool(common::ThreadPool::Shared());
  ASSERT_TRUE(server.Start());
  const int port = server.port();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([port, &stop, &scrapes] {
    const char* paths[] = {"/metrics", "/healthz", "/trace", "/recorder"};
    std::size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const ClientResponse r = HttpGet(port, paths[i++ % 4]);
      if (r.status != 0)
        scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // The one hook: every room publishes, heartbeats and reports its
  // placement progress through EmulationConfig::live alone.
  sweep.room.live = &hub;
  sweep.threads = 2;
  const emulation::FleetReport scraped = emulation::FleetEmulation(sweep).Run();

  // The acceptance surface: a live /metrics scrape carries valid
  // exposition with pool utilization, the hub's solver progress, and
  // phase-timer histograms, all while the sweep is bit-identical below.
  const std::string metrics = server.RenderMetrics();
  ValidateExposition(metrics);
  EXPECT_NE(metrics.find("flex_pool_utilization"), std::string::npos);
  EXPECT_NE(metrics.find("flex_solver_wave_nodes"), std::string::npos);
  const std::string explored = "\nflex_solver_nodes_explored ";
  const std::size_t at = metrics.find(explored);
  ASSERT_NE(at, std::string::npos);
  EXPECT_GT(std::strtod(metrics.c_str() + at + explored.size(), nullptr), 0.0);
  EXPECT_NE(metrics.find("\nflex_solver_dual_pivots "), std::string::npos);
  EXPECT_NE(metrics.find("\nflex_solver_warm_dual_restarts "),
            std::string::npos);
  EXPECT_NE(metrics.find("flex_phase_wall_microseconds_bucket"),
            std::string::npos);
  EXPECT_GT(hub.solver().solves_finished.load(), 0);
  // One heartbeat per room, each retired when its room finished.
  const auto threads = hub.watchdog().SnapshotThreads();
  ASSERT_EQ(threads.size(), static_cast<std::size_t>(sweep.rooms));
  for (int r = 0; r < sweep.rooms; ++r) {
    const auto& thread = threads[static_cast<std::size_t>(r)];
    EXPECT_EQ(thread.name, "emulation-seed-" + std::to_string(2021 + r));
    EXPECT_TRUE(thread.done) << thread.name;
    EXPECT_GT(thread.beats, 0u) << thread.name;
  }

  stop.store(true, std::memory_order_release);
  scraper.join();
  server.Stop();

  EXPECT_EQ(scraped.fleet_hash, baseline.fleet_hash);
  ASSERT_EQ(scraped.rooms.size(), baseline.rooms.size());
  for (std::size_t i = 0; i < baseline.rooms.size(); ++i) {
    EXPECT_EQ(scraped.rooms[i].report_hash, baseline.rooms[i].report_hash)
        << "variant " << i;
  }
  // The scrape load and the publishes were real, not vacuous.
  EXPECT_GT(scrapes.load(), 0u);
  EXPECT_GT(server.requests_served(), 0u);
  EXPECT_GT(hub.publish_count(), 0u);
  EXPECT_FALSE(hub.watchdog().any_stalled());
}

}  // namespace
}  // namespace flex::obs
