/**
 * @file
 * Unit tests for the observability subsystem: metrics registry,
 * histograms, reaction tracer, exporters, and the structured logger.
 * The determinism tests drive the real telemetry pipeline twice with
 * the same seed and require bit-identical exports — the property the
 * seed-replay tooling depends on.
 */
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/forensics.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/pipeline.hpp"

namespace flex::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, ExponentialEdgesAreGeometric)
{
  const HistogramConfig config = HistogramConfig::Exponential(1.0, 2.0, 4);
  EXPECT_EQ(config.edges, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  EXPECT_THROW(HistogramConfig::Exponential(0.0, 2.0, 4), ConfigError);
  EXPECT_THROW(HistogramConfig::Exponential(1.0, 1.0, 4), ConfigError);
  EXPECT_THROW(HistogramConfig::Exponential(1.0, 2.0, 0), ConfigError);
}

TEST(HistogramTest, SamplesLandInTheFirstBucketWithEdgeAtLeastSample)
{
  HistogramConfig config;
  config.edges = {1.0, 2.0, 4.0};
  Histogram histogram(config);
  histogram.Observe(0.5);  // below first edge -> bucket 0
  histogram.Observe(1.0);  // exactly on an edge -> that bucket (edge >= x)
  histogram.Observe(1.5);  // bucket 1 (edge 2.0)
  histogram.Observe(4.0);  // last real bucket
  histogram.Observe(9.0);  // above all edges -> overflow
  EXPECT_EQ(histogram.bucket_counts(),
            (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 16.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 9.0);
}

TEST(HistogramTest, RejectsUnsortedOrDuplicateEdges)
{
  HistogramConfig unsorted;
  unsorted.edges = {2.0, 1.0};
  EXPECT_THROW(Histogram{unsorted}, ConfigError);
  HistogramConfig duplicate;
  duplicate.edges = {1.0, 1.0};
  EXPECT_THROW(Histogram{duplicate}, ConfigError);
  HistogramConfig empty;
  EXPECT_THROW(Histogram{empty}, ConfigError);
}

TEST(HistogramTest, SingleSampleQuantilesReportThatSample)
{
  Histogram histogram(HistogramConfig::LatencySeconds());
  histogram.Observe(1.7);
  for (const double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(histogram.Quantile(q), 1.7);
}

TEST(HistogramTest, QuantilesAreMonotoneAndClampedToObservedRange)
{
  Histogram histogram(HistogramConfig::LatencySeconds());
  for (int i = 1; i <= 1000; ++i)
    histogram.Observe(0.001 * i);  // 1 ms .. 1 s
  double previous = histogram.Quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double value = histogram.Quantile(q);
    EXPECT_GE(value, previous);
    previous = value;
  }
  EXPECT_GE(histogram.Quantile(0.0), histogram.min());
  EXPECT_LE(histogram.Quantile(1.0), histogram.max());
  // The median of a uniform 1 ms..1 s sweep sits near 0.5 s.
  EXPECT_NEAR(histogram.Quantile(0.5), 0.5, 0.1);
  EXPECT_THROW(histogram.Quantile(1.5), ConfigError);
}

TEST(HistogramTest, EmptyHistogramIsAllZeroes)
{
  Histogram histogram(HistogramConfig::LatencySeconds());
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.99), 0.0);
}

TEST(HistogramTest, ResetClearsSamplesButKeepsBuckets)
{
  Histogram histogram(HistogramConfig::Exponential(1.0, 2.0, 3));
  histogram.Observe(1.5);
  histogram.Observe(100.0);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
  EXPECT_EQ(histogram.edges().size(), 3u);
  for (const std::uint64_t c : histogram.bucket_counts())
    EXPECT_EQ(c, 0u);
  histogram.Observe(2.5);
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 2.5);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, FindOrCreateReturnsStableReferences)
{
  MetricsRegistry registry;
  Counter& counter = registry.counter("pipeline.readings");
  counter.Increment();
  counter.Increment(2.5);
  EXPECT_DOUBLE_EQ(registry.counter("pipeline.readings").value(), 3.5);
  // Creating more metrics must not invalidate the cached reference.
  for (int i = 0; i < 64; ++i)
    registry.gauge("gauge.g" + std::to_string(i));
  counter.Increment();
  EXPECT_DOUBLE_EQ(registry.counter("pipeline.readings").value(), 4.5);
  EXPECT_EQ(registry.size(), 65u);
}

TEST(MetricsRegistryTest, RejectsKindMismatch)
{
  MetricsRegistry registry;
  registry.counter("a.b");
  EXPECT_THROW(registry.gauge("a.b"), ConfigError);
  EXPECT_THROW(registry.histogram("a.b"), ConfigError);
  registry.histogram("h.h");
  EXPECT_THROW(registry.counter("h.h"), ConfigError);
}

TEST(MetricsRegistryTest, ValidatesMetricNames)
{
  MetricsRegistry registry;
  EXPECT_NO_THROW(registry.counter("a"));
  EXPECT_NO_THROW(registry.counter("pipeline.publish_lag_s"));
  EXPECT_NO_THROW(registry.counter("power.ups0.soc_2"));
  EXPECT_THROW(registry.counter(""), ConfigError);
  EXPECT_THROW(registry.counter(".a"), ConfigError);
  EXPECT_THROW(registry.counter("a."), ConfigError);
  EXPECT_THROW(registry.counter("a..b"), ConfigError);
  EXPECT_THROW(registry.counter("Upper.case"), ConfigError);
  EXPECT_THROW(registry.counter("with space"), ConfigError);
  EXPECT_THROW(registry.counter("dash-ed"), ConfigError);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndStampedWithSimTime)
{
  MetricsRegistry registry;
  registry.counter("z.last").Increment(7.0);
  registry.gauge("a.first").Set(1.0);
  registry.histogram("m.middle").Observe(0.25);

  const MetricsSnapshot snapshot = registry.Snapshot(12.5);
  EXPECT_DOUBLE_EQ(snapshot.sim_time_seconds, 12.5);
  ASSERT_EQ(snapshot.rows.size(), 3u);
  EXPECT_EQ(snapshot.rows[0].name, "a.first");
  EXPECT_EQ(snapshot.rows[1].name, "m.middle");
  EXPECT_EQ(snapshot.rows[2].name, "z.last");
  EXPECT_EQ(snapshot.rows[1].kind, MetricKind::kHistogram);
  EXPECT_EQ(snapshot.rows[1].count, 1u);
  EXPECT_DOUBLE_EQ(snapshot.rows[1].p50, 0.25);
  ASSERT_NE(snapshot.Find("z.last"), nullptr);
  EXPECT_DOUBLE_EQ(snapshot.Find("z.last")->value, 7.0);
  EXPECT_EQ(snapshot.Find("missing"), nullptr);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsRegistrations)
{
  MetricsRegistry registry;
  Counter& counter = registry.counter("c.c");
  Gauge& gauge = registry.gauge("g.g");
  Histogram& histogram = registry.histogram("h.h");
  counter.Increment(5.0);
  gauge.Set(3.0);
  histogram.Observe(1.0);
  registry.Reset();
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_DOUBLE_EQ(counter.value(), 0.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0u);
  // Cached references stay live after Reset.
  counter.Increment();
  EXPECT_DOUBLE_EQ(registry.Snapshot().Find("c.c")->value, 1.0);
}

// ---------------------------------------------------------------------------
// ReactionTracer
// ---------------------------------------------------------------------------

TEST(ReactionTracerTest, StitchesOneTracePerEpisode)
{
  MetricsRegistry registry;
  TracerConfig config;
  config.budget = Seconds(10.0);
  ReactionTracer tracer(config, &registry);

  tracer.OnDetection(0, 2, Seconds(100.0), Seconds(100.6), Seconds(100.7));
  ASSERT_NE(tracer.active(), nullptr);
  EXPECT_EQ(tracer.active()->ups_index, 2);
  EXPECT_EQ(tracer.active()->detecting_replica, 0);

  // A second replica detects the same overload: absorbed as duplicate.
  tracer.OnDetection(1, 2, Seconds(100.2), Seconds(100.9), Seconds(101.0));
  EXPECT_EQ(tracer.traces().size(), 1u);
  EXPECT_EQ(tracer.active()->duplicate_detections, 1);

  tracer.OnDecision(0, 5, Seconds(100.8));
  tracer.OnEnforced(0, Seconds(101.9));
  EXPECT_EQ(tracer.complete_count(), 1u);
  EXPECT_EQ(tracer.within_budget_count(), 1u);

  const ReactionTrace& trace = tracer.traces().front();
  EXPECT_TRUE(trace.complete);
  EXPECT_FALSE(trace.closed);
  EXPECT_EQ(trace.actions, 5);
  EXPECT_NEAR(trace.EndToEnd().value(), 1.9, 1e-12);
  EXPECT_TRUE(trace.WithinBudget());
  EXPECT_NEAR(trace.StageLatency(ReactionStage::kPublish).value(), 0.6,
              1e-12);
  EXPECT_NEAR(trace.StageLatency(ReactionStage::kObserve).value(), 0.1,
              1e-12);
  EXPECT_NEAR(trace.StageLatency(ReactionStage::kDecide).value(), 0.1, 1e-12);
  EXPECT_NEAR(trace.StageLatency(ReactionStage::kActuate).value(), 1.1,
              1e-12);

  // Completed traces feed the reaction.* metrics.
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_NE(snapshot.Find("reaction.episodes"), nullptr);
  EXPECT_DOUBLE_EQ(snapshot.Find("reaction.episodes")->value, 1.0);
  ASSERT_NE(snapshot.Find("reaction.end_to_end_s"), nullptr);
  EXPECT_EQ(snapshot.Find("reaction.end_to_end_s")->count, 1u);
  // Nothing went over budget, so the over-budget counter never appears.
  EXPECT_EQ(snapshot.Find("reaction.over_budget"), nullptr);

  // Release closes the episode; the next detection opens trace #2.
  tracer.OnEpisodeClosed(0, Seconds(140.0));
  EXPECT_EQ(tracer.active(), nullptr);
  EXPECT_TRUE(tracer.traces().front().closed);
  tracer.OnDetection(1, 0, Seconds(200.0), Seconds(200.5), Seconds(200.6));
  ASSERT_EQ(tracer.traces().size(), 2u);
  EXPECT_EQ(tracer.traces().back().id, 2u);
  EXPECT_EQ(tracer.traces().back().detecting_replica, 1);
}

TEST(ReactionTracerTest, LaterWavesCountAsDuplicates)
{
  ReactionTracer tracer;
  tracer.OnDetection(0, 1, Seconds(10.0), Seconds(10.4), Seconds(10.5));
  tracer.OnDecision(0, 3, Seconds(10.6));
  tracer.OnDecision(1, 4, Seconds(10.9));  // racing replica's wave
  tracer.OnEnforced(1, Seconds(11.5));
  tracer.OnEnforced(0, Seconds(12.0));  // later completion: already done
  const ReactionTrace& trace = tracer.traces().front();
  EXPECT_EQ(trace.actions, 3);
  // Both the racing decision and the late enforcement are duplicates.
  EXPECT_EQ(trace.duplicate_waves, 2);
  // The FIRST completed wave closes the chain.
  EXPECT_DOUBLE_EQ(trace.enforced_at.value(), 11.5);
  EXPECT_EQ(tracer.complete_count(), 1u);
}

TEST(ReactionTracerTest, OverBudgetReactionsAreCounted)
{
  MetricsRegistry registry;
  TracerConfig config;
  config.budget = Seconds(1.0);
  ReactionTracer tracer(config, &registry);
  tracer.OnDetection(0, 0, Seconds(0.0), Seconds(0.5), Seconds(0.6));
  tracer.OnDecision(0, 1, Seconds(0.7));
  tracer.OnEnforced(0, Seconds(5.0));
  EXPECT_EQ(tracer.complete_count(), 1u);
  EXPECT_EQ(tracer.within_budget_count(), 0u);
  EXPECT_FALSE(tracer.traces().front().WithinBudget());
  EXPECT_DOUBLE_EQ(registry.Snapshot().Find("reaction.over_budget")->value,
                   1.0);
}

TEST(ReactionTracerTest, EnforcementWithoutDetectionIsIgnored)
{
  ReactionTracer tracer;
  EXPECT_NO_THROW(tracer.OnDecision(0, 2, Seconds(1.0)));
  EXPECT_NO_THROW(tracer.OnEnforced(0, Seconds(2.0)));
  EXPECT_NO_THROW(tracer.OnEpisodeClosed(0, Seconds(3.0)));
  EXPECT_TRUE(tracer.traces().empty());
  EXPECT_EQ(tracer.complete_count(), 0u);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ExportTest, TraceJsonHasFixedKeyOrderAndStages)
{
  TracerConfig config;
  config.budget = Seconds(10.0);
  ReactionTracer tracer(config);
  tracer.OnDetection(0, 3, Seconds(1.0), Seconds(1.5), Seconds(1.6));
  tracer.OnDecision(0, 2, Seconds(1.7));
  tracer.OnEnforced(0, Seconds(2.5));
  const std::string json = TraceToJson(tracer.traces().front());
  EXPECT_EQ(json,
            "{\"id\":1,\"replica\":0,\"ups\":3,\"actions\":2,"
            "\"dup_detections\":0,\"dup_waves\":0,\"sampled_at\":1,"
            "\"delivered_at\":1.5,\"detected_at\":1.6,\"decided_at\":1.7,"
            "\"enforced_at\":2.5,\"complete\":true,\"closed\":false,"
            "\"budget\":10}");

  const std::string jsonl = TracesToJsonl(tracer);
  EXPECT_EQ(jsonl, json + "\n");
}

TEST(ExportTest, BenchJsonLineIsSingleLineWithBenchName)
{
  MetricsRegistry registry;
  registry.gauge("bench.end_to_end_s").Set(3.5);
  const std::string line = BenchJsonLine("bench_demo", registry.Snapshot());
  EXPECT_EQ(line.find("{\"bench\":\"bench_demo\",\"sim_time_s\":0"), 0u);
  EXPECT_NE(
      line.find("\"bench.end_to_end_s\":{\"type\":\"gauge\",\"value\":3.5}"),
      std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(ExportTest, SummaryTableListsMetricsAndTraceVerdicts)
{
  MetricsRegistry registry;
  TracerConfig config;
  config.budget = Seconds(10.0);
  ReactionTracer tracer(config, &registry);
  tracer.OnDetection(0, 1, Seconds(0.0), Seconds(0.4), Seconds(0.5));
  tracer.OnDecision(0, 1, Seconds(0.6));
  tracer.OnEnforced(0, Seconds(1.4));
  registry.counter("pipeline.readings_delivered").Increment(42.0);
  const std::string table = SummaryTable(registry.Snapshot(), &tracer);
  EXPECT_NE(table.find("pipeline.readings_delivered"), std::string::npos);
  EXPECT_NE(table.find("reaction.end_to_end_s"), std::string::npos);
  EXPECT_NE(table.find("OK"), std::string::npos);
  EXPECT_EQ(table.find("OVER"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------------

std::string
ReadBack(const std::string& text)
{
  std::string out;
  EXPECT_TRUE(json::ReadString("{\"k\":\"" + json::EscapeJson(text) + "\"}",
                               "k", &out));
  return out;
}

TEST(JsonCodecTest, EscapeRoundTripsEveryByte)
{
  for (int byte = 0; byte <= 0xFF; ++byte) {
    const std::string alone(1, static_cast<char>(byte));
    const std::string escaped = json::EscapeJson(alone);
    // A JSONL line must never carry a raw control byte.
    for (const char c : escaped)
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "byte " << byte;
    EXPECT_EQ(ReadBack(alone), alone) << "byte " << byte;
    const std::string embedded = "a\"" + alone + "\\b" + alone + "z";
    EXPECT_EQ(ReadBack(embedded), embedded) << "byte " << byte;
  }
  EXPECT_EQ(json::EscapeJson("\r"), "\\r");
}

TEST(JsonCodecTest, ExactNumRoundTripsBitExactly)
{
  std::mt19937_64 rng(2021);
  int checked = 0;
  while (checked < 1000) {
    const std::uint64_t bits = rng();
    double x = 0.0;
    std::memcpy(&x, &bits, sizeof(x));
    if (!std::isfinite(x))
      continue;
    ++checked;
    double parsed = 0.0;
    ASSERT_TRUE(
        json::ReadNumber("{\"x\":" + json::ExactNum(x) + "}", "x", &parsed));
    std::uint64_t parsed_bits = 0;
    std::memcpy(&parsed_bits, &parsed, sizeof(parsed));
    EXPECT_EQ(parsed_bits, bits) << json::ExactNum(x);
  }
  // Num keeps nine significant digits only: not a round trip.
  EXPECT_EQ(json::Num(0.1 + 0.2), "0.3");
  EXPECT_NE(0.1 + 0.2, 0.3);
}

TEST(JsonCodecTest, FieldReadersAcceptOrRejectAsDocumented)
{
  double number = 0.0;
  std::uint64_t uint = 0;
  int integer = 0;
  std::string text;
  bool flag = false;

  // Missing key.
  EXPECT_FALSE(json::ReadNumber("{\"a\":1}", "b", &number));
  EXPECT_FALSE(json::ReadUint("{\"a\":1}", "b", &uint));
  EXPECT_FALSE(json::ReadInt("{\"a\":1}", "b", &integer));
  EXPECT_FALSE(json::ReadString("{\"a\":\"x\"}", "b", &text));
  EXPECT_FALSE(json::ReadBool("{\"a\":true}", "b", &flag));

  // Non-numeric values.
  EXPECT_FALSE(json::ReadNumber("{\"a\":\"1\"}", "a", &number));
  EXPECT_FALSE(json::ReadUint("{\"a\":\"1\"}", "a", &uint));
  EXPECT_FALSE(json::ReadInt("{\"a\":x}", "a", &integer));
  EXPECT_FALSE(json::ReadString("{\"a\":1}", "a", &text));
  EXPECT_FALSE(json::ReadBool("{\"a\":1}", "a", &flag));

  // Whitespace after the colon, as in the pretty-printed manifest.
  ASSERT_TRUE(json::ReadNumber("{\"a\": 2.5}", "a", &number));
  EXPECT_EQ(number, 2.5);
  ASSERT_TRUE(json::ReadUint("{\"a\":\t 7}", "a", &uint));
  EXPECT_EQ(uint, 7u);
  ASSERT_TRUE(json::ReadString("{\"a\": \"s\"}", "a", &text));
  EXPECT_EQ(text, "s");
  ASSERT_TRUE(json::ReadBool("{\"a\": false}", "a", &flag));
  EXPECT_FALSE(flag);

  // ReadUint is exact over the full 64-bit range and takes no sign.
  ASSERT_TRUE(json::ReadUint("{\"a\":9007199254740993}", "a", &uint));
  EXPECT_EQ(uint, (std::uint64_t{1} << 53) + 1);
  ASSERT_TRUE(json::ReadUint("{\"a\":18446744073709551615}", "a", &uint));
  EXPECT_EQ(uint, std::numeric_limits<std::uint64_t>::max());
  uint = 5;
  EXPECT_FALSE(json::ReadUint("{\"a\":18446744073709551616}", "a", &uint));
  EXPECT_FALSE(json::ReadUint("{\"a\":-1}", "a", &uint));
  EXPECT_FALSE(json::ReadUint("{\"a\":+1}", "a", &uint));
  EXPECT_FALSE(json::ReadUint("{\"a\":1.5}", "a", &uint));
  EXPECT_FALSE(json::ReadUint("{\"a\":1e3}", "a", &uint));
  EXPECT_EQ(uint, 5u);  // a rejected read leaves the output alone

  ASSERT_TRUE(json::ReadInt("{\"a\":-7}", "a", &integer));
  EXPECT_EQ(integer, -7);
  EXPECT_FALSE(json::ReadInt("{\"a\":2147483648}", "a", &integer));
  EXPECT_FALSE(json::ReadInt("{\"a\":-2147483649}", "a", &integer));

  // Malformed strings.
  EXPECT_FALSE(json::ReadString("{\"a\":\"open}", "a", &text));
  EXPECT_FALSE(json::ReadString("{\"a\":\"\\q\"}", "a", &text));
  EXPECT_FALSE(json::ReadString("{\"a\":\"\\u0100\"}", "a", &text));
}

TEST(JsonCodecTest, LineReaderCountsPhysicalLines)
{
  const std::string text = "a\n\n\nb\nc";
  json::LineReader lines(text);
  std::vector<std::pair<std::string, std::size_t>> seen;
  while (lines.Next())
    seen.emplace_back(lines.line(), lines.number());
  const std::vector<std::pair<std::string, std::size_t>> want = {
      {"a", 1}, {"b", 4}, {"c", 5}};
  EXPECT_EQ(seen, want);

  // Error messages name the physical line, blank lines included.
  FlightRecorder recorder;
  recorder.Record(Seconds(1.0), RecordKind::kMeterSample, 0, 1, 2.0);
  std::vector<FlightRecord> parsed;
  std::string error;
  EXPECT_FALSE(ParseRecordsJsonl(RecordsToJsonl(recorder.Records()) +
                                     "\nnot json\n",
                                 &parsed, &error));
  EXPECT_EQ(error, "malformed record at line 3");
}

// ---------------------------------------------------------------------------
// Determinism: two identical seeded runs export bit-identical bytes
// ---------------------------------------------------------------------------

namespace {

class SteadySource : public telemetry::PowerSource {
 public:
  Watts
  CurrentPower(telemetry::DeviceId device) const override
  {
    return device.kind == telemetry::DeviceKind::kUps ? MegaWatts(1.0)
                                                      : KiloWatts(15.0);
  }
};

std::string
RunSeededPipeline(std::uint64_t seed)
{
  sim::EventQueue queue;
  Observability observability;
  SteadySource source;
  telemetry::PipelineConfig config;
  config.obs = &observability;
  telemetry::TelemetryPipeline pipeline(queue, source, 2, 12, config, seed);
  pipeline.Subscribe([](const telemetry::ReadingBatch&) {});
  pipeline.Start();
  queue.RunUntil(Minutes(2.0));
  return SnapshotToJson(observability.metrics().Snapshot(queue.Now().value()));
}

}  // namespace

TEST(DeterminismTest, IdenticalSeedsProduceBitIdenticalExports)
{
  const std::string first = RunSeededPipeline(2021);
  const std::string second = RunSeededPipeline(2021);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("pipeline.publish_lag_s"), std::string::npos);
  // A different seed jitters deliveries differently.
  EXPECT_NE(first, RunSeededPipeline(77));
}

// ---------------------------------------------------------------------------
// Logger
// ---------------------------------------------------------------------------

/** Captures log output and restores global logger state afterwards. */
class LogTest : public ::testing::Test {
 protected:
  LogTest()
  {
    saved_level_ = GetLogLevel();
    SetLogSink([this](LogLevel level, const std::string& line) {
      levels_.push_back(level);
      lines_.push_back(line);
    });
  }

  ~LogTest() override
  {
    SetLogSink({});
    SetLogLevel(saved_level_);
  }

  LogLevel saved_level_;
  std::vector<LogLevel> levels_;
  std::vector<std::string> lines_;
};

TEST_F(LogTest, ParsesLevelNamesCaseInsensitively)
{
  EXPECT_EQ(ParseLogLevel("trace"), LogLevel::kTrace);
  EXPECT_EQ(ParseLogLevel("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("Info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("warning"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("none"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("bogus", LogLevel::kInfo), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel(nullptr, LogLevel::kError), LogLevel::kError);
}

TEST_F(LogTest, ThresholdFiltersRecords)
{
  SetLogLevel(LogLevel::kWarn);
  FLEX_LOG(LogLevel::kInfo, "test", "dropped %d", 1);
  FLEX_LOG(LogLevel::kWarn, "test", "kept %d", 2);
  FLEX_LOG(LogLevel::kError, "test", "kept %d", 3);
  ASSERT_EQ(lines_.size(), 2u);
  EXPECT_EQ(levels_[0], LogLevel::kWarn);
  EXPECT_NE(lines_[0].find("kept 2"), std::string::npos);
  EXPECT_NE(lines_[1].find("kept 3"), std::string::npos);
  EXPECT_NE(lines_[0].find("test:"), std::string::npos);
}

TEST_F(LogTest, MacroSkipsArgumentEvaluationWhenFiltered)
{
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&evaluations] { return ++evaluations; };
  FLEX_LOG(LogLevel::kDebug, "test", "value %d", expensive());
  EXPECT_EQ(evaluations, 0);
  FLEX_LOG(LogLevel::kError, "test", "value %d", expensive());
  EXPECT_EQ(evaluations, 1);
  EXPECT_FALSE(LogEnabled(LogLevel::kWarn));
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
}

TEST_F(LogTest, OffSilencesEverything)
{
  SetLogLevel(LogLevel::kOff);
  FLEX_LOG(LogLevel::kError, "test", "never seen");
  EXPECT_TRUE(lines_.empty());
  EXPECT_FALSE(LogEnabled(LogLevel::kError));
}

TEST_F(LogTest, FileSinkTeesEveryRecordEvenUnderSinkRedirection)
{
  SetLogLevel(LogLevel::kInfo);
  const std::string path =
      ::testing::TempDir() + "obs_test_log_sink.log";
  std::remove(path.c_str());
  ASSERT_TRUE(SetLogFile(path));
  FLEX_LOG(LogLevel::kInfo, "filesink", "teed %d", 7);
  FLEX_LOG(LogLevel::kDebug, "filesink", "filtered out");
  ASSERT_TRUE(SetLogFile(""));  // close, flushing the handle

  std::ifstream stream(path);
  std::ostringstream content;
  content << stream.rdbuf();
  // The fixture redirected the sink into lines_, yet the file still got
  // the record — and in the same format the sink saw.
  EXPECT_NE(content.str().find("filesink: teed 7"), std::string::npos);
  EXPECT_EQ(content.str().find("filtered out"), std::string::npos);
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_NE(content.str().find(lines_[0]), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(LogTest, RateLimiterGatesOnSimTime)
{
  LogRateLimiter limiter(/*min_interval_s=*/5.0);
  EXPECT_TRUE(limiter.Admit(Seconds(2.0)));  // first call always passes
  EXPECT_FALSE(limiter.Admit(Seconds(2.0)));  // same instant: suppressed
  EXPECT_FALSE(limiter.Admit(Seconds(6.999)));  // inside the interval
  EXPECT_EQ(limiter.suppressed(), 2u);

  EXPECT_TRUE(limiter.Admit(Seconds(7.0)));  // interval elapsed, count reset
  EXPECT_EQ(limiter.suppressed(), 0u);
  EXPECT_EQ(limiter.total_suppressed(), 2u);
  // The interval runs from the last admitted call, not the last call.
  EXPECT_FALSE(limiter.Admit(Seconds(11.0)));
  EXPECT_TRUE(limiter.Admit(Seconds(12.0)));
}

TEST_F(LogTest, RateLimitedMacroAnnotatesSuppressedCount)
{
  SetLogLevel(LogLevel::kInfo);
  LogRateLimiter limiter;
  for (int i = 0; i < 3; ++i)
    FLEX_LOG_LIMITED(limiter, Seconds(1.0), LogLevel::kInfo, "limited",
                     "burst %d", i);
  ASSERT_EQ(lines_.size(), 1u);  // one instant: only the first passed
  EXPECT_NE(lines_[0].find("t=1.000 limited: burst 0"), std::string::npos);

  FLEX_LOG_LIMITED(limiter, Seconds(10.0), LogLevel::kInfo, "limited",
                   "burst %d", 3);
  ASSERT_EQ(lines_.size(), 2u);
  EXPECT_NE(lines_[1].find("t=10.000 limited: burst 3 (suppressed 2 similar)"),
            std::string::npos);

  // A second limiter at the same instant is independent of the first.
  LogRateLimiter other;
  FLEX_LOG_LIMITED(other, Seconds(10.0), LogLevel::kInfo, "limited", "other");
  ASSERT_EQ(lines_.size(), 3u);

  // A filtered level never reaches the limiter.
  FLEX_LOG_LIMITED(limiter, Seconds(10.0), LogLevel::kDebug, "limited", "x");
  EXPECT_EQ(limiter.suppressed(), 0u);
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, RingWrapsDroppingOldestFirst)
{
  FlightRecorder recorder(RecorderConfig{4});
  for (int i = 0; i < 10; ++i) {
    recorder.Record(Seconds(static_cast<double>(i)), RecordKind::kAnnotation,
                    i);
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.dropped_count(), 6u);
  EXPECT_EQ(recorder.next_sequence(), 10u);

  const std::vector<FlightRecord> records = recorder.Records();
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].sequence, 6u + i);  // oldest retained first
    EXPECT_EQ(records[i].a, static_cast<int>(6 + i));
  }
  // Sequences stay strictly monotone across the wrap.
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_LT(records[i - 1].sequence, records[i].sequence);
}

TEST(FlightRecorderTest, ClearEmptiesRingButKeepsSequenceNumbering)
{
  FlightRecorder recorder(RecorderConfig{4});
  recorder.Record(Seconds(1.0), RecordKind::kDetection, 0, 1);
  recorder.Record(Seconds(2.0), RecordKind::kDecision, 0);
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  recorder.Record(Seconds(3.0), RecordKind::kEnforced, 0);
  const std::vector<FlightRecord> records = recorder.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].sequence, 2u);  // numbering continued
}

TEST(FlightRecorderTest, JsonRoundTripPreservesEveryFieldAndEscapes)
{
  FlightRecord record;
  record.sequence = 41;
  record.t = 12.25;
  record.kind = RecordKind::kViolation;
  record.a = 3;
  record.b = -1;
  record.value = 0.125;
  record.detail = "say \"no\"\\path\nline2\ttab";

  FlightRecord parsed;
  ASSERT_TRUE(ParseRecordJson(RecordToJson(record), &parsed));
  EXPECT_EQ(parsed.sequence, record.sequence);
  EXPECT_EQ(parsed.t, record.t);
  EXPECT_EQ(parsed.kind, record.kind);
  EXPECT_EQ(parsed.a, record.a);
  EXPECT_EQ(parsed.b, record.b);
  EXPECT_EQ(parsed.value, record.value);
  EXPECT_EQ(parsed.detail, record.detail);
}

TEST(FlightRecorderTest, JsonlParsingRejectsMalformedLines)
{
  FlightRecorder recorder(RecorderConfig{8});
  recorder.Record(Seconds(1.0), RecordKind::kMeterSample, 0, 1, 150e3);
  recorder.Record(Seconds(2.0), RecordKind::kRackCommand, 5, 0, 25e3);

  std::vector<FlightRecord> parsed;
  std::string error;
  ASSERT_TRUE(
      ParseRecordsJsonl(RecordsToJsonl(recorder.Records()), &parsed, &error));
  EXPECT_EQ(parsed.size(), 2u);
  EXPECT_FALSE(FirstDivergence(recorder.Records(), parsed).has_value());

  EXPECT_FALSE(ParseRecordsJsonl("{\"seq\":0\nnot json\n", &parsed, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FlightRecorderTest, FirstDivergenceFlagsPerturbedAndMissingRecords)
{
  FlightRecorder recorder(RecorderConfig{8});
  recorder.Record(Seconds(1.0), RecordKind::kDetection, 0, 2);
  recorder.Record(Seconds(2.0), RecordKind::kDecision, 0, -1, 3.0);
  recorder.Record(Seconds(3.0), RecordKind::kEnforced, 0, -1, 1.5);
  const std::vector<FlightRecord> expected = recorder.Records();

  EXPECT_FALSE(FirstDivergence(expected, expected).has_value());

  // Perturb one field: the diff names the sequence and the field.
  std::vector<FlightRecord> perturbed = expected;
  perturbed[1].value = 4.0;
  auto divergence = FirstDivergence(expected, perturbed);
  ASSERT_TRUE(divergence.has_value());
  EXPECT_EQ(divergence->sequence, 1u);
  EXPECT_EQ(divergence->field, "value");

  // Drop a record: reported as missing at that sequence.
  std::vector<FlightRecord> truncated = expected;
  truncated.erase(truncated.begin() + 1);
  divergence = FirstDivergence(expected, truncated);
  ASSERT_TRUE(divergence.has_value());
  EXPECT_EQ(divergence->sequence, 1u);
  EXPECT_EQ(divergence->field, "missing");

  // Extra history outside the expected window is legitimately ignored.
  std::vector<FlightRecord> extended = expected;
  FlightRecord extra;
  extra.sequence = 99;
  extra.t = 9.0;
  extended.push_back(extra);
  EXPECT_FALSE(FirstDivergence(expected, extended).has_value());
}

// ---------------------------------------------------------------------------
// Forensic bundles
// ---------------------------------------------------------------------------

TEST(ForensicsBundleTest, WriteLoadRoundTrip)
{
  FlightRecorder recorder(RecorderConfig{16});
  recorder.Record(Seconds(1.5), RecordKind::kFaultBegin, 2, 0, 0.0,
                  "ups_failover ups 2");
  recorder.Record(Seconds(2.0), RecordKind::kViolation, -1, -1, 0.0,
                  "[ups-trip] \"quoted\" detail");

  MetricsRegistry metrics;
  metrics.counter("test.counter").Increment(3.0);

  BundleSpec spec;
  spec.trigger = "invariant-violation";
  spec.scenario = "unit-test";
  spec.seed = 777;
  spec.sim_time_s = 2.0;
  spec.horizon_s = 120.0;
  spec.replayable = true;
  spec.records = recorder.Records();
  spec.metrics = &metrics;
  spec.fault_plan_text = "listing";
  spec.fault_plan_jsonl = "{\"at\":1.5}\n";
  spec.racks_csv = "rack,category\n0,1\n";
  spec.notes.push_back("t=2 [ups-trip] \"quoted\" detail");

  const std::string dir =
      UniqueBundleDir(::testing::TempDir(), "obs-test-bundle");
  std::string error;
  ASSERT_TRUE(WriteForensicBundle(dir, spec, &error)) << error;

  LoadedBundle bundle;
  ASSERT_TRUE(LoadForensicBundle(dir, &bundle, &error)) << error;
  EXPECT_EQ(bundle.manifest.format, kBundleFormat);
  EXPECT_EQ(bundle.manifest.trigger, "invariant-violation");
  EXPECT_EQ(bundle.manifest.scenario, "unit-test");
  EXPECT_EQ(bundle.manifest.seed, 777u);
  EXPECT_EQ(bundle.manifest.sim_time_s, 2.0);
  EXPECT_EQ(bundle.manifest.horizon_s, 120.0);
  EXPECT_TRUE(bundle.manifest.replayable);
  EXPECT_EQ(bundle.manifest.first_sequence, 0u);
  EXPECT_EQ(bundle.manifest.last_sequence, 1u);
  EXPECT_EQ(bundle.manifest.num_records, 2u);
  ASSERT_EQ(bundle.manifest.notes.size(), 1u);
  EXPECT_EQ(bundle.manifest.notes[0], "t=2 [ups-trip] \"quoted\" detail");
  EXPECT_EQ(bundle.fault_plan_jsonl, "{\"at\":1.5}\n");
  ASSERT_EQ(bundle.records.size(), 2u);
  EXPECT_FALSE(FirstDivergence(spec.records, bundle.records).has_value());
}

TEST(ForensicsBundleTest, SixtyFourBitIdsRoundTripExactly)
{
  // Above 2^53 a double no longer holds every integer: these ids survive
  // the text round trip only through an exact integer parse.
  const std::uint64_t wide = (std::uint64_t{1} << 53) + 1;
  FlightRecord record;
  record.sequence = wide;
  record.t = 1.0;
  for (const std::uint64_t seed :
       {wide, std::numeric_limits<std::uint64_t>::max()}) {
    BundleSpec spec;
    spec.seed = seed;
    spec.records = {record};
    const std::string dir =
        UniqueBundleDir(::testing::TempDir(), "obs-test-wide-ids");
    std::string error;
    ASSERT_TRUE(WriteForensicBundle(dir, spec, &error)) << error;

    LoadedBundle bundle;
    ASSERT_TRUE(LoadForensicBundle(dir, &bundle, &error)) << error;
    EXPECT_EQ(bundle.manifest.seed, seed);
    EXPECT_EQ(bundle.manifest.first_sequence, wide);
    EXPECT_EQ(bundle.manifest.last_sequence, wide);
    ASSERT_EQ(bundle.records.size(), 1u);
    EXPECT_EQ(bundle.records[0].sequence, wide);
  }
}

TEST(ForensicsBundleTest, LoadFailsWithoutManifest)
{
  LoadedBundle bundle;
  std::string error;
  EXPECT_FALSE(LoadForensicBundle(
      ::testing::TempDir() + "does-not-exist", &bundle, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(LogTest, SimClockStampsLines)
{
  SetLogLevel(LogLevel::kInfo);
  FLEX_LOG_AT(Seconds(3.25), LogLevel::kInfo, "clock", "stamped");
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_NE(lines_[0].find("t=3.250 clock: stamped"), std::string::npos);
  FLEX_LOG(LogLevel::kInfo, "clock", "bare");
  ASSERT_EQ(lines_.size(), 2u);
  EXPECT_EQ(lines_[1].find("t="), std::string::npos);
  EXPECT_NE(lines_[1].find("clock: bare"), std::string::npos);
}

}  // namespace
}  // namespace flex::obs
