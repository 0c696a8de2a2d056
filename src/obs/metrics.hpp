/**
 * @file
 * Simulated-time-aware metrics registry.
 *
 * Counters, gauges, and fixed-bucket latency histograms keyed by
 * hierarchical dot names ("pipeline.publish_lag_s",
 * "controller.enforce_latency_s"). Snapshots are stamped with
 * sim::EventQueue::Now() when a clock is bound, so two runs of the same
 * seed produce bit-identical exports — the property the seed-replay and
 * perf-trajectory tooling (BENCH_*.json) depends on.
 *
 * Histograms keep only fixed bucket counts plus exact count/sum/min/max,
 * so memory stays O(buckets) no matter how hot the instrumented path is;
 * quantiles are interpolated within the containing bucket.
 */
#ifndef FLEX_OBS_METRICS_HPP_
#define FLEX_OBS_METRICS_HPP_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace flex::sim {
class EventQueue;
}  // namespace flex::sim

namespace flex::obs {

/** Monotonically increasing count (events, commands, drops). */
class Counter {
 public:
  void
  Increment(double delta = 1.0)
  {
    value_ += delta;
  }

  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/** Last-write-wins instantaneous value (state of charge, queue depth). */
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/** Bucket layout of a histogram. */
struct HistogramConfig {
  /**
   * Ascending upper bucket edges. A sample lands in the first bucket
   * whose edge is >= the sample; samples above the last edge land in an
   * implicit overflow bucket.
   */
  std::vector<double> edges;

  /** Geometric edges: first, first*factor, ... (count edges). */
  static HistogramConfig Exponential(double first, double factor, int count);

  /** Default layout for simulated-seconds latencies (1 ms .. ~65 s). */
  static HistogramConfig LatencySeconds();

  /** Default layout for wall-clock microsecond timings (1 us .. ~1 s). */
  static HistogramConfig WallMicros();
};

/** Fixed-bucket histogram with exact count/sum/min/max. */
class Histogram {
 public:
  explicit Histogram(HistogramConfig config);

  void Observe(double sample);

  /**
   * Observes @p sample @p n times, as n Observe calls would: the bucket,
   * count, min and max update once, and the sum adds @p sample n times,
   * so it keeps the bits of the one-by-one sum.
   */
  void ObserveRepeated(double sample, std::uint64_t n);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /**
   * Quantile estimate for @p q in [0, 1], linearly interpolated inside
   * the containing bucket and clamped to the exact [min, max] range so
   * p0/p100 are exact and single-sample histograms report that sample.
   */
  double Quantile(double q) const;

  const std::vector<double>& edges() const { return edges_; }
  /** Per-bucket counts; the last entry is the overflow bucket. */
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

  /**
   * Folds @p other into this histogram (bucket-wise sums, exact
   * count/sum/min/max). Throws ConfigError when the bucket layouts
   * differ — merging is only meaningful for identical edges, e.g. the
   * profiler's per-thread aggregates of one phase.
   */
  void Merge(const Histogram& other);

  void Reset();

 private:
  std::vector<double> edges_;
  std::vector<std::uint64_t> counts_;  // edges_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/** What a snapshot row describes. */
enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

/** One exported metric at snapshot time. */
struct MetricRow {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /** Counter / gauge value (unused for histograms). */
  double value = 0.0;
  /** Histogram summary (unused for counters / gauges). */
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/** A full registry export, stamped with simulated time. */
struct MetricsSnapshot {
  double sim_time_seconds = 0.0;
  std::vector<MetricRow> rows;  ///< sorted by name

  /** Row lookup by exact name; nullptr when absent. */
  const MetricRow* Find(const std::string& name) const;
};

/**
 * Builds a synthesized MetricsSnapshot without a registry, keeping the
 * sorted-rows contract mechanically instead of by caller discipline.
 * Headless harnesses (a room with no registry, such as a fleet lane)
 * push rows in any order and Build() sorts once. Reusable: Build()
 * recycles the output snapshot's row storage back into the builder, so
 * the two vectors ping-pong instead of regrowing.
 */
class MetricsSnapshotBuilder {
 public:
  /** Appends a gauge/counter row (histogram rows are registry-only). */
  void Push(std::string name, MetricKind kind, double value);
  void Gauge(std::string name, double value) {
    Push(std::move(name), MetricKind::kGauge, value);
  }
  void Counter(std::string name, double value) {
    Push(std::move(name), MetricKind::kCounter, value);
  }

  /**
   * Sorts the accumulated rows by name and moves them into @p out
   * (whose previous rows vector is recycled as the builder's next
   * buffer — the allocation ping-pongs instead of growing).
   */
  void Build(double sim_time_seconds, MetricsSnapshot* out);

 private:
  std::vector<MetricRow> rows_;
};

/**
 * The registry. Metric objects are created on first use and live as
 * long as the registry, so instrumented components can cache the
 * returned references and skip the name lookup on hot paths.
 */
class MetricsRegistry {
 public:
  explicit MetricsRegistry(const sim::EventQueue* clock = nullptr);

  /** Binds / replaces the clock used to stamp snapshots. */
  void SetClock(const sim::EventQueue* clock) { clock_ = clock; }
  const sim::EventQueue* clock() const { return clock_; }

  /** Finds or creates; throws ConfigError on a kind mismatch. */
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /** @p config applies only on first creation of @p name. */
  Histogram& histogram(const std::string& name,
                       HistogramConfig config = HistogramConfig::LatencySeconds());

  /** All metrics, sorted by name, stamped with the clock's Now(). */
  MetricsSnapshot Snapshot() const;

  /** Zeroes every metric but keeps registrations (and cached refs). */
  void Reset();

  std::size_t size() const { return metrics_.size(); }

 private:
  struct Metric {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Metric& FindOrCreate(const std::string& name, MetricKind kind,
                       const HistogramConfig* config);

  const sim::EventQueue* clock_;
  // std::map keeps snapshot order deterministic and references stable.
  std::map<std::string, Metric> metrics_;
};

}  // namespace flex::obs

#endif  // FLEX_OBS_METRICS_HPP_
