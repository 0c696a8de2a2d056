#include "metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace flex::obs {

namespace {

/** Dot-separated lowercase segments: "pipeline.publish_lag_s". */
bool
ValidMetricName(const std::string& name)
{
  if (name.empty() || name.front() == '.' || name.back() == '.')
    return false;
  bool prev_dot = false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok)
      return false;
    if (c == '.' && prev_dot)
      return false;
    prev_dot = c == '.';
  }
  return true;
}

}  // namespace

HistogramConfig
HistogramConfig::Exponential(double first, double factor, int count)
{
  FLEX_REQUIRE(first > 0.0, "first histogram edge must be positive");
  FLEX_REQUIRE(factor > 1.0, "histogram edge factor must exceed 1");
  FLEX_REQUIRE(count >= 1, "histogram needs at least one edge");
  HistogramConfig config;
  config.edges.reserve(static_cast<std::size_t>(count));
  double edge = first;
  for (int i = 0; i < count; ++i) {
    config.edges.push_back(edge);
    edge *= factor;
  }
  return config;
}

HistogramConfig
HistogramConfig::LatencySeconds()
{
  // 1 ms .. ~65 s in sqrt(2) steps: fine resolution around the paper's
  // 1.5 s data-latency and 10 s end-to-end budgets.
  return Exponential(1e-3, std::sqrt(2.0), 33);
}

HistogramConfig
HistogramConfig::WallMicros()
{
  // 1 us .. ~1 s in x2 steps for wall-clock code timings.
  return Exponential(1.0, 2.0, 20);
}

Histogram::Histogram(HistogramConfig config) : edges_(std::move(config.edges))
{
  FLEX_REQUIRE(!edges_.empty(), "histogram needs bucket edges");
  FLEX_REQUIRE(std::is_sorted(edges_.begin(), edges_.end()) &&
                   std::adjacent_find(edges_.begin(), edges_.end()) ==
                       edges_.end(),
               "histogram edges must be strictly ascending");
  counts_.assign(edges_.size() + 1, 0);
}

void
Histogram::Observe(double sample)
{
  ObserveRepeated(sample, 1);
}

void
Histogram::ObserveRepeated(double sample, std::uint64_t n)
{
  if (n == 0)
    return;
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), sample);
  counts_[static_cast<std::size_t>(it - edges_.begin())] += n;
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  count_ += n;
  for (std::uint64_t i = 0; i < n; ++i)
    sum_ += sample;
}

double
Histogram::Quantile(double q) const
{
  FLEX_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (count_ == 0)
    return 0.0;
  const double rank = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0)
      continue;
    const double before = static_cast<double>(seen);
    seen += counts_[b];
    if (static_cast<double>(seen) < rank)
      continue;
    // Interpolate within bucket b. The lower edge of bucket 0 is the
    // observed min; the overflow bucket is capped at the observed max.
    const double lo = b == 0 ? min_ : edges_[b - 1];
    const double hi = b < edges_.size() ? edges_[b] : max_;
    const double fraction =
        counts_[b] > 0 ? (rank - before) / static_cast<double>(counts_[b])
                       : 0.0;
    const double estimate = lo + (hi - lo) * std::clamp(fraction, 0.0, 1.0);
    return std::clamp(estimate, min_, max_);
  }
  return max_;
}

void
Histogram::Merge(const Histogram& other)
{
  FLEX_REQUIRE(edges_ == other.edges_,
               "histograms with different bucket layouts cannot merge");
  for (std::size_t b = 0; b < counts_.size(); ++b)
    counts_[b] += other.counts_[b];
  if (other.count_ > 0) {
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void
Histogram::Reset()
{
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

const char*
MetricKindName(MetricKind kind)
{
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

const MetricRow*
MetricsSnapshot::Find(const std::string& name) const
{
  for (const MetricRow& row : rows) {
    if (row.name == name)
      return &row;
  }
  return nullptr;
}

void
MetricsSnapshotBuilder::Push(std::string name, MetricKind kind, double value)
{
  MetricRow row;
  row.name = std::move(name);
  row.kind = kind;
  row.value = value;
  rows_.push_back(std::move(row));
}

void
MetricsSnapshotBuilder::Build(double sim_time_seconds, MetricsSnapshot* out)
{
  FLEX_REQUIRE(out != nullptr, "null snapshot output");
  std::sort(rows_.begin(), rows_.end(),
            [](const MetricRow& a, const MetricRow& b) {
              return a.name < b.name;
            });
  out->sim_time_seconds = sim_time_seconds;
  // Swap storage instead of copying: the caller's old rows become the
  // builder's next buffer, so a publish loop stops allocating once both
  // vectors have grown to the steady-state row count.
  std::swap(out->rows, rows_);
  rows_.clear();
}

MetricsRegistry::Metric&
MetricsRegistry::FindOrCreate(const std::string& name, MetricKind kind,
                              const HistogramConfig* config)
{
  const auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != kind) {
      FLEX_CONFIG_ERROR("metric '" + name + "' already registered as " +
                        MetricKindName(it->second.kind) + ", requested as " +
                        MetricKindName(kind));
    }
    return it->second;
  }
  FLEX_REQUIRE(ValidMetricName(name),
               "metric names are dot-separated [a-z0-9_] segments: '" + name +
                   "'");
  Metric metric;
  metric.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      metric.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      metric.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      metric.histogram = std::make_unique<Histogram>(*config);
      break;
  }
  return metrics_.emplace(name, std::move(metric)).first->second;
}

Counter&
MetricsRegistry::counter(const std::string& name)
{
  return *FindOrCreate(name, MetricKind::kCounter, nullptr).counter;
}

Gauge&
MetricsRegistry::gauge(const std::string& name)
{
  return *FindOrCreate(name, MetricKind::kGauge, nullptr).gauge;
}

Histogram&
MetricsRegistry::histogram(const std::string& name, HistogramConfig config)
{
  return *FindOrCreate(name, MetricKind::kHistogram, &config).histogram;
}

MetricsSnapshot
MetricsRegistry::Snapshot(double sim_time_seconds) const
{
  MetricsSnapshot snapshot;
  snapshot.sim_time_seconds = sim_time_seconds;
  snapshot.rows.reserve(metrics_.size());
  for (const auto& [name, metric] : metrics_) {
    MetricRow row;
    row.name = name;
    row.kind = metric.kind;
    switch (metric.kind) {
      case MetricKind::kCounter:
        row.value = metric.counter->value();
        break;
      case MetricKind::kGauge:
        row.value = metric.gauge->value();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *metric.histogram;
        row.count = h.count();
        row.sum = h.sum();
        row.min = h.min();
        row.max = h.max();
        row.p50 = h.Quantile(0.50);
        row.p99 = h.Quantile(0.99);
        break;
      }
    }
    snapshot.rows.push_back(std::move(row));
  }
  return snapshot;
}

void
MetricsRegistry::Reset()
{
  for (auto& [name, metric] : metrics_) {
    switch (metric.kind) {
      case MetricKind::kCounter:
        metric.counter->Reset();
        break;
      case MetricKind::kGauge:
        metric.gauge->Reset();
        break;
      case MetricKind::kHistogram:
        metric.histogram->Reset();
        break;
    }
  }
}

}  // namespace flex::obs
