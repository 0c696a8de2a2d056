#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>

#include "common/hash.hpp"
#include "obs/json.hpp"

namespace flex::obs {

const SeriesSnapshot*
TimeSeriesSnapshot::Find(const std::string& name) const
{
  const auto it =
      std::lower_bound(series.begin(), series.end(), name,
                       [](const SeriesSnapshot& s, const std::string& n) {
                         return s.name < n;
                       });
  if (it == series.end() || it->name != name)
    return nullptr;
  return &*it;
}

TimeSeriesStore::TimeSeriesStore(TimeSeriesConfig config)
    : config_(std::move(config))
{
  if (config_.raw_capacity == 0)
    config_.raw_capacity = 1;
  for (TierConfig& tier : config_.tiers) {
    if (tier.resolution_s <= 0.0)
      tier.resolution_s = 1.0;
    if (tier.capacity == 0)
      tier.capacity = 1;
  }
  series_.reserve(config_.max_series);
}

TimeSeriesStore::Series*
TimeSeriesStore::FindSeries(const std::string& name)
{
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &series_[it->second];
}

const TimeSeriesStore::Series*
TimeSeriesStore::FindSeries(const std::string& name) const
{
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &series_[it->second];
}

void
TimeSeriesStore::Sample(const MetricsSnapshot& snapshot)
{
  // Harnesses publish once more at shutdown without advancing the
  // clock; re-sampling that tick would skew counts and fingerprints.
  if (snapshot.sim_time_seconds <= last_sample_t_)
    return;
  last_sample_t_ = snapshot.sim_time_seconds;
  for (const MetricRow& row : snapshot.rows) {
    const double value =
        row.kind == MetricKind::kHistogram ? row.p99 : row.value;
    Append(row.name, row.kind, snapshot.sim_time_seconds, value);
  }
}

void
TimeSeriesStore::Append(const std::string& name, MetricKind kind, double t,
                        double value)
{
  Series* series = FindSeries(name);
  if (series == nullptr) {
    if (series_.size() >= config_.max_series) {
      ++dropped_series_;
      return;
    }
    // The only allocating path: first sight of a metric name. Rings
    // are sized once here and never grow.
    index_.emplace(name, series_.size());
    series_.emplace_back();
    series = &series_.back();
    series->name = name;
    series->kind = kind;
    series->raw.resize(config_.raw_capacity);
    series->tiers.resize(config_.tiers.size());
    for (std::size_t i = 0; i < config_.tiers.size(); ++i) {
      series->tiers[i].resolution_s = config_.tiers[i].resolution_s;
      series->tiers[i].ring.resize(config_.tiers[i].capacity);
    }
  }
  AppendToSeries(*series, t, value);
}

void
TimeSeriesStore::FinalizeBucket(Tier& tier)
{
  AggPoint& slot = tier.ring[tier.head];
  slot.t = tier.bucket_start;
  slot.min = tier.min;
  slot.max = tier.max;
  slot.mean = tier.sum / static_cast<double>(tier.count);
  slot.last = tier.last;
  slot.count = tier.count;
  tier.head = (tier.head + 1) % tier.ring.size();
  if (tier.size < tier.ring.size())
    ++tier.size;
  tier.open = false;
  tier.count = 0;
}

void
TimeSeriesStore::AppendToSeries(Series& series, double t, double value)
{
  if (series.any && t < series.last_t) {
    ++out_of_order_;
    return;
  }
  if (!series.any || value != series.last_value)
    series.last_change_t = t;
  series.any = true;
  series.last_t = t;
  series.last_value = value;
  ++total_samples_;

  series.raw[series.head] = RawPoint{t, value};
  series.head = (series.head + 1) % series.raw.size();
  if (series.size < series.raw.size())
    ++series.size;

  for (Tier& tier : series.tiers) {
    const double start =
        std::floor(t / tier.resolution_s) * tier.resolution_s;
    if (tier.open && start > tier.bucket_start)
      FinalizeBucket(tier);
    if (!tier.open) {
      tier.open = true;
      tier.bucket_start = start;
      tier.min = value;
      tier.max = value;
      tier.sum = 0.0;
      tier.count = 0;
    }
    tier.min = std::min(tier.min, value);
    tier.max = std::max(tier.max, value);
    tier.sum += value;
    tier.last = value;
    ++tier.count;
  }
}

std::vector<RawPoint>
TimeSeriesStore::QueryRaw(const std::string& name, double window_s) const
{
  std::vector<RawPoint> out;
  const Series* series = FindSeries(name);
  if (series == nullptr || series->size == 0)
    return out;
  const double cutoff =
      window_s > 0.0 ? series->last_t - window_s : -1.0;
  out.reserve(series->size);
  const std::size_t oldest =
      (series->head + series->raw.size() - series->size) %
      series->raw.size();
  for (std::size_t i = 0; i < series->size; ++i) {
    const RawPoint& point = series->raw[(oldest + i) % series->raw.size()];
    if (window_s <= 0.0 || point.t >= cutoff)
      out.push_back(point);
  }
  return out;
}

AggQueryResult
TimeSeriesStore::QueryAgg(const std::string& name, double resolution_s,
                          double window_s) const
{
  AggQueryResult out;
  const Series* series = FindSeries(name);
  if (series == nullptr || series->tiers.empty())
    return out;
  // Finest tier that is at least as coarse as requested; the coarsest
  // tier when the request is coarser than everything we keep.
  const Tier* chosen = &series->tiers.back();
  for (const Tier& tier : series->tiers) {
    if (tier.resolution_s >= resolution_s) {
      chosen = &tier;
      break;
    }
  }
  out.resolution_s = chosen->resolution_s;
  const double cutoff =
      window_s > 0.0 ? series->last_t - window_s : -1.0;
  out.points.reserve(chosen->size + 1);
  const std::size_t cap = chosen->ring.size();
  const std::size_t oldest = (chosen->head + cap - chosen->size) % cap;
  for (std::size_t i = 0; i < chosen->size; ++i) {
    const AggPoint& point = chosen->ring[(oldest + i) % cap];
    if (window_s <= 0.0 || point.t >= cutoff)
      out.points.push_back(point);
  }
  if (chosen->open && (window_s <= 0.0 || chosen->bucket_start >= cutoff)) {
    AggPoint open;
    open.t = chosen->bucket_start;
    open.min = chosen->min;
    open.max = chosen->max;
    open.mean = chosen->sum / static_cast<double>(chosen->count);
    open.last = chosen->last;
    open.count = chosen->count;
    out.points.push_back(open);
  }
  return out;
}

bool
TimeSeriesStore::LatestValue(const std::string& name, double* value) const
{
  const Series* series = FindSeries(name);
  if (series == nullptr || !series->any)
    return false;
  *value = series->last_value;
  return true;
}

double
TimeSeriesStore::LastChangeTime(const std::string& name) const
{
  const Series* series = FindSeries(name);
  if (series == nullptr || !series->any)
    return -1.0;
  return series->last_change_t;
}

bool
TimeSeriesStore::DeltaOver(const std::string& name, double window_s,
                           double* delta) const
{
  const Series* series = FindSeries(name);
  if (series == nullptr || series->size == 0)
    return false;
  const double cutoff = series->last_t - window_s;
  const std::size_t cap = series->raw.size();
  const std::size_t oldest = (series->head + cap - series->size) % cap;
  // Newest retained point at or before the cutoff; the oldest retained
  // point when eviction already ate the true baseline (best effort).
  double baseline = series->raw[oldest].value;
  for (std::size_t i = 0; i < series->size; ++i) {
    const RawPoint& point = series->raw[(oldest + i) % cap];
    if (point.t > cutoff)
      break;
    baseline = point.value;
  }
  *delta = series->last_value - baseline;
  return true;
}

std::uint64_t
TimeSeriesStore::Fingerprint() const
{
  Fnv1a hash;
  hash.AddU64(static_cast<std::uint64_t>(index_.size()));
  for (const auto& [name, slot] : index_) {
    const Series& series = series_[slot];
    hash.AddString(name);
    hash.AddU64(static_cast<std::uint64_t>(series.kind));
    hash.AddU64(static_cast<std::uint64_t>(series.size));
    const std::size_t cap = series.raw.size();
    const std::size_t oldest = (series.head + cap - series.size) % cap;
    for (std::size_t i = 0; i < series.size; ++i) {
      const RawPoint& point = series.raw[(oldest + i) % cap];
      hash.AddDouble(point.t);
      hash.AddDouble(point.value);
    }
    for (const Tier& tier : series.tiers) {
      hash.AddDouble(tier.resolution_s);
      hash.AddU64(static_cast<std::uint64_t>(tier.size));
      const std::size_t tcap = tier.ring.size();
      const std::size_t toldest = (tier.head + tcap - tier.size) % tcap;
      for (std::size_t i = 0; i < tier.size; ++i) {
        const AggPoint& point = tier.ring[(toldest + i) % tcap];
        hash.AddDouble(point.t);
        hash.AddDouble(point.min);
        hash.AddDouble(point.max);
        hash.AddDouble(point.mean);
        hash.AddDouble(point.last);
        hash.AddU64(point.count);
      }
      hash.AddU64(tier.open ? 1 : 0);
      if (tier.open) {
        hash.AddDouble(tier.bucket_start);
        hash.AddDouble(tier.min);
        hash.AddDouble(tier.max);
        hash.AddDouble(tier.sum);
        hash.AddDouble(tier.last);
        hash.AddU64(tier.count);
      }
    }
  }
  return hash.value();
}

TimeSeriesSnapshot
TimeSeriesStore::Snapshot() const
{
  TimeSeriesSnapshot out;
  out.last_sample_t = last_sample_t_;
  out.total_samples = total_samples_;
  out.series.reserve(index_.size());
  for (const auto& [name, slot] : index_) {
    const Series& series = series_[slot];
    SeriesSnapshot copy;
    copy.name = name;
    copy.kind = series.kind;
    copy.raw = QueryRaw(name, 0.0);
    copy.tiers.reserve(series.tiers.size());
    for (const Tier& tier : series.tiers) {
      SeriesSnapshot::TierData data;
      data.resolution_s = tier.resolution_s;
      data.points = QueryAgg(name, tier.resolution_s, 0.0).points;
      copy.tiers.push_back(std::move(data));
    }
    out.series.push_back(std::move(copy));
  }
  return out;
}

std::string
TimeSeriesStore::ToJsonl() const
{
  std::string out;
  const TimeSeriesSnapshot snapshot = Snapshot();
  for (const SeriesSnapshot& series : snapshot.series) {
    out += "{\"series\":\"" + json::EscapeJson(series.name) +
           "\",\"kind\":\"";
    out += MetricKindName(series.kind);
    out += "\",\"raw\":[";
    for (std::size_t i = 0; i < series.raw.size(); ++i) {
      if (i)
        out += ',';
      out += '[' + json::Num(series.raw[i].t) + ',' +
             json::Num(series.raw[i].value) + ']';
    }
    out += "],\"tiers\":[";
    for (std::size_t ti = 0; ti < series.tiers.size(); ++ti) {
      const SeriesSnapshot::TierData& tier = series.tiers[ti];
      if (ti)
        out += ',';
      out += "{\"res\":" + json::Num(tier.resolution_s) + ",\"points\":[";
      for (std::size_t i = 0; i < tier.points.size(); ++i) {
        const AggPoint& p = tier.points[i];
        if (i)
          out += ',';
        out += '[' + json::Num(p.t) + ',' + json::Num(p.min) + ',' +
               json::Num(p.max) + ',' + json::Num(p.mean) + ',' +
               json::Num(p.last) + ',' + std::to_string(p.count) + ']';
      }
      out += "]}";
    }
    out += "]}\n";
  }
  return out;
}

}  // namespace flex::obs
