#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "error.hpp"

namespace flex {

void
RunningStats::Add(double x)
{
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double
RunningStats::variance() const
{
  if (count_ < 2)
    return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
  return std::sqrt(variance());
}

double
Percentile(std::vector<double> samples, double q)
{
  FLEX_REQUIRE(!samples.empty(), "percentile of empty sample set");
  FLEX_REQUIRE(q >= 0.0 && q <= 100.0, "percentile q must be in [0, 100]");
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1)
    return samples.front();
  const double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

void
RunLengthSummary::Add(double value, std::size_t n)
{
  if (n == 0)
    return;
  count_ += n;
  if (!runs_.empty() && runs_.back().value == value)
    runs_.back().count += n;
  else
    runs_.push_back(Run{value, n});
}

double
RunLengthSummary::Percentile(double q) const
{
  FLEX_REQUIRE(count_ > 0, "percentile of empty sample set");
  FLEX_REQUIRE(q >= 0.0 && q <= 100.0, "percentile q must be in [0, 100]");
  std::vector<Run> sorted = runs_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Run& a, const Run& b) { return a.value < b.value; });
  if (count_ == 1)
    return sorted.front().value;
  const double rank = q / 100.0 * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, count_ - 1);
  const double frac = rank - static_cast<double>(lo);
  // Sample position p lies in run i when seen <= p < seen + count_i.
  std::size_t i = 0;
  std::size_t seen = 0;
  while (seen + sorted[i].count <= lo)
    seen += sorted[i++].count;
  const double lo_value = sorted[i].value;
  while (seen + sorted[i].count <= hi)
    seen += sorted[i++].count;
  const double hi_value = sorted[i].value;
  return lo_value + frac * (hi_value - lo_value);
}

BoxStats
BoxStats::FromSamples(std::vector<double> samples)
{
  FLEX_REQUIRE(!samples.empty(), "boxplot of empty sample set");
  std::sort(samples.begin(), samples.end());
  BoxStats box;
  box.min = samples.front();
  box.max = samples.back();
  // Percentile() re-sorts, which is wasteful but keeps the code simple; the
  // sample sets here are tiny (10 trace variations).
  box.p25 = Percentile(samples, 25.0);
  box.median = Percentile(samples, 50.0);
  box.p75 = Percentile(samples, 75.0);
  return box;
}

std::string
BoxStats::ToString(int precision) const
{
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << min << "/" << p25 << "/" << median << "/" << p75 << "/"
     << max;
  return os.str();
}

}  // namespace flex
