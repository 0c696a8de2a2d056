/**
 * @file
 * Unit tests for common utilities: units, RNG, piecewise functions,
 * stats, and the work-stealing thread pool.
 */
#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/piecewise.hpp"
#include "common/portable_math.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "common/ziggurat.hpp"

namespace flex {
namespace {

using common::ThreadPool;

TEST(UnitsTest, WattsArithmetic)
{
  const Watts a = KiloWatts(14.4);
  const Watts b = KiloWatts(17.2);
  EXPECT_NEAR((a + b).kilowatts(), 31.6, 1e-9);
  EXPECT_NEAR((b - a).kilowatts(), 2.8, 1e-9);
  EXPECT_NEAR((a * 2.0).kilowatts(), 28.8, 1e-9);
  EXPECT_NEAR(a / b, 14.4 / 17.2, 1e-12);
  EXPECT_LT(a, b);
  EXPECT_NEAR(MegaWatts(9.6).value(), 9.6e6, 1e-3);
}

TEST(UnitsTest, WattsCompoundAssignment)
{
  Watts w = KiloWatts(1.0);
  w += KiloWatts(2.0);
  w -= KiloWatts(0.5);
  w *= 2.0;
  EXPECT_NEAR(w.kilowatts(), 5.0, 1e-9);
}

TEST(UnitsTest, SecondsConversions)
{
  EXPECT_NEAR(Minutes(3.5).value(), 210.0, 1e-9);
  EXPECT_NEAR(Hours(1.0).value(), 3600.0, 1e-9);
  EXPECT_NEAR(Milliseconds(1500.0).value(), 1.5, 1e-9);
  EXPECT_NEAR(Seconds(7200.0).hours(), 2.0, 1e-12);
}

TEST(UnitsTest, EnergyIsPowerTimesTime)
{
  const Joules j = KiloWatts(1.2) * Seconds(10.0);
  EXPECT_NEAR(j.value(), 12000.0, 1e-9);
}

TEST(UnitsTest, ApproxEquals)
{
  EXPECT_TRUE(Watts(100.0).ApproxEquals(Watts(100.0 + 1e-9)));
  EXPECT_FALSE(Watts(100.0).ApproxEquals(Watts(101.0)));
}

TEST(RngTest, DeterministicAcrossInstances)
{
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge)
{
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64())
      ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformStaysInRange)
{
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusively)
{
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntHandlesFullAndWideSpans)
{
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

  // The full range is the raw stream, reinterpreted.
  Rng full(3);
  Rng raw(3);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(full.UniformInt(kMin, kMax),
              static_cast<std::int64_t>(raw.NextU64()));

  // A span above 2^63 reaches both ends and never leaves the range.
  Rng wide(5);
  const std::int64_t lo = -(kMax / 2) - 10;
  bool below_zero = false;
  bool above_half = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = wide.UniformInt(lo, kMax);
    EXPECT_GE(v, lo);
    below_zero |= v < 0;
    above_half |= v > kMax / 2;
  }
  EXPECT_TRUE(below_zero);
  EXPECT_TRUE(above_half);

  Rng single(7);
  EXPECT_EQ(single.UniformInt(kMin, kMin), kMin);
  EXPECT_EQ(single.UniformInt(kMax, kMax), kMax);
  EXPECT_EQ(single.UniformInt(-4, -4), -4);
}

/** FNV-1a over the bits of the first @p n draws of @p draw on Rng(2021). */
std::uint64_t
HashDraws(int n, const std::function<double(Rng&)>& draw)
{
  Rng rng(2021);
  Fnv1a hash;
  for (int i = 0; i < n; ++i)
    hash.AddDouble(draw(rng));
  return hash.value();
}

// The seed-portability gate: tests/CMakeLists.txt runs this test a second
// time with glibc's non-FMA exp/log/cos selected, and no libm call may
// change a draw.
TEST(RngTest, StreamsArePinned)
{
  EXPECT_EQ(HashDraws(1000000, [](Rng& rng) { return rng.Normal(); }),
            0x45e0828d29abcac8ull);
  EXPECT_EQ(HashDraws(100000,
                      [](Rng& rng) { return rng.LogNormal(-0.25, 0.28); }),
            0x562dd6f973e78330ull);
  EXPECT_EQ(HashDraws(100000, [](Rng& rng) { return rng.Exponential(1.0); }),
            0x536fe85e8ae762b0ull);
}

/** Standard normal CDF. */
double
Phi(double z)
{
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

TEST(RngTest, NormalMatchesStandardNormal)
{
  constexpr int kDraws = 1000000;
  const double n = kDraws;
  const NormalZiggurat& zig = NormalZigguratTables();
  const double r = NormalZiggurat::kR;

  // Which path each draw's first attempt takes, replayed from a copy of
  // the generator: the low byte picks the layer and the top 52 bits the
  // magnitude.
  double expected_rectangle = 0.0;
  for (int i = 0; i < NormalZiggurat::kLayers; ++i)
    expected_rectangle += static_cast<double>(zig.inner[i]) * 0x1p-52;
  expected_rectangle /= NormalZiggurat::kLayers;
  const double expected_tail =
      (1.0 - static_cast<double>(zig.inner[0]) * 0x1p-52) /
      NormalZiggurat::kLayers;
  const double expected_wedge = 1.0 - expected_rectangle - expected_tail;

  Rng rng(2024);
  std::vector<double> z(kDraws);
  double rectangle = 0.0;
  double wedge = 0.0;
  double tail = 0.0;
  for (double& value : z) {
    Rng replay = rng;
    value = rng.Normal();
    const std::uint64_t bits = replay.NextU64();
    const std::size_t layer = bits & 0xff;
    const std::uint64_t magnitude = bits >> 12;
    if (magnitude < zig.inner[layer]) {
      ++rectangle;
      ASSERT_EQ(std::fabs(value),
                static_cast<double>(magnitude) * zig.scale[layer]);
    } else if (layer == 0) {
      ++tail;
      ASSERT_GT(std::fabs(value), r);
    } else {
      ++wedge;
    }
  }
  const auto binomial_ok = [n](double hits, double p) {
    return std::fabs(hits / n - p) <= 5.0 * std::sqrt(p * (1.0 - p) / n);
  };
  EXPECT_GT(wedge, 0.0);
  EXPECT_GT(tail, 0.0);
  EXPECT_TRUE(binomial_ok(rectangle, expected_rectangle))
      << rectangle / n << " vs " << expected_rectangle;
  EXPECT_TRUE(binomial_ok(wedge, expected_wedge))
      << wedge / n << " vs " << expected_wedge;
  EXPECT_TRUE(binomial_ok(tail, expected_tail))
      << tail / n << " vs " << expected_tail;

  // Moments within 5 standard errors of N(0, 1)'s.
  double m1 = 0.0;
  double m2 = 0.0;
  double m3 = 0.0;
  double m4 = 0.0;
  double beyond_3 = 0.0;
  double beyond_r = 0.0;
  for (const double v : z) {
    m1 += v;
    m2 += v * v;
    m3 += v * v * v;
    m4 += v * v * v * v;
    beyond_3 += std::fabs(v) > 3.0 ? 1.0 : 0.0;
    beyond_r += std::fabs(v) > r ? 1.0 : 0.0;
  }
  m1 /= n;
  m2 /= n;
  m3 /= n;
  m4 /= n;
  EXPECT_LT(std::fabs(m1), 5.0 * std::sqrt(1.0 / n));
  EXPECT_LT(std::fabs(m2 - 1.0), 5.0 * std::sqrt(2.0 / n));
  EXPECT_LT(std::fabs(m3), 5.0 * std::sqrt(6.0 / n));
  EXPECT_LT(std::fabs(m4 - 3.0), 5.0 * std::sqrt(24.0 / n));
  EXPECT_TRUE(binomial_ok(beyond_3, std::erfc(3.0 / std::sqrt(2.0))))
      << beyond_3 / n;
  EXPECT_TRUE(binomial_ok(beyond_r, std::erfc(r / std::sqrt(2.0))))
      << beyond_r / n;

  // Kolmogorov-Smirnov distance to Phi under the alpha = 0.001 value.
  std::sort(z.begin(), z.end());
  double ks = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double cdf = Phi(z[i]);
    ks = std::max({ks, static_cast<double>(i + 1) / n - cdf,
                   cdf - static_cast<double>(i) / n});
  }
  EXPECT_LT(ks, 1.95 / std::sqrt(n));
}

/** |got - want| in units of the spacing of doubles at want. */
long double
UlpError(double got, long double want)
{
  const double nearest = static_cast<double>(want);
  const double ulp =
      std::nextafter(std::fabs(nearest), std::numeric_limits<double>::infinity()) -
      std::fabs(nearest);
  return std::fabs(static_cast<long double>(got) - want) / ulp;
}

TEST(RngTest, ZigguratTablesAreConsistent)
{
  using Z = NormalZiggurat;
  const Z& zig = NormalZigguratTables();
  EXPECT_EQ(zig.x[1], Z::kR);
  EXPECT_EQ(zig.x[Z::kLayers], 0.0);
  EXPECT_EQ(zig.f[Z::kLayers], 1.0);
  for (int i = 0; i < Z::kLayers; ++i) {
    // Layer 0 is the base; every other layer sits on the one below.
    const long double area =
        i == 0 ? static_cast<long double>(zig.x[0]) * zig.f[1]
               : static_cast<long double>(zig.x[i]) *
                     (static_cast<long double>(zig.f[i + 1]) - zig.f[i]);
    EXPECT_LE(std::fabs(area / Z::kArea - 1.0L), 1e-12L) << "layer " << i;
    EXPECT_GT(zig.x[i], zig.x[i + 1]) << "layer " << i;
    EXPECT_EQ(zig.scale[i], zig.x[i] * 0x1p-52);
    // Every magnitude the fast path accepts lands left of x[i+1].
    if (zig.inner[i] > 0) {
      EXPECT_LT(static_cast<double>(zig.inner[i] - 1) * zig.scale[i],
                zig.x[i + 1]);
    }
  }
  EXPECT_EQ(zig.inner[Z::kLayers - 1], 0u);
  for (int i = 0; i <= Z::kLayers; ++i) {
    const long double x = zig.x[i];
    EXPECT_LE(UlpError(zig.f[i], std::exp(-0.5L * x * x)), 2.0L)
        << "x[" << i << "] = " << zig.x[i];
  }
}

/**
 * Expects @p got to match libm's long-double @p want: NaN for NaN, the same
 * infinity or zero, and otherwise within 1 ULP.
 */
void
ExpectWithinOneUlp(double got, long double want, double arg)
{
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << "arg " << arg;
  } else if (std::isinf(static_cast<double>(want)) || want == 0.0L) {
    EXPECT_EQ(got, static_cast<double>(want)) << "arg " << arg;
  } else {
    EXPECT_LE(UlpError(got, want), 1.0L) << "arg " << arg;
  }
}

TEST(PortableMathTest, PortableExpLogMatchLibm)
{
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0,     -0.0,     DBL_TRUE_MIN, -DBL_TRUE_MIN,
                             1e-310,  -1e-310,  1.0,          -1.0,
                             DBL_MAX, -DBL_MAX, kInf,         -kInf,
                             kNaN};
  for (const double x : specials) {
    ExpectWithinOneUlp(PortableExp(x), std::exp(static_cast<long double>(x)), x);
    ExpectWithinOneUlp(PortableLog(x), std::log(static_cast<long double>(x)), x);
  }
  EXPECT_EQ(PortableExp(0.0), 1.0);
  EXPECT_EQ(PortableLog(1.0), 0.0);

  // Log-uniform arguments: |x| in [2^-40, 745] for exp, both signs, and
  // x across every binade, subnormals included, for log.
  Rng rng(19);
  const double log2_exp_max = std::log2(745.0);
  for (int i = 0; i < 1000000; ++i) {
    const double a = std::exp2(rng.Uniform(-40.0, log2_exp_max));
    const double x = rng.Bernoulli(0.5) ? -a : a;
    ExpectWithinOneUlp(PortableExp(x), std::exp(static_cast<long double>(x)), x);

    const double y = std::exp2(rng.Uniform(-1074.0, 1024.0));
    if (y == 0.0 || std::isinf(y))
      continue;
    ExpectWithinOneUlp(PortableLog(y), std::log(static_cast<long double>(y)), y);
  }
  // Log's own branch for |x - 1| < 2^-20, which log-uniform draws miss.
  for (int i = 0; i < 10000; ++i) {
    const double y = 1.0 + rng.Uniform(-0x1p-19, 0x1p-19);
    ExpectWithinOneUlp(PortableLog(y), std::log(static_cast<long double>(y)), y);
  }
}

TEST(RngTest, NormalMomentsAreApproximatelyCorrect)
{
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i)
    stats.Add(rng.Normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, TruncatedNormalRespectsBounds)
{
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.TruncatedNormal(0.5, 1.0, 0.0, 1.0);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(RngTest, BernoulliFrequencyTracksP)
{
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ExponentialMeanIsCorrect)
{
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i)
    stats.Add(rng.Exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.15);
}

TEST(RngTest, ShuffleIsAPermutation)
{
  Rng rng(31);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkProducesIndependentStream)
{
  Rng parent(37);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

TEST(PiecewiseTest, InterpolatesLinearly)
{
  const PiecewiseLinear f({{0.0, 0.0}, {1.0, 1.0}});
  EXPECT_DOUBLE_EQ(f(0.5), 0.5);
  EXPECT_DOUBLE_EQ(f(0.25), 0.25);
}

TEST(PiecewiseTest, FlatExtrapolationOutsideRange)
{
  const PiecewiseLinear f({{0.2, 1.0}, {0.8, 3.0}});
  EXPECT_DOUBLE_EQ(f(0.0), 1.0);
  EXPECT_DOUBLE_EQ(f(1.0), 3.0);
}

TEST(PiecewiseTest, MultiSegment)
{
  const PiecewiseLinear f({{0.0, 0.0}, {0.5, 0.0}, {1.0, 1.0}});
  EXPECT_DOUBLE_EQ(f(0.25), 0.0);
  EXPECT_DOUBLE_EQ(f(0.75), 0.5);
  EXPECT_TRUE(f.IsNonDecreasing());
}

TEST(PiecewiseTest, RejectsNonMonotonicX)
{
  EXPECT_THROW(PiecewiseLinear({{0.5, 0.0}, {0.5, 1.0}}), ConfigError);
  EXPECT_THROW(PiecewiseLinear({{0.5, 0.0}, {0.2, 1.0}}), ConfigError);
  EXPECT_THROW(PiecewiseLinear(std::vector<PiecewiseLinear::Point>{}),
               ConfigError);
}

TEST(PiecewiseTest, ConstantFunction)
{
  const PiecewiseLinear f = PiecewiseLinear::Constant(0.7);
  EXPECT_DOUBLE_EQ(f(-5.0), 0.7);
  EXPECT_DOUBLE_EQ(f(123.0), 0.7);
}

TEST(PiecewiseTest, MinMaxY)
{
  const PiecewiseLinear f({{0.0, 0.3}, {0.4, 0.1}, {1.0, 0.9}});
  EXPECT_DOUBLE_EQ(f.MinY(), 0.1);
  EXPECT_DOUBLE_EQ(f.MaxY(), 0.9);
  EXPECT_FALSE(f.IsNonDecreasing());
}

TEST(PiecewiseTest, ScaledY)
{
  const PiecewiseLinear f({{0.0, 0.0}, {1.0, 1.0}});
  const PiecewiseLinear g = f.ScaledY(0.5);
  EXPECT_DOUBLE_EQ(g(1.0), 0.5);
  EXPECT_DOUBLE_EQ(g(0.5), 0.25);
}

TEST(StatsTest, RunningStatsBasics)
{
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, EmptyRunningStatsAreZero)
{
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StatsTest, PercentileInterpolates)
{
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 2.5);
  EXPECT_THROW(Percentile({}, 50.0), ConfigError);
  EXPECT_THROW(Percentile(xs, 101.0), ConfigError);
}

TEST(StatsTest, RunLengthSummaryMatchesPercentileBitForBit)
{
  // Random multisets with heavy duplicates: runs of a few values from a
  // small pool, inserted in shuffled order, so equal values arrive both
  // adjacent (one run) and scattered (many runs).
  Rng rng(2021);
  const double qs[] = {0.0, 25.0, 50.0, 99.0, 99.9, 100.0};
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> pool(
        static_cast<std::size_t>(rng.UniformInt(1, 6)));
    for (double& value : pool)
      value = rng.Uniform(0.0, 2.0);
    // Built grouped by value, then shuffled.
    std::vector<std::pair<double, std::size_t>> runs;
    for (const double value : pool) {
      for (auto r = rng.UniformInt(1, 8); r > 0; --r) {
        runs.emplace_back(value,
                          static_cast<std::size_t>(rng.UniformInt(1, 30)));
      }
    }
    rng.Shuffle(runs);

    RunLengthSummary summary;
    std::vector<double> expanded;
    for (const auto& [value, n] : runs) {
      // Half the runs arrive whole, half one sample at a time.
      if (rng.Bernoulli(0.5)) {
        summary.Add(value, n);
      } else {
        for (std::size_t k = 0; k < n; ++k)
          summary.Add(value);
      }
      expanded.insert(expanded.end(), n, value);
    }
    ASSERT_EQ(summary.count(), expanded.size());
    EXPECT_LE(summary.run_count(), runs.size());
    for (const double q : qs) {
      EXPECT_EQ(summary.Percentile(q), Percentile(expanded, q))
          << "trial " << trial << " q " << q;
    }
  }

  RunLengthSummary one;
  one.Add(0.7);
  one.Add(0.3, 0);  // records nothing
  ASSERT_EQ(one.count(), 1u);
  for (const double q : qs)
    EXPECT_EQ(one.Percentile(q), Percentile({0.7}, q));

  const RunLengthSummary empty;
  EXPECT_THROW(empty.Percentile(50.0), ConfigError);
  EXPECT_THROW(one.Percentile(101.0), ConfigError);
}

TEST(StatsTest, BoxStatsFiveNumberSummary)
{
  std::vector<double> xs;
  for (int i = 1; i <= 9; ++i)
    xs.push_back(static_cast<double>(i));
  const BoxStats box = BoxStats::FromSamples(xs);
  EXPECT_DOUBLE_EQ(box.min, 1.0);
  EXPECT_DOUBLE_EQ(box.median, 5.0);
  EXPECT_DOUBLE_EQ(box.max, 9.0);
  EXPECT_DOUBLE_EQ(box.p25, 3.0);
  EXPECT_DOUBLE_EQ(box.p75, 7.0);
  EXPECT_FALSE(box.ToString().empty());
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce)
{
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> sum{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 1; i <= 100; ++i)
    tasks.push_back([&sum, i] { sum.fetch_add(i); });
  pool.Run(std::move(tasks));
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, SizeOnePoolRunsInline)
{
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  int calls = 0;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i)
    tasks.push_back([&calls] { ++calls; });
  pool.Run(std::move(tasks));
  EXPECT_EQ(calls, 8);
}

TEST(ThreadPoolTest, RethrowsFirstTaskException)
{
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&ran, i] {
      ran.fetch_add(1);
      if (i == 5)
        throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(pool.Run(std::move(tasks)), std::runtime_error);
  // All tasks still ran to completion before the rethrow.
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, NestedRunDoesNotDeadlock)
{
  // Every outer task fans out again on the same pool: with a naive
  // blocking wait this deadlocks once the pool is full of waiters.
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&pool, &inner] {
      std::vector<std::function<void()>> tasks;
      for (int j = 0; j < 4; ++j)
        tasks.push_back([&inner] { inner.fetch_add(1); });
      pool.Run(std::move(tasks));
    });
  }
  pool.Run(std::move(outer));
  EXPECT_EQ(inner.load(), 16);
}

TEST(ThreadPoolTest, ConfiguredThreadsHonoursEnvironment)
{
  ::setenv("FLEX_SOLVER_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::ConfiguredThreads(), 3);
  ::setenv("FLEX_SOLVER_THREADS", "0", 1);
  EXPECT_GE(ThreadPool::ConfiguredThreads(), 1);  // invalid: falls back
  ::unsetenv("FLEX_SOLVER_THREADS");
  EXPECT_GE(ThreadPool::ConfiguredThreads(), 1);
}

TEST(ThreadPoolTest, WorkerIndexIsStablePerLane)
{
  ThreadPool pool(3);
  // External threads (including this one) report -1.
  EXPECT_EQ(ThreadPool::WorkerIndex(), -1);
  std::mutex mu;
  std::set<int> seen;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([&mu, &seen] {
      const int index = ThreadPool::WorkerIndex();
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(index);
    });
  }
  pool.Run(std::move(tasks));
  // Tasks ran on the caller (-1) and/or workers (1..size-1); never on an
  // out-of-range lane.
  for (const int index : seen) {
    EXPECT_TRUE(index == -1 || (index >= 1 && index < pool.size()))
        << "unexpected lane " << index;
  }
}

TEST(LanesTest, WidthFollowsThePolicy)
{
  // 0 = the shared pool, 1 = inline, n = a private pool of n lanes;
  // work of one unit runs inline whatever the knob says.
  EXPECT_EQ(common::Lanes(0, 8).size(), ThreadPool::Shared().size());
  EXPECT_EQ(common::Lanes(1, 8).size(), 1);
  EXPECT_EQ(common::Lanes(3, 8).size(), 3);
  EXPECT_EQ(common::Lanes(0, 1).size(), 1);
  EXPECT_EQ(common::Lanes(3, 1).size(), 1);
  EXPECT_EQ(common::Lanes(3, 0).size(), 1);
  EXPECT_THROW(common::Lanes(-1, 8), ConfigError);
}

TEST(LanesTest, RunsEveryTaskExactlyOnce)
{
  for (const int threads : {0, 1, 2, 4}) {
    constexpr int kTasks = 64;
    common::Lanes lanes(threads, kTasks);
    std::vector<std::atomic<int>> runs(kTasks);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < kTasks; ++i)
      tasks.push_back([&runs, i] { runs[static_cast<std::size_t>(i)]++; });
    lanes.Run(std::move(tasks));
    for (int i = 0; i < kTasks; ++i) {
      EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
          << "task " << i << " at threads=" << threads;
    }
  }
}

TEST(LanesTest, OneUnitRunsInlineOnTheCaller)
{
  const std::thread::id caller = std::this_thread::get_id();
  for (const int threads : {0, 1, 4}) {
    common::Lanes lanes(threads, 1);
    std::thread::id ran_on;
    lanes.Run({[&ran_on] { ran_on = std::this_thread::get_id(); }});
    EXPECT_EQ(ran_on, caller) << "threads=" << threads;
  }
}

TEST(ErrorTest, CheckMacrosThrowTheRightTypes)
{
  EXPECT_THROW(FLEX_CHECK(false), InternalError);
  EXPECT_THROW(FLEX_CHECK_MSG(1 == 2, "nope"), InternalError);
  EXPECT_THROW(FLEX_REQUIRE(false, "bad input"), ConfigError);
  EXPECT_NO_THROW(FLEX_CHECK(true));
  EXPECT_NO_THROW(FLEX_REQUIRE(true, "fine"));
}

}  // namespace
}  // namespace flex
