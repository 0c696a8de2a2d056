/**
 * @file
 * Unit tests for common utilities: units, RNG, piecewise functions,
 * stats, and the work-stealing thread pool.
 */
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/piecewise.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

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
