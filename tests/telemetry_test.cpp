/**
 * @file
 * Unit tests for the telemetry substrate: meters, consensus, pipeline.
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/meter.hpp"
#include "telemetry/pipeline.hpp"

namespace flex::telemetry {
namespace {

TEST(PhysicalMeterTest, ReadsTrackTruthWithinNoise)
{
  MeterConfig config;
  config.noise_fraction = 0.01;
  config.refresh_interval = Seconds(0.0);
  PhysicalMeter meter(Rng(1));
  for (int i = 0; i < 100; ++i) {
    const auto reading = meter.Sample(config, Seconds(i), KiloWatts(100.0));
    ASSERT_TRUE(reading.has_value());
    EXPECT_NEAR(reading->kilowatts(), 100.0, 5.0);
  }
}

TEST(PhysicalMeterTest, StuckReadingsRepeatWithinRefreshInterval)
{
  MeterConfig config;
  config.refresh_interval = Seconds(5.0);  // the paper's legacy UPS meters
  PhysicalMeter meter(Rng(2));
  const auto first = meter.Sample(config, Seconds(0.0), KiloWatts(100.0));
  // Truth changes, but polls inside the window return the cached value.
  const auto second = meter.Sample(config, Seconds(2.0), KiloWatts(500.0));
  const auto third = meter.Sample(config, Seconds(4.9), KiloWatts(900.0));
  ASSERT_TRUE(first && second && third);
  EXPECT_DOUBLE_EQ(first->value(), second->value());
  EXPECT_DOUBLE_EQ(first->value(), third->value());
  // After the window the meter refreshes.
  const auto fourth = meter.Sample(config, Seconds(5.1), KiloWatts(900.0));
  ASSERT_TRUE(fourth);
  EXPECT_NEAR(fourth->kilowatts(), 900.0, 50.0);
}

TEST(PhysicalMeterTest, FailedMeterReturnsNothing)
{
  const MeterConfig config;
  PhysicalMeter meter(Rng(3));
  meter.SetFailed(true);
  EXPECT_FALSE(meter.Sample(config, Seconds(0.0), KiloWatts(10.0)).has_value());
  meter.SetFailed(false);
  EXPECT_TRUE(meter.Sample(config, Seconds(1.0), KiloWatts(10.0)).has_value());
}

TEST(PhysicalMeterTest, RejectsBadConfig)
{
  MeterConfig bad;
  bad.noise_fraction = -0.1;
  EXPECT_THROW(ValidateMeterConfig(bad), ConfigError);
  bad = MeterConfig{};
  bad.misread_probability = 1.5;
  EXPECT_THROW(ValidateMeterConfig(bad), ConfigError);
  EXPECT_NO_THROW(ValidateMeterConfig(MeterConfig{}));
}

/** The message of the ConfigError @p make throws; empty if none. */
template <typename Make>
std::string
ConfigErrorOf(Make make)
{
  try {
    make();
  } catch (const ConfigError& error) {
    return error.what();
  }
  return "";
}

TEST(PhysicalMeterTest, RejectsNonFiniteConfig)
{
  // An infinite noise fraction turns every refreshed sample into +inf or
  // 0, which poisons the forecasters; an infinite refresh interval
  // freezes every meter after its first sample.
  MeterConfig bad;
  bad.noise_fraction = INFINITY;
  EXPECT_NE(ConfigErrorOf([&] { ValidateMeterConfig(bad); })
                .find("noise_fraction"),
            std::string::npos);
  bad = MeterConfig{};
  bad.refresh_interval = Seconds(INFINITY);
  EXPECT_NE(ConfigErrorOf([&] { ValidateMeterConfig(bad); })
                .find("refresh_interval"),
            std::string::npos);
  bad = MeterConfig{};
  bad.misread_probability = NAN;
  EXPECT_NE(ConfigErrorOf([&] { ValidateMeterConfig(bad); })
                .find("misread_probability"),
            std::string::npos);
}

TEST(LogicalMeterTest, MedianMasksOneMisreadingMeter)
{
  MeterConfig config;
  config.noise_fraction = 0.001;
  config.refresh_interval = Seconds(0.0);
  config.misread_probability = 0.0;
  Rng rng(5);
  MeterArray logical(1, 3, rng);
  // Make one meter grossly misread by failing it and checking consensus
  // still works, then observe median behaviour with all three healthy.
  Watts healthy;
  ASSERT_TRUE(
      logical.Read(config, 0, Seconds(0.0), KiloWatts(100.0), healthy));
  EXPECT_NEAR(healthy.kilowatts(), 100.0, 2.0);
}

TEST(LogicalMeterTest, MisreadingsAreFilteredByMedian)
{
  // One of three meters misreads on every refresh: the median must stay
  // near truth anyway.
  MeterConfig config;
  config.noise_fraction = 0.001;
  config.refresh_interval = Seconds(0.0);
  Rng rng(6);
  MeterArray logical(1, 3, rng);
  logical.meter(0, 0).SetFailed(false);
  // Rebuild meter 0 as a chronically misreading meter is not directly
  // supported; instead verify the end-to-end property statistically with
  // a per-read misread probability on all meters. P(two simultaneous
  // misreads) = 3 * 0.1^2 ~ 3%, so the vast majority of reads are good.
  MeterConfig flaky = config;
  flaky.misread_probability = 0.1;
  Rng rng2(7);
  MeterArray flaky_logical(1, 3, rng2);
  int good = 0;
  const int trials = 500;
  for (int i = 0; i < trials; ++i) {
    Watts reading;
    ASSERT_TRUE(flaky_logical.Read(flaky, 0, Seconds(static_cast<double>(i)),
                                   KiloWatts(100.0), reading));
    if (std::abs(reading.kilowatts() - 100.0) < 10.0)
      ++good;
  }
  EXPECT_GT(good, trials * 9 / 10);
}

TEST(LogicalMeterTest, ToleratesOneFailedMeter)
{
  Rng rng(8);
  MeterArray logical(1, 3, rng);
  logical.meter(0, 1).SetFailed(true);
  Watts reading;
  ASSERT_TRUE(
      logical.Read(MeterConfig{}, 0, Seconds(0.0), KiloWatts(100.0), reading));
  EXPECT_NEAR(reading.kilowatts(), 100.0, 5.0);
}

TEST(LogicalMeterTest, LosesQuorumWithTwoFailedMeters)
{
  Rng rng(9);
  MeterArray logical(1, 3, rng);
  logical.meter(0, 0).SetFailed(true);
  logical.meter(0, 2).SetFailed(true);
  Watts reading(-1.0);
  EXPECT_FALSE(
      logical.Read(MeterConfig{}, 0, Seconds(0.0), KiloWatts(100.0), reading));
  EXPECT_EQ(reading.value(), -1.0);  // left alone without quorum
}

TEST(LogicalMeterTest, DevicesReadThroughTheirOwnMeters)
{
  // Device-major layout: failing device 1's meters must not touch
  // devices 0 and 2, and out-of-range meters are rejected.
  Rng rng(10);
  MeterArray meters(3, 3, rng);
  EXPECT_EQ(meters.devices(), 3);
  EXPECT_EQ(meters.redundancy(), 3);
  meters.meter(1, 0).SetFailed(true);
  meters.meter(1, 2).SetFailed(true);
  const MeterConfig config;
  Watts reading;
  EXPECT_TRUE(meters.Read(config, 0, Seconds(0.0), KiloWatts(1.0), reading));
  EXPECT_FALSE(meters.Read(config, 1, Seconds(0.0), KiloWatts(1.0), reading));
  EXPECT_TRUE(meters.Read(config, 2, Seconds(0.0), KiloWatts(1.0), reading));
  EXPECT_THROW(meters.meter(3, 0), ConfigError);
  EXPECT_THROW(meters.meter(0, 3), ConfigError);
  Rng other(11);
  EXPECT_THROW(MeterArray(1, 0, other), ConfigError);
  EXPECT_THROW(MeterArray(1, kMaxMetersPerDevice + 1, other), ConfigError);
}

/** The bit pattern of @p value, so EXPECT_EQ compares doubles bitwise. */
std::uint64_t
Bits(double value)
{
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

TEST(LogicalMeterTest, ConsensusMatchesSortedMedianReference)
{
  // The consensus read against the definition: sample every physical
  // meter of the device once, sort the survivors, take the median (the
  // mean of the middle two for an even count), no reading below quorum.
  // The reference runs on a twin array built from the same seed, with
  // the same random faults — failed, stuck and drifting meters — and
  // the drift passed to Sample by hand.
  MeterConfig config;
  config.noise_fraction = 0.02;
  config.refresh_interval = Seconds(1.0);
  config.misread_probability = 0.2;
  constexpr int kDevices = 6;
  Rng faults(2021);
  int compared = 0;
  int quorum_lost = 0;
  for (int m = 1; m <= 5; ++m) {
    Rng seed_a(100 + static_cast<std::uint64_t>(m));
    Rng seed_b(100 + static_cast<std::uint64_t>(m));
    MeterArray meters(kDevices, m, seed_a);
    MeterArray twin(kDevices, m, seed_b);
    std::vector<std::optional<MeterDrift>> drifts(
        static_cast<std::size_t>(kDevices * m));
    for (int step = 0; step < 60; ++step) {
      const Seconds now(0.45 * step);
      if (step % 6 == 0) {
        // A fresh random fault pattern, applied to both arrays.
        for (int d = 0; d < kDevices; ++d) {
          for (int i = 0; i < m; ++i) {
            const bool failed = faults.Bernoulli(0.25);
            const bool stuck = faults.Bernoulli(0.2);
            meters.meter(d, i).SetFailed(failed);
            twin.meter(d, i).SetFailed(failed);
            meters.meter(d, i).SetStuck(stuck);
            twin.meter(d, i).SetStuck(stuck);
            auto& drift = drifts[static_cast<std::size_t>(d * m + i)];
            if (faults.Bernoulli(0.3)) {
              const double rate = faults.Uniform(-0.02, 0.02);
              meters.SetDrift(d, i, rate, now);
              drift = MeterDrift{rate, now};
            } else if (faults.Bernoulli(0.5)) {
              meters.ClearDrift(d, i);
              drift.reset();
            }
          }
        }
      }
      for (int d = 0; d < kDevices; ++d) {
        const Watts truth(faults.Uniform(1e3, 2e4));
        std::vector<double> survivors;
        for (int i = 0; i < m; ++i) {
          const auto& drift = drifts[static_cast<std::size_t>(d * m + i)];
          if (const auto reading = twin.meter(d, i).Sample(
                  config, now, truth, drift ? &*drift : nullptr))
            survivors.push_back(reading->value());
        }
        Watts consensus;
        const bool read = meters.Read(config, d, now, truth, consensus);
        const std::size_t quorum = m >= 2 ? 2 : 1;
        SCOPED_TRACE("m " + std::to_string(m) + ", step " +
                     std::to_string(step) + ", device " + std::to_string(d));
        if (survivors.size() < quorum) {
          EXPECT_FALSE(read);
          ++quorum_lost;
          continue;
        }
        std::sort(survivors.begin(), survivors.end());
        const std::size_t n = survivors.size();
        const double median =
            n % 2 == 1 ? survivors[n / 2]
                       : 0.5 * (survivors[n / 2 - 1] + survivors[n / 2]);
        ASSERT_TRUE(read);
        EXPECT_EQ(Bits(consensus.value()), Bits(median));
        ++compared;
      }
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(compared, 1000);
  EXPECT_GT(quorum_lost, 50);
}

TEST(LogicalMeterTest, ConsensusIsBitExactAgainstStandaloneMeters)
{
  // Three meters per device against stand-alone PhysicalMeters forked
  // from the same seed in the same (device-major) order, with frequent
  // misreads. For 100 steps the meters are noiseless and the truth is
  // constant, so survivors tie, and device 1's stuck first meter repeats
  // the truth. Device 2 runs on two meters for a stretch (the mean of
  // two) and on one inside it (no quorum).
  constexpr int kDevices = 4;
  constexpr int kRedundancy = 3;
  MeterConfig noisy;
  noisy.noise_fraction = 0.01;
  noisy.refresh_interval = Seconds(1.0);
  noisy.misread_probability = 0.3;
  MeterConfig noiseless = noisy;
  noiseless.noise_fraction = 0.0;

  Rng seed_a(4242);
  Rng seed_b(4242);
  MeterArray meters(kDevices, kRedundancy, seed_a);
  std::vector<PhysicalMeter> reference;
  for (int i = 0; i < kDevices * kRedundancy; ++i)
    reference.emplace_back(seed_b.Fork());
  const auto set_failed = [&](int device, int index, bool failed) {
    meters.meter(device, index).SetFailed(failed);
    reference[static_cast<std::size_t>(device * kRedundancy + index)]
        .SetFailed(failed);
  };
  const auto set_stuck = [&](int device, int index, bool stuck) {
    meters.meter(device, index).SetStuck(stuck);
    reference[static_cast<std::size_t>(device * kRedundancy + index)]
        .SetStuck(stuck);
  };

  Rng truths(99);
  int compared = 0;
  int ties = 0;
  int averaged = 0;
  int quorum_lost = 0;
  for (int step = 0; step < 600; ++step) {
    const Seconds now(0.6 * step);
    if (step == 100)
      set_failed(2, 1, true);
    if (step == 150)
      set_stuck(1, 0, true);
    if (step == 250)
      set_failed(2, 2, true);
    if (step == 300)
      set_failed(2, 2, false);
    if (step == 350)
      set_stuck(1, 0, false);
    if (step == 400)
      set_failed(2, 1, false);
    const bool flat = step >= 200 && step < 300;
    const MeterConfig& config = flat ? noiseless : noisy;
    for (int d = 0; d < kDevices; ++d) {
      const Watts truth(flat ? 5e3 + 1e3 * d : truths.Uniform(1e3, 2e4));
      std::vector<double> survivors;
      for (int i = 0; i < kRedundancy; ++i) {
        if (const auto reading =
                reference[static_cast<std::size_t>(d * kRedundancy + i)]
                    .Sample(config, now, truth))
          survivors.push_back(reading->value());
      }
      Watts consensus;
      const bool read = meters.Read(config, d, now, truth, consensus);
      SCOPED_TRACE("step " + std::to_string(step) + ", device " +
                   std::to_string(d));
      if (survivors.size() < 2) {
        EXPECT_FALSE(read);
        ++quorum_lost;
        continue;
      }
      std::sort(survivors.begin(), survivors.end());
      const std::size_t n = survivors.size();
      if (std::adjacent_find(survivors.begin(), survivors.end()) !=
          survivors.end())
        ++ties;
      if (n == 2)
        ++averaged;
      const double expected =
          n % 2 == 1 ? survivors[n / 2]
                     : 0.5 * (survivors[n / 2 - 1] + survivors[n / 2]);
      ASSERT_TRUE(read);
      EXPECT_EQ(Bits(consensus.value()), Bits(expected));
      ++compared;
    }
  }
  EXPECT_GT(compared, 2000);
  EXPECT_GT(ties, 100);
  EXPECT_GT(averaged, 100);
  EXPECT_EQ(quorum_lost, 50);
}

class PipelineTest : public ::testing::Test, public PowerSource {
 protected:
  PipelineTest()
  {
    config_.meter.refresh_interval = Seconds(0.5);
  }

  Watts
  CurrentPower(DeviceId device) const override
  {
    return device.kind == DeviceKind::kUps ? KiloWatts(1000.0)
                                           : KiloWatts(10.0 + device.index);
  }

  sim::EventQueue queue_;
  PipelineConfig config_;
};

TEST_F(PipelineTest, DeliversReadingsToSubscribers)
{
  TelemetryPipeline pipeline(queue_, *this, 4, 8, config_, 1);
  int ups_readings = 0;
  int rack_readings = 0;
  pipeline.Subscribe([&](const ReadingBatch& batch) {
    (batch.kind == DeviceKind::kUps ? ups_readings : rack_readings) +=
        static_cast<int>(batch.readings.size());
    EXPECT_GE(batch.DataLatency().value(), 0.0);
  });
  pipeline.Start();
  queue_.RunUntil(Seconds(10.0));
  EXPECT_GT(ups_readings, 0);
  EXPECT_GT(rack_readings, 0);
  EXPECT_GT(pipeline.delivered_count(), 0u);
}

TEST_F(PipelineTest, DataLatencyIsUnderOneSecond)
{
  // The paper's observed pipeline latency is < 1 s.
  TelemetryPipeline pipeline(queue_, *this, 4, 16, config_, 2);
  pipeline.Subscribe([](const ReadingBatch&) {});
  pipeline.Start();
  queue_.RunUntil(Seconds(30.0));
  ASSERT_GT(pipeline.latency().count(), 0u);
  EXPECT_LT(pipeline.latency().Percentile(100.0), 1.0);
}

TEST_F(PipelineTest, SurvivesSinglePollerFailure)
{
  TelemetryPipeline pipeline(queue_, *this, 2, 2, config_, 3);
  std::size_t readings = 0;
  pipeline.Subscribe([&](const ReadingBatch& batch) {
    readings += batch.readings.size();
    EXPECT_EQ(batch.poller, 1);  // poller 0 is down
  });
  pipeline.Start();
  pipeline.SetPollerFailed(0, true);
  queue_.RunUntil(Seconds(10.0));
  EXPECT_GT(readings, 0u);
}

TEST_F(PipelineTest, SurvivesSingleBusFailure)
{
  TelemetryPipeline pipeline(queue_, *this, 2, 2, config_, 4);
  std::size_t readings = 0;
  pipeline.Subscribe([&](const ReadingBatch& batch) {
    readings += batch.readings.size();
    EXPECT_EQ(batch.bus, 1);  // bus 0 is down
  });
  pipeline.SetBusFailed(0, true);
  pipeline.Start();
  queue_.RunUntil(Seconds(10.0));
  EXPECT_GT(readings, 0u);
}

TEST_F(PipelineTest, AllPollersDownStopsDelivery)
{
  TelemetryPipeline pipeline(queue_, *this, 2, 2, config_, 5);
  std::size_t readings = 0;
  pipeline.Subscribe(
      [&](const ReadingBatch& batch) { readings += batch.readings.size(); });
  pipeline.SetPollerFailed(0, true);
  pipeline.SetPollerFailed(1, true);
  pipeline.Start();
  queue_.RunUntil(Seconds(10.0));
  EXPECT_EQ(readings, 0u);
}

TEST_F(PipelineTest, MeterFailureDropsOnlyThatDevice)
{
  TelemetryPipeline pipeline(queue_, *this, 2, 2, config_, 6);
  std::size_t ups0 = 0;
  std::size_t ups1 = 0;
  pipeline.Subscribe([&](const ReadingBatch& batch) {
    if (batch.kind != DeviceKind::kUps)
      return;
    for (const BatchReading& r : batch.readings)
      ++(r.index == 0 ? ups0 : ups1);
  });
  // Take out two of UPS 0's three meters: quorum lost for UPS 0 only.
  pipeline.SetMeterFailed(DeviceId{DeviceKind::kUps, 0}, 0, true);
  pipeline.SetMeterFailed(DeviceId{DeviceKind::kUps, 0}, 1, true);
  pipeline.Start();
  queue_.RunUntil(Seconds(10.0));
  EXPECT_EQ(ups0, 0u);
  EXPECT_GT(ups1, 0u);
}

TEST_F(PipelineTest, RedundantDeliveryProducesDuplicates)
{
  // 2 pollers x 2 buses = up to 4 copies of each device sample window.
  TelemetryPipeline pipeline(queue_, *this, 1, 0, config_, 7);
  std::size_t readings = 0;
  pipeline.Subscribe(
      [&](const ReadingBatch& batch) { readings += batch.readings.size(); });
  pipeline.Start();
  queue_.RunUntil(Seconds(config_.ups_poll_period.value() * 4));
  // More readings than polling rounds of a single poller/bus pair.
  EXPECT_GT(readings, 4u);
}

TEST_F(PipelineTest, StopHaltsPolling)
{
  TelemetryPipeline pipeline(queue_, *this, 2, 2, config_, 8);
  pipeline.Subscribe([](const ReadingBatch&) {});
  pipeline.Start();
  queue_.RunUntil(Seconds(5.0));
  const std::size_t at_stop = pipeline.delivered_count();
  EXPECT_GT(at_stop, 0u);
  pipeline.Stop();
  queue_.RunUntil(Seconds(30.0));
  // In-flight deliveries may land, but no new polls happen.
  EXPECT_LE(pipeline.delivered_count(), at_stop + 64);
}

TEST_F(PipelineTest, RejectsBadConfig)
{
  PipelineConfig bad = config_;
  bad.num_pollers = 0;
  EXPECT_THROW(TelemetryPipeline(queue_, *this, 1, 1, bad, 9), ConfigError);
  bad = config_;
  bad.ups_poll_period = Seconds(0.0);
  EXPECT_THROW(TelemetryPipeline(queue_, *this, 1, 1, bad, 9), ConfigError);
}

TEST_F(PipelineTest, RejectsNonFiniteConfigAtConstruction)
{
  // An infinite poll period used to pass construction and throw only at
  // the first poll tick, mid-run, with the event queue's generic message.
  const auto error_of = [this](const PipelineConfig& bad) {
    return ConfigErrorOf(
        [&] { TelemetryPipeline(queue_, *this, 1, 1, bad, 9); });
  };
  PipelineConfig bad = config_;
  bad.ups_poll_period = Seconds(INFINITY);
  EXPECT_NE(error_of(bad).find("ups_poll_period"), std::string::npos);
  bad = config_;
  bad.rack_poll_period = Seconds(INFINITY);
  EXPECT_NE(error_of(bad).find("rack_poll_period"), std::string::npos);
  bad = config_;
  bad.rack_poll_period = Seconds(NAN);
  EXPECT_NE(error_of(bad).find("rack_poll_period"), std::string::npos);
  bad = config_;
  bad.meter.noise_fraction = INFINITY;
  EXPECT_NE(error_of(bad).find("noise_fraction"), std::string::npos);
  bad = config_;
  bad.meter.refresh_interval = Seconds(INFINITY);
  EXPECT_NE(error_of(bad).find("refresh_interval"), std::string::npos);
}

TEST_F(PipelineTest, RackPollGroupsMustCoverEveryRackExactlyOnce)
{
  TelemetryPipeline pipeline(queue_, *this, 1, 6, config_, 10);
  // Out-of-range rack id.
  EXPECT_THROW(pipeline.SetRackPollGroups({{0, 1, 2}, {3, 4, 6}}),
               ConfigError);
  // Duplicate rack.
  EXPECT_THROW(pipeline.SetRackPollGroups({{0, 1, 2}, {2, 3, 4, 5}}),
               ConfigError);
  // Missing rack.
  EXPECT_THROW(pipeline.SetRackPollGroups({{0, 1, 2}, {3, 4}}), ConfigError);
  // Exact cover in any order, with empty groups dropped, is fine.
  EXPECT_NO_THROW(pipeline.SetRackPollGroups({{5, 0}, {}, {2, 4}, {1, 3}}));
  // A single group is one room-sized batch in the given visit order.
  EXPECT_NO_THROW(pipeline.SetRackPollGroups({{3, 1, 4, 0, 5, 2}}));
}

TEST_F(PipelineTest, GroupedPollingDeliversIdenticalReadings)
{
  // Splitting a rack tick into per-group batches must not change the
  // delivered readings in any way — same values, same timestamps, same
  // order — because all of a tick's batches share the per-bus delivery
  // delays. Only the event-queue granularity differs.
  struct Delivered {
    double now;
    int index;
    double value;
    double sampled_at;
    int poller;
    int bus;
  };
  const auto run = [this](const std::vector<std::vector<int>>* groups) {
    sim::EventQueue queue;
    TelemetryPipeline pipeline(queue, *this, 2, 8, config_, 11);
    if (groups != nullptr)
      pipeline.SetRackPollGroups(*groups);
    std::vector<Delivered> log;
    pipeline.Subscribe([&](const ReadingBatch& batch) {
      if (batch.kind != DeviceKind::kRack)
        return;
      for (const BatchReading& r : batch.readings)
        log.push_back({queue.Now().value(), r.index, r.value.value(),
                       batch.sampled_at.value(), batch.poller, batch.bus});
    });
    pipeline.Start();
    queue.RunUntil(Seconds(20.0));
    return log;
  };

  const std::vector<Delivered> single = run(nullptr);
  const std::vector<std::vector<int>> groups = {{0, 1, 2}, {3}, {4, 5, 6, 7}};
  const std::vector<Delivered> grouped = run(&groups);

  ASSERT_GT(single.size(), 0u);
  ASSERT_EQ(single.size(), grouped.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].now, grouped[i].now) << "reading " << i;
    EXPECT_EQ(single[i].index, grouped[i].index) << "reading " << i;
    EXPECT_EQ(single[i].value, grouped[i].value) << "reading " << i;
    EXPECT_EQ(single[i].sampled_at, grouped[i].sampled_at) << "reading " << i;
    EXPECT_EQ(single[i].poller, grouped[i].poller) << "reading " << i;
    EXPECT_EQ(single[i].bus, grouped[i].bus) << "reading " << i;
  }
}

TEST_F(PipelineTest, SteadyStatePollingReusesReadingBatches)
{
  TelemetryPipeline pipeline(queue_, *this, 4, 32, config_, 12);
  pipeline.SetRackPollGroups({{0, 1, 2, 3, 4, 5, 6, 7},
                              {8, 9, 10, 11, 12, 13, 14, 15},
                              {16, 17, 18, 19, 20, 21, 22, 23},
                              {24, 25, 26, 27, 28, 29, 30, 31}});
  pipeline.Subscribe([](const ReadingBatch&) {});
  pipeline.Start();
  // Warm up the batch arena, then verify the free list recycles batches
  // for the rest of the run: the arena must track the in-flight
  // high-water mark (a rare phase alignment can add one or two), not
  // grow with the number of ticks.
  queue_.RunUntil(Seconds(30.0));
  const std::size_t warm = pipeline.batch_arena_size();
  ASSERT_GT(warm, 0u);
  const std::size_t delivered_warm = pipeline.delivered_count();
  queue_.RunUntil(Seconds(600.0));
  EXPECT_LE(pipeline.batch_arena_size(), warm + 2);
  // ~1900 further batch publications got recycled through the arena.
  EXPECT_GT(pipeline.delivered_count(), delivered_warm * 10);
}

}  // namespace
}  // namespace flex::telemetry
