#include "pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace flex::telemetry {

namespace {

/** Stagger between pollers so they do not sample in lockstep. */
constexpr Seconds kPollerStagger = Seconds(0.4);
/** Meter-to-poller network latency. */
constexpr Seconds kNetworkLatency = Milliseconds(60.0);
/** Pub/sub delivery latency (poller to subscriber). */
constexpr Seconds kBusLatency = Milliseconds(250.0);
/**
 * Uniform jitter added on top of each delivery (network queueing and
 * pub/sub batching variability; the paper's "windowing delay").
 */
constexpr Seconds kDeliveryJitter = Milliseconds(400.0);

}  // namespace

TelemetryPipeline::TelemetryPipeline(sim::EventQueue& queue,
                                     const PowerSource& source, int num_ups,
                                     int num_racks, PipelineConfig config,
                                     std::uint64_t seed)
    : queue_(queue),
      source_(source),
      config_(config),
      num_ups_(num_ups),
      num_racks_(num_racks)
{
  FLEX_REQUIRE(num_ups_ >= 0 && num_racks_ >= 0, "negative device count");
  FLEX_REQUIRE(config_.num_pollers >= 1, "need at least one poller");
  FLEX_REQUIRE(config_.num_buses >= 1, "need at least one bus");
  // Checked here, not at the first poll tick: an infinite period would
  // otherwise pass construction and throw mid-run.
  FLEX_REQUIRE(std::isfinite(config_.ups_poll_period.value()) &&
                   config_.ups_poll_period.value() > 0.0,
               "ups_poll_period must be finite and positive");
  FLEX_REQUIRE(std::isfinite(config_.rack_poll_period.value()) &&
                   config_.rack_poll_period.value() > 0.0,
               "rack_poll_period must be finite and positive");
  ValidateMeterConfig(config_.meter);

  Rng seed_rng(seed);
  jitter_rng_ = seed_rng.Fork();
  meters_ = MeterArray(num_ups_ + num_racks_, config_.meters_per_device,
                       seed_rng);
  poller_failed_.assign(static_cast<std::size_t>(config_.num_pollers), false);
  bus_failed_.assign(static_cast<std::size_t>(config_.num_buses), false);
  bus_extra_delay_.assign(static_cast<std::size_t>(config_.num_buses),
                          Seconds(0.0));
  bus_duplicate_.assign(static_cast<std::size_t>(config_.num_buses), false);

  if (config_.obs != nullptr) {
    obs::MetricsRegistry& metrics = config_.obs->metrics();
    readings_delivered_metric_ = &metrics.counter("pipeline.readings_delivered");
    no_quorum_metric_ = &metrics.counter("pipeline.meter_no_quorum");
    poller_skipped_metric_ = &metrics.counter("pipeline.poller_skipped_ticks");
    publish_lag_metric_ = &metrics.histogram("pipeline.publish_lag_s");
    recorder_ = &config_.obs->recorder();
  }
}

void
TelemetryPipeline::Subscribe(Subscriber subscriber)
{
  FLEX_REQUIRE(static_cast<bool>(subscriber), "null subscriber");
  subscribers_.push_back(std::move(subscriber));
}

void
TelemetryPipeline::SetRackPollGroups(std::vector<std::vector<int>> groups)
{
  std::size_t covered = 0;
  std::vector<char> seen(static_cast<std::size_t>(num_racks_), 0);
  for (const std::vector<int>& group : groups) {
    for (const int rack : group) {
      FLEX_REQUIRE(rack >= 0 && rack < num_racks_, "rack index out of range");
      FLEX_REQUIRE(!seen[static_cast<std::size_t>(rack)],
                   "duplicate rack in poll groups");
      seen[static_cast<std::size_t>(rack)] = 1;
      ++covered;
    }
  }
  FLEX_REQUIRE(covered == static_cast<std::size_t>(num_racks_),
               "poll groups must cover every rack exactly once");
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [](const std::vector<int>& g) {
                                return g.empty();
                              }),
               groups.end());
  rack_poll_groups_ = std::move(groups);
}

void
TelemetryPipeline::Start()
{
  FLEX_REQUIRE(!running_, "pipeline already started");
  running_ = true;
  for (int poller = 0; poller < config_.num_pollers; ++poller) {
    const Seconds stagger = kPollerStagger * static_cast<double>(poller);
    // UPS schedule.
    queue_.Schedule(stagger, [this, poller] {
      if (!running_)
        return;
      PollerTick(poller, DeviceKind::kUps);
      queue_.SchedulePeriodic(config_.ups_poll_period, [this, poller] {
        if (!running_)
          return false;
        PollerTick(poller, DeviceKind::kUps);
        return true;
      });
    });
    // Rack schedule.
    queue_.Schedule(stagger, [this, poller] {
      if (!running_)
        return;
      PollerTick(poller, DeviceKind::kRack);
      queue_.SchedulePeriodic(config_.rack_poll_period, [this, poller] {
        if (!running_)
          return false;
        PollerTick(poller, DeviceKind::kRack);
        return true;
      });
    });
  }
}

void
TelemetryPipeline::Stop()
{
  running_ = false;
}

int
TelemetryPipeline::MeterDevice(DeviceId device) const
{
  if (device.kind == DeviceKind::kUps) {
    FLEX_REQUIRE(device.index >= 0 && device.index < num_ups_,
                 "UPS index out of range");
    return device.index;
  }
  FLEX_REQUIRE(device.index >= 0 && device.index < num_racks_,
               "rack index out of range");
  return num_ups_ + device.index;
}

void
TelemetryPipeline::SetMeterFailed(DeviceId device, int meter_index,
                                  bool failed)
{
  meters_.meter(MeterDevice(device), meter_index).SetFailed(failed);
}

void
TelemetryPipeline::SetMeterStuck(DeviceId device, int meter_index,
                                 bool stuck)
{
  meters_.meter(MeterDevice(device), meter_index).SetStuck(stuck);
}

void
TelemetryPipeline::SetMeterDrift(DeviceId device, int meter_index,
                                 double rate_per_second)
{
  meters_.SetDrift(MeterDevice(device), meter_index, rate_per_second,
                   queue_.Now());
}

void
TelemetryPipeline::ClearMeterDrift(DeviceId device, int meter_index)
{
  meters_.ClearDrift(MeterDevice(device), meter_index);
}

void
TelemetryPipeline::SetPollerFailed(int poller, bool failed)
{
  FLEX_REQUIRE(poller >= 0 && poller < config_.num_pollers,
               "poller index out of range");
  poller_failed_[static_cast<std::size_t>(poller)] = failed;
}

void
TelemetryPipeline::SetBusFailed(int bus, bool failed)
{
  FLEX_REQUIRE(bus >= 0 && bus < config_.num_buses, "bus index out of range");
  bus_failed_[static_cast<std::size_t>(bus)] = failed;
}

void
TelemetryPipeline::SetBusLag(int bus, Seconds extra)
{
  FLEX_REQUIRE(bus >= 0 && bus < config_.num_buses, "bus index out of range");
  FLEX_REQUIRE(extra.value() >= 0.0, "negative bus lag");
  bus_extra_delay_[static_cast<std::size_t>(bus)] = extra;
}

void
TelemetryPipeline::SetBusDuplicate(int bus, bool duplicate)
{
  FLEX_REQUIRE(bus >= 0 && bus < config_.num_buses, "bus index out of range");
  bus_duplicate_[static_cast<std::size_t>(bus)] = duplicate;
}

std::uint32_t
TelemetryPipeline::AcquireBatch(DeviceKind kind, int poller,
                                Seconds sampled_at)
{
  if (batch_free_.empty()) {
    batch_free_.push_back(static_cast<std::uint32_t>(batch_arena_.size()));
    batch_arena_.push_back(std::make_unique<Batch>());
  }
  const std::uint32_t index = batch_free_.back();
  batch_free_.pop_back();
  Batch& batch = *batch_arena_[index];
  batch.kind = kind;
  batch.poller = poller;
  batch.sampled_at = sampled_at;
  batch.readings.clear();
  batch.refs = 0;
  return index;
}

void
TelemetryPipeline::DeliverBatch(std::uint64_t key)
{
  const auto index = static_cast<std::uint32_t>(key >> 32);
  const auto bus = static_cast<int>(key & 0xffffffffu);
  Batch& batch = *batch_arena_[index];
  ReadingBatch view;
  view.kind = batch.kind;
  view.poller = batch.poller;
  view.bus = bus;
  view.sampled_at = batch.sampled_at;
  view.delivered_at = queue_.Now();
  view.readings = batch.readings;
  // One poll instant, one delivery instant: a batch is one latency run.
  const std::size_t n = batch.readings.size();
  const double latency = view.DataLatency().value();
  latency_.Add(latency, n);
  delivered_count_ += n;
  if (readings_delivered_metric_ != nullptr) {
    readings_delivered_metric_->Increment(static_cast<double>(n));
    publish_lag_metric_->ObserveRepeated(latency, n);
  }
  if (batch.kind == DeviceKind::kRack) {
    for (const Subscriber& subscriber : subscribers_)
      subscriber(view);
  } else {
    // UPS readings go one at a time: one can start a decision, and its
    // records, commands and notifications follow the reading's own
    // flight-recorder entry and precede the next reading's. (Only UPS
    // readings are recorded: rack readings arrive every tick per rack
    // and would flush the ring's useful window in seconds.)
    const std::span<const BatchReading> readings = batch.readings;
    for (std::size_t i = 0; i < n; ++i) {
      view.readings = readings.subspan(i, 1);
      if (recorder_ != nullptr)
        recorder_->Record(view.delivered_at, obs::RecordKind::kMeterSample,
                          readings[i].index, bus,
                          readings[i].value.value());
      for (const Subscriber& subscriber : subscribers_)
        subscriber(view);
    }
  }
  if (--batch.refs == 0)
    batch_free_.push_back(index);
}

void
TelemetryPipeline::PollerTick(int poller, DeviceKind kind)
{
  if (poller_failed_[static_cast<std::size_t>(poller)]) {
    if (poller_skipped_metric_ != nullptr)
      poller_skipped_metric_->Increment();
    return;
  }

  const int count = kind == DeviceKind::kUps ? num_ups_ : num_racks_;
  // Sampling happens after the meter-to-poller network hop. Ground truth
  // for the whole tick comes from one batch call: sources with aggregate
  // state answer it without a per-device scan.
  const Seconds sampled_at = queue_.Now();
  truth_scratch_.assign(static_cast<std::size_t>(count), Watts(0.0));
  source_.CurrentPowerBatch(kind, truth_scratch_);

  // Every batch published this tick shares the same per-bus delivery
  // delays, drawn up front (one jitter draw per live bus, plus the
  // redelivery draw on duplicating buses — the same draws the
  // single-batch path makes). Splitting the poll into per-group batches
  // therefore changes neither the jitter stream nor any delivered
  // reading's value, order, or timestamp.
  bus_delay_scratch_.assign(static_cast<std::size_t>(config_.num_buses),
                            Seconds(0.0));
  bus_redelivery_scratch_.assign(static_cast<std::size_t>(config_.num_buses),
                                 Seconds(0.0));
  for (int bus = 0; bus < config_.num_buses; ++bus) {
    if (bus_failed_[static_cast<std::size_t>(bus)])
      continue;
    const Seconds delay =
        kNetworkLatency + kBusLatency +
        bus_extra_delay_[static_cast<std::size_t>(bus)] +
        Seconds(jitter_rng_.Uniform(0.0, kDeliveryJitter.value()));
    bus_delay_scratch_[static_cast<std::size_t>(bus)] = delay;
    if (bus_duplicate_[static_cast<std::size_t>(bus)]) {
      bus_redelivery_scratch_[static_cast<std::size_t>(bus)] =
          delay +
          Seconds(jitter_rng_.Uniform(0.0, kDeliveryJitter.value()));
    }
  }

  // Reads device @p i into @p batch (quorum permitting).
  const int first_meter = kind == DeviceKind::kUps ? 0 : num_ups_;
  const auto read_into = [&](const int i, Batch& batch) {
    const Watts truth = truth_scratch_[static_cast<std::size_t>(i)];
    Watts reading;
    if (!meters_.Read(config_.meter, first_meter + i, sampled_at, truth,
                      reading)) {
      // No quorum: data missing for this device this tick.
      if (no_quorum_metric_ != nullptr)
        no_quorum_metric_->Increment();
      FLEX_LOG_LIMITED(no_quorum_log_, sampled_at, obs::LogLevel::kWarn,
                       "telemetry", "meter quorum lost on %s %d",
                       kind == DeviceKind::kUps ? "ups" : "rack", i);
      return;
    }
    batch.readings.push_back({i, reading});
  };

  // Publishes through every live bus; subscribers see duplicates, which
  // is intended (redundant delivery; controller actions are idempotent).
  // Deliveries share the pooled batch; the refcount returns it to the
  // free list after the last one lands.
  const auto publish = [&](std::uint32_t index) {
    Batch& batch = *batch_arena_[index];
    if (batch.readings.empty()) {
      batch_free_.push_back(index);
      return;
    }
    for (int bus = 0; bus < config_.num_buses; ++bus) {
      if (bus_failed_[static_cast<std::size_t>(bus)])
        continue;
      const std::uint64_t key = (std::uint64_t{index} << 32) |
                                static_cast<std::uint32_t>(bus);
      const auto deliver = [this, key] { DeliverBatch(key); };
      ++batch.refs;
      queue_.Schedule(bus_delay_scratch_[static_cast<std::size_t>(bus)],
                      deliver);
      if (bus_duplicate_[static_cast<std::size_t>(bus)]) {
        // At-least-once redelivery: the same batch lands a second time.
        ++batch.refs;
        queue_.Schedule(
            bus_redelivery_scratch_[static_cast<std::size_t>(bus)], deliver);
      }
    }
    if (batch.refs == 0)
      batch_free_.push_back(index);  // every bus was down: nothing in flight
  };

  if (kind == DeviceKind::kRack && !rack_poll_groups_.empty()) {
    // One batch — one delivery event per bus — per poll group.
    for (const std::vector<int>& group : rack_poll_groups_) {
      const std::uint32_t index = AcquireBatch(kind, poller, sampled_at);
      Batch& batch = *batch_arena_[index];
      batch.readings.reserve(group.size());
      for (const int i : group)
        read_into(i, batch);
      publish(index);
    }
    return;
  }
  const std::uint32_t index = AcquireBatch(kind, poller, sampled_at);
  Batch& batch = *batch_arena_[index];
  batch.readings.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    read_into(i, batch);
  publish(index);
}

}  // namespace flex::telemetry
