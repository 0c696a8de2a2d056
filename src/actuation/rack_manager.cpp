#include "rack_manager.hpp"

#include <utility>

#include "common/error.hpp"

namespace flex::actuation {

namespace {

/** Lognormal action latency: ~0.8 s median, ~2 s p99.9. */
constexpr double kLatencyLogMean = -0.25;   ///< mu of underlying normal (log s)
constexpr double kLatencyLogSigma = 0.28;   ///< sigma of underlying normal

}  // namespace

RackManager::RackManager(sim::EventQueue& queue, int rack_id,
                         RackManagerConfig config, Rng rng)
    : queue_(queue), rack_id_(rack_id), config_(config), rng_(rng)
{
  FLEX_REQUIRE(config_.unreachable_probability >= 0.0 &&
                   config_.unreachable_probability <= 1.0,
               "unreachable probability must be in [0, 1]");
  if (config_.obs != nullptr) {
    obs::MetricsRegistry& metrics = config_.obs->metrics();
    commands_metric_ = &metrics.counter("actuation.commands");
    failed_metric_ = &metrics.counter("actuation.failed_commands");
    dropped_metric_ = &metrics.counter("actuation.dropped_commands");
    latency_metric_ = &metrics.histogram("actuation.action_latency_s");
    recorder_ = &config_.obs->recorder();
  }
}

Seconds
RackManager::DrawLatency(Kind kind)
{
  const double base = rng_.LogNormal(kLatencyLogMean, kLatencyLogSigma);
  // Powering a rack back on includes boot time; caps/shutdowns are fast
  // out-of-band commands.
  const double scale = kind == Kind::kRestore ? 30.0 : 1.0;
  return Seconds(base * scale);
}

void
RackManager::SetExtraLatency(Seconds extra)
{
  FLEX_REQUIRE(extra.value() >= 0.0, "negative extra latency");
  extra_latency_ = extra;
}

void
RackManager::Execute(Kind kind, std::optional<Watts> cap, Completion done)
{
  FLEX_REQUIRE(static_cast<bool>(done), "null completion callback");
  if (commands_metric_ != nullptr)
    commands_metric_->Increment();
  if (recorder_ != nullptr)
    recorder_->Record(queue_.Now(), obs::RecordKind::kRackCommand, rack_id_,
                      static_cast<int>(kind),
                      cap.has_value() ? cap->value() : 0.0);
  if (unreachable_ || rng_.Bernoulli(config_.unreachable_probability)) {
    // The command is lost; report failure after a timeout-ish delay so
    // callers see realistic failure detection latency.
    if (dropped_metric_ != nullptr)
      dropped_metric_->Increment();
    queue_.Schedule(Seconds(2.0) + extra_latency_, [done] { done(false); });
    return;
  }
  const Seconds latency = DrawLatency(kind) + extra_latency_;
  const bool stale = firmware_stale_;
  queue_.Schedule(latency, [this, kind, cap, done, latency, stale] {
    action_latencies_.push_back(latency.value());
    if (latency_metric_ != nullptr)
      latency_metric_->Observe(latency.value());
    if (stale) {
      // Regression: the RM acknowledges but the action has no effect.
      if (failed_metric_ != nullptr)
        failed_metric_->Increment();
      done(false);
      return;
    }
    switch (kind) {
      case Kind::kThrottle:
        state_.power_cap = cap;
        break;
      case Kind::kShutdown:
        state_.powered_on = false;
        break;
      case Kind::kRemoveCap:
        state_.power_cap.reset();
        break;
      case Kind::kRestore:
        state_.powered_on = true;
        break;
    }
    if (state_listener_)
      state_listener_(rack_id_);
    done(true);
  });
}

void
RackManager::Throttle(Watts cap, Completion done)
{
  FLEX_REQUIRE(cap >= Watts(0.0), "negative power cap");
  Execute(Kind::kThrottle, cap, std::move(done));
}

void
RackManager::Shutdown(Completion done)
{
  Execute(Kind::kShutdown, std::nullopt, std::move(done));
}

void
RackManager::RemoveCap(Completion done)
{
  Execute(Kind::kRemoveCap, std::nullopt, std::move(done));
}

void
RackManager::Restore(Completion done)
{
  Execute(Kind::kRestore, std::nullopt, std::move(done));
}

ActuationPlane::ActuationPlane(sim::EventQueue& queue, int num_racks,
                               RackManagerConfig config, std::uint64_t seed)
{
  FLEX_REQUIRE(num_racks >= 0, "negative rack count");
  Rng seed_rng(seed);
  racks_.reserve(static_cast<std::size_t>(num_racks));
  for (int i = 0; i < num_racks; ++i)
    racks_.emplace_back(queue, i, config, seed_rng.Fork());
}

RackManager&
ActuationPlane::rack(int rack_id)
{
  FLEX_REQUIRE(rack_id >= 0 && rack_id < num_racks(),
               "rack id out of range");
  return racks_[static_cast<std::size_t>(rack_id)];
}

const RackManager&
ActuationPlane::rack(int rack_id) const
{
  FLEX_REQUIRE(rack_id >= 0 && rack_id < num_racks(),
               "rack id out of range");
  return racks_[static_cast<std::size_t>(rack_id)];
}

void
ActuationPlane::SetStateListener(RackManager::StateListener listener)
{
  for (RackManager& rack : racks_)
    rack.SetStateListener(listener);
}

std::vector<double>
ActuationPlane::AllActionLatencies() const
{
  std::vector<double> all;
  for (const RackManager& rack : racks_) {
    all.insert(all.end(), rack.action_latencies().begin(),
               rack.action_latencies().end());
  }
  return all;
}

}  // namespace flex::actuation
