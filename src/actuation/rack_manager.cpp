#include "rack_manager.hpp"

#include <utility>

#include "common/error.hpp"

namespace flex::actuation {

namespace {

/** Lognormal action latency: ~0.8 s median, ~2 s p99.9. */
constexpr double kLatencyLogMean = -0.25;   ///< mu of underlying normal (log s)
constexpr double kLatencyLogSigma = 0.28;   ///< sigma of underlying normal

}  // namespace

RackManager::RackManager(ActuationPlane& plane, int rack_id, Rng rng)
    : plane_(&plane), rng_(rng), rack_id_(rack_id)
{
}

RackState
RackManager::state() const
{
  RackState state;
  state.powered_on = powered_on_;
  if (has_cap_)
    state.power_cap = cap_;
  return state;
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
  ActuationPlane& plane = *plane_;
  if (plane.commands_metric_ != nullptr)
    plane.commands_metric_->Increment();
  if (plane.recorder_ != nullptr)
    plane.recorder_->Record(plane.queue_.Now(), obs::RecordKind::kRackCommand,
                            rack_id_, static_cast<int>(kind),
                            cap.has_value() ? cap->value() : 0.0);
  if (unreachable_ ||
      rng_.Bernoulli(plane.config_.unreachable_probability)) {
    // The command is lost; report failure after a timeout-ish delay so
    // callers see realistic failure detection latency.
    if (plane.dropped_metric_ != nullptr)
      plane.dropped_metric_->Increment();
    plane.queue_.Schedule(Seconds(2.0) + extra_latency_,
                          [done] { done(false); });
    return;
  }
  const Seconds latency = DrawLatency(kind) + extra_latency_;
  const bool stale = firmware_stale_;
  plane.queue_.Schedule(latency, [this, kind, cap, done, latency, stale] {
    ActuationPlane& plane = *plane_;
    plane.action_latencies_.push_back(latency.value());
    if (plane.latency_metric_ != nullptr)
      plane.latency_metric_->Observe(latency.value());
    if (stale) {
      // Regression: the RM acknowledges but the action has no effect.
      if (plane.failed_metric_ != nullptr)
        plane.failed_metric_->Increment();
      done(false);
      return;
    }
    switch (kind) {
      case Kind::kThrottle:
        cap_ = *cap;
        has_cap_ = true;
        break;
      case Kind::kShutdown:
        powered_on_ = false;
        break;
      case Kind::kRemoveCap:
        has_cap_ = false;
        break;
      case Kind::kRestore:
        powered_on_ = true;
        break;
    }
    if (plane.state_listener_)
      plane.state_listener_(rack_id_);
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
    : queue_(queue), config_(config)
{
  FLEX_REQUIRE(num_racks >= 0, "negative rack count");
  FLEX_REQUIRE(config_.unreachable_probability >= 0.0 &&
                   config_.unreachable_probability <= 1.0,
               "rack_manager unreachable_probability must be in [0, 1]");
  if (config_.obs != nullptr) {
    obs::MetricsRegistry& metrics = config_.obs->metrics();
    commands_metric_ = &metrics.counter("actuation.commands");
    failed_metric_ = &metrics.counter("actuation.failed_commands");
    dropped_metric_ = &metrics.counter("actuation.dropped_commands");
    latency_metric_ = &metrics.histogram("actuation.action_latency_s");
    recorder_ = &config_.obs->recorder();
  }
  Rng seed_rng(seed);
  racks_.reserve(static_cast<std::size_t>(num_racks));
  for (int i = 0; i < num_racks; ++i)
    racks_.push_back(RackManager(*this, i, seed_rng.Fork()));
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

}  // namespace flex::actuation
