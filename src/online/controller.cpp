#include "controller.hpp"

#include <memory>
#include <utility>

#include "common/error.hpp"
#include "obs/log.hpp"
#include "obs/profiler.hpp"

namespace flex::online {

using telemetry::DeviceKind;
using telemetry::DeviceReading;
using workload::Category;

namespace {

/**
 * Minimum time between decision waves. Telemetry lags enforcement, so
 * re-deciding on every reading would overcorrect heavily; the cooldown
 * gives actions time to land and show up in the data. Overcorrection
 * across waves (and across replicas) remains possible and safe.
 */
constexpr Seconds kActionCooldown = Seconds(4.0);

}  // namespace

FlexController::FlexController(sim::EventQueue& queue,
                               const power::RoomTopology& topology,
                               RackTable racks,
                               actuation::ActuationPlane& plane,
                               ImpactRegistry impact, ControllerConfig config,
                               int replica_id, NotificationBus* notifications)
    : queue_(queue),
      topology_(topology),
      racks_(std::move(racks)),
      plane_(plane),
      impact_(std::move(impact)),
      config_(config),
      replica_id_(replica_id),
      notifications_(notifications),
      rack_forecasts_(0)
{
  FLEX_REQUIRE(racks_ != nullptr, "null rack table");
  FLEX_REQUIRE(config_.buffer >= Watts(0.0), "negative safety buffer");
  FLEX_REQUIRE(config_.release_headroom >= 0.0 &&
                   config_.release_headroom < 1.0,
               "release headroom must be in [0, 1)");
  ups_power_.assign(static_cast<std::size_t>(topology_.NumUpses()),
                    std::nullopt);
  rack_forecasts_ =
      RackPowerForecasterBank(static_cast<int>(racks_->size()));

  if (config_.obs != nullptr) {
    rack_forecasts_.Bind(config_.obs);
    obs::MetricsRegistry& metrics = config_.obs->metrics();
    overdraw_metric_ = &metrics.counter("controller.overdraw_detections");
    actions_metric_ = &metrics.counter("controller.actions_issued");
    releases_metric_ = &metrics.counter("controller.releases");
    enforce_latency_metric_ =
        &metrics.histogram("controller.enforce_latency_s");
  }
}

void
FlexController::OnReading(const DeviceReading& reading)
{
  if (suspended_)
    return;  // crashed replica: readings are lost, not queued
  if (reading.device.kind == DeviceKind::kUps) {
    if (reading.device.index < 0 ||
        reading.device.index >= topology_.NumUpses())
      return;  // not our room
    ups_power_[static_cast<std::size_t>(reading.device.index)] =
        reading.value;
    EvaluateOverdraw(reading);
    MaybeRelease();
  } else {
    if (reading.device.index < 0 ||
        reading.device.index >= rack_forecasts_.num_racks())
      return;
    rack_forecasts_.Observe(reading.device.index, reading.sampled_at,
                            reading.value);
  }
}

void
FlexController::OnRackBatch(const telemetry::ReadingBatch& batch)
{
  FLEX_REQUIRE(batch.kind == DeviceKind::kRack,
               "OnRackBatch takes rack batches only");
  if (suspended_)
    return;  // crashed replica: readings are lost, not queued
  rack_forecasts_.ObserveBatch(batch.sampled_at, batch.readings);
}

DecisionInput
FlexController::BuildDecisionInput() const
{
  DecisionInput input;
  input.buffer = config_.buffer;
  input.impact = impact_;
  for (power::UpsId u = 0; u < topology_.NumUpses(); ++u) {
    input.ups_power.push_back(
        ups_power_[static_cast<std::size_t>(u)].value_or(Watts(0.0)));
    input.ups_limit.push_back(topology_.UpsCapacity(u));
  }
  for (power::PduPairId p = 0; p < topology_.NumPduPairs(); ++p)
    input.pdu_to_ups.push_back(topology_.UpsesOfPduPair(p));
  const std::vector<ManagedRack>& racks = *racks_;
  for (std::size_t i = 0; i < racks.size(); ++i) {
    const ManagedRack& rack = racks[i];
    const int rack_id = static_cast<int>(i);
    RackSnapshot snapshot;
    snapshot.rack_id = rack_id;
    snapshot.workload = rack.workload;
    snapshot.category = rack.category;
    snapshot.pdu_pair = rack.pdu_pair;
    // A Holt level+trend forecast projected to the decision instant
    // (raw readings are ~2 s stale by then; Section IV-D); fall back to
    // the conservative allocation, which only ever over-corrects.
    snapshot.current_power =
        rack_forecasts_.Forecast(rack_id, queue_.Now())
            .value_or(rack.allocated);
    snapshot.flex_power = rack.flex_power;
    input.racks.push_back(std::move(snapshot));
  }
  input.already_acted.assign(acted_racks_.begin(), acted_racks_.end());
  return input;
}

void
FlexController::EvaluateOverdraw(const DeviceReading& reading)
{
  bool overdraw = false;
  int overloaded_ups = -1;
  for (power::UpsId u = 0; u < topology_.NumUpses(); ++u) {
    const auto& power = ups_power_[static_cast<std::size_t>(u)];
    if (power && *power > topology_.UpsCapacity(u) - config_.buffer) {
      overdraw = true;
      if (overloaded_ups < 0)
        overloaded_ups = u;
    }
  }
  if (!overdraw)
    return;

  healthy_since_ = Seconds(-1.0);  // definitely not healthy
  const Seconds detected_at = queue_.Now();
  if (!episode_active_) {
    episode_active_ = true;
    ++stats_.overdraw_events;
    if (overdraw_metric_ != nullptr)
      overdraw_metric_->Increment();
    if (config_.obs != nullptr) {
      config_.obs->tracer().OnDetection(replica_id_, overloaded_ups,
                                        reading.sampled_at,
                                        reading.delivered_at, detected_at);
    }
    FLEX_LOG(obs::LogLevel::kInfo, "controller",
             "replica %d detected overdraw on UPS %d", replica_id_,
             overloaded_ups);
  }
  if ((detected_at - last_enforce_).value() < kActionCooldown.value())
    return;  // let in-flight actions land and surface in telemetry

  DecisionResult decision;
  {
    FLEX_PROFILE_PHASE("controller.decide");
    decision = DecideActions(BuildDecisionInput());
  }
  if (!decision.actions.empty()) {
    last_enforce_ = detected_at;
    if (config_.obs != nullptr) {
      config_.obs->tracer().OnDecision(
          replica_id_, static_cast<int>(decision.actions.size()),
          detected_at);
    }
    Enforce(decision.actions, detected_at);
  }
}

const ManagedRack&
FlexController::RackOf(const Action& action) const
{
  return (*racks_)[static_cast<std::size_t>(action.rack_id)];
}

void
FlexController::Enforce(const std::vector<Action>& actions,
                        Seconds detected_at)
{
  // Track the slowest completion of this wave for latency reporting.
  auto pending = std::make_shared<int>(static_cast<int>(actions.size()));
  auto wave_done = [this, detected_at] {
    const double latency = (queue_.Now() - detected_at).value();
    stats_.enforcement_latencies.push_back(latency);
    if (enforce_latency_metric_ != nullptr)
      enforce_latency_metric_->Observe(latency);
    if (config_.obs != nullptr)
      config_.obs->tracer().OnEnforced(replica_id_, queue_.Now());
  };
  auto record_completion = [this, pending, wave_done](bool ok) {
    if (!ok)
      ++stats_.failed_commands;
    if (--*pending == 0)
      wave_done();
  };

  // Notify software-redundant workloads so they scale out in another AZ
  // instead of auto-recovering against us (Section IV-D).
  if (notifications_ != nullptr) {
    std::map<std::string, std::vector<int>> shutdowns_by_workload;
    for (const Action& action : actions) {
      if (action.type != ActionType::kShutdown ||
          acted_racks_.count(action.rack_id))
        continue;
      shutdowns_by_workload[RackOf(action).workload].push_back(
          action.rack_id);
    }
    for (auto& [workload, rack_ids] : shutdowns_by_workload) {
      PowerEmergencyNotification notification;
      notification.workload = workload;
      notification.racks = std::move(rack_ids);
      notification.raised_at = queue_.Now();
      notification.controller_replica = replica_id_;
      notifications_->Publish(notification);
      notified_workloads_.insert(workload);
    }
  }

  for (const Action& action : actions) {
    if (acted_racks_.count(action.rack_id)) {
      // Another telemetry wave raced us; command is idempotent anyway,
      // but skip to avoid inflating stats.
      if (--*pending == 0)
        wave_done();
      continue;
    }
    acted_racks_.insert(action.rack_id);
    action_types_[action.rack_id] = action.type;
    if (actions_metric_ != nullptr)
      actions_metric_->Increment();
    actuation::RackManager& rm = plane_.rack(action.rack_id);
    if (action.type == ActionType::kShutdown) {
      ++stats_.shutdown_commands;
      rm.Shutdown(record_completion);
    } else {
      ++stats_.throttle_commands;
      rm.Throttle(RackOf(action).flex_power, record_completion);
    }
  }
}

void
FlexController::MaybeRelease()
{
  if (!episode_active_)
    return;
  // Healthy = every UPS reports power, none is near its limit, and the
  // room would fit with the configured headroom even after releasing.
  bool healthy = true;
  for (power::UpsId u = 0; u < topology_.NumUpses(); ++u) {
    const auto& power = ups_power_[static_cast<std::size_t>(u)];
    if (!power || *power <= Watts(1.0) ||
        *power > topology_.UpsCapacity(u) * (1.0 - config_.release_headroom)) {
      healthy = false;
      break;
    }
  }
  if (!healthy) {
    healthy_since_ = Seconds(-1.0);
    return;
  }
  if (healthy_since_.value() < 0.0) {
    healthy_since_ = queue_.Now();
    return;
  }
  if ((queue_.Now() - healthy_since_).value() <
      config_.release_delay.value())
    return;
  ReleaseAll();
}

void
FlexController::ReleaseAll()
{
  for (const auto& [rack_id, type] : action_types_) {
    actuation::RackManager& rm = plane_.rack(rack_id);
    if (type == ActionType::kShutdown) {
      ++stats_.restore_commands;
      rm.Restore([this](bool ok) {
        if (!ok)
          ++stats_.failed_commands;
      });
    } else {
      ++stats_.uncap_commands;
      rm.RemoveCap([this](bool ok) {
        if (!ok)
          ++stats_.failed_commands;
      });
    }
  }
  if (notifications_ != nullptr) {
    for (const std::string& workload : notified_workloads_) {
      PowerEmergencyNotification all_clear;
      all_clear.workload = workload;
      all_clear.raised_at = queue_.Now();
      all_clear.controller_replica = replica_id_;
      all_clear.cleared = true;
      notifications_->Publish(all_clear);
    }
    notified_workloads_.clear();
  }
  acted_racks_.clear();
  action_types_.clear();
  episode_active_ = false;
  healthy_since_ = Seconds(-1.0);
  if (releases_metric_ != nullptr)
    releases_metric_->Increment();
  if (config_.obs != nullptr)
    config_.obs->tracer().OnEpisodeClosed(replica_id_, queue_.Now());
  FLEX_LOG(obs::LogLevel::kInfo, "controller",
           "replica %d released all actions", replica_id_);
}

}  // namespace flex::online
