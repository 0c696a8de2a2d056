#include "room_emulation.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/http_export.hpp"
#include "obs/profiler.hpp"
#include "offline/flex_offline.hpp"
#include "power/loads.hpp"

namespace flex::emulation {

using power::PduPairId;
using power::UpsId;
using telemetry::DeviceId;
using telemetry::DeviceKind;
using workload::Category;

namespace {

/**
 * A rack's draw: its demand alloc * util * ramp held to its cap (a cap
 * below 0 is none), or nothing when it is off. The one power formula:
 * the per-step pass over every rack and the state listener both use it.
 */
double
RackPowerW(double alloc_w, double util, double ramp, double cap_w, bool on)
{
  const double demand = alloc_w * util * ramp;
  const double held = cap_w >= 0.0 && demand > cap_w ? cap_w : demand;
  return on ? held : 0.0;
}

/**
 * Most workload steps or samples one timeline may take. The longest
 * in-tree room takes 1,920 steps and 384 samples; a period so short
 * that end_at / period exceeds this would run for hours, or reserve
 * more samples than memory holds, long before it showed anything.
 */
constexpr double kMaxTimelineTicks = 1e6;

}  // namespace

RoomEmulation::RoomEmulation(EmulationConfig config)
    : config_(config),
      topology_(config.room),
      rng_(config.seed),
      agg_(topology_),
      watch_(topology_)
{
  FLEX_REQUIRE(config_.target_utilization > 0.0 &&
                   config_.target_utilization <= 1.0,
               "target utilization must be in (0, 1]");
  FLEX_REQUIRE(config_.flex_power_fraction > 0.0 &&
                   config_.flex_power_fraction <= 1.0,
               "flex_power_fraction must be in (0, 1]");
  const std::pair<const char*, Seconds> timeline[] = {
      {"setup_duration", config_.setup_duration},
      {"failover_at", config_.failover_at},
      {"restore_at", config_.restore_at},
      {"end_at", config_.end_at},
      {"workload_step", config_.workload_step},
      {"sample_period", config_.sample_period}};
  for (const auto& [field, value] : timeline) {
    FLEX_REQUIRE(std::isfinite(value.value()),
                 std::string(field) + " must be finite");
  }
  FLEX_REQUIRE(config_.setup_duration.value() >= 0.0,
               "setup_duration must not be negative");
  FLEX_REQUIRE(config_.failover_at.value() >= 0.0,
               "failover_at must not be negative");
  FLEX_REQUIRE(config_.end_at.value() > 0.0, "end_at must be positive");
  FLEX_REQUIRE(config_.failed_ups >= -1 &&
                   config_.failed_ups < topology_.NumUpses(),
               "failed UPS out of range");
  FLEX_REQUIRE(config_.failed_ups < 0 ||
                   (config_.failover_at < config_.restore_at &&
                    config_.restore_at < config_.end_at),
               "timeline must be ordered: failover < restore < end");
  FLEX_REQUIRE(config_.workload_step.value() > 0.0,
               "workload_step must be positive");
  FLEX_REQUIRE(config_.end_at / config_.workload_step <= kMaxTimelineTicks,
               "workload_step is too short: end_at / workload_step exceeds "
               "1e6 steps");
  FLEX_REQUIRE(config_.sample_period.value() > 0.0,
               "sample_period must be positive");
  FLEX_REQUIRE(config_.end_at / config_.sample_period <= kMaxTimelineTicks,
               "sample_period is too short: end_at / sample_period exceeds "
               "1e6 samples");
  FLEX_REQUIRE(config_.num_controllers >= 1,
               "num_controllers must be at least 1");
  FLEX_REQUIRE(config_.placement_solve_seconds > 0.0,
               "placement_solve_seconds must be positive");
  FLEX_REQUIRE(config_.placement_max_nodes >= 0,
               "placement_max_nodes must not be negative");
  if (config_.obs != nullptr) {
    config_.pipeline.obs = config_.obs;
    config_.rack_manager.obs = config_.obs;
    config_.controller.obs = config_.obs;
    notifications_.Bind(config_.obs);
  }
  BuildRoom();
  // Register with the watchdog only after BuildRoom: the placement
  // solve is a legitimately long silent phase, not a stall.
  if (config_.live != nullptr) {
    watchdog_id_ = config_.live->watchdog().RegisterThread(
        "emulation-seed-" + std::to_string(config_.seed));
  }
  if (config_.alerts.enabled) {
    ts_store_ = std::make_unique<obs::TimeSeriesStore>();
    alert_engine_ = std::make_unique<obs::AlertEngine>(
        ts_store_.get(), obs::BuiltinAlertRules());
    if (config_.obs != nullptr)
      alert_engine_->SetRecorder(&config_.obs->recorder());
  }
}

void
RoomEmulation::BuildRoom()
{
  // One workload per category (paper Section V-C): TeraSort-like batch
  // work is software-redundant; the TPC-E-like transactional benchmark
  // plays both the cap-able and the non-cap-able roles.
  const int total_slots = topology_.NumRows() * topology_.RacksPerRow();
  const Watts per_rack =
      topology_.TotalProvisionedPower() / static_cast<double>(total_slots);
  const int racks_per_deployment = topology_.RacksPerRow();
  const int num_deployments = total_slots / racks_per_deployment;

  std::vector<workload::Deployment> trace;
  for (int i = 0; i < num_deployments; ++i) {
    workload::Deployment d;
    d.id = i;
    d.num_racks = racks_per_deployment;
    d.power_per_rack = per_rack;
    const double fraction =
        (static_cast<double>(i) + 0.5) / static_cast<double>(num_deployments);
    if (fraction < 0.13) {
      d.category = Category::kSoftwareRedundant;
      d.workload = "terasort";
      d.flex_power_fraction = 0.0;
    } else if (fraction < 0.13 + 0.56) {
      d.category = Category::kNonRedundantCapable;
      d.workload = "tpce-capable";
      d.flex_power_fraction = config_.flex_power_fraction;
    } else {
      d.category = Category::kNonRedundantNonCapable;
      d.workload = "tpce-noncap";
      d.flex_power_fraction = 1.0;
    }
    trace.push_back(std::move(d));
  }
  // Interleave categories so batches see a mix (the generator above laid
  // them out contiguously).
  rng_.Shuffle(trace);
  for (std::size_t i = 0; i < trace.size(); ++i)
    trace[i].id = static_cast<int>(i);

  offline::FlexOfflinePolicy policy = offline::FlexOfflinePolicy::Short(
      config_.placement_solve_seconds, config_.placement_max_nodes,
      config_.live != nullptr ? &config_.live->solver() : nullptr);
  placement_ = policy.Place(topology_, trace);
  // The per-rack records are only needed while building: everything the
  // run reads is copied into the flat per-rack vectors below.
  const std::vector<offline::Rack> layout =
      offline::BuildRackLayout(topology_, placement_);
  FLEX_CHECK_MSG(!layout.empty(), "placement produced no racks");

  // Scale per-rack utilization so the aggregate hits the target at the
  // UPS level even though some deployments were rejected.
  Watts placed(0.0);
  for (const offline::Rack& rack : layout)
    placed += rack.allocated;
  const double rack_mean = std::min(
      0.92, config_.target_utilization *
                (topology_.TotalProvisionedPower() / placed));
  for (const Category category :
       {Category::kSoftwareRedundant, Category::kNonRedundantCapable,
        Category::kNonRedundantNonCapable}) {
    OuProcessConfig ou;
    ou.mean = rack_mean;
    ou.reversion_rate = 0.05;
    ou.volatility = category == Category::kSoftwareRedundant
                        ? 0.015   // batch work: steady
                        : 0.025;  // transactional: burstier
    ou.min = 0.40;
    ou.max = 0.95;
    ou_by_category_[static_cast<std::size_t>(category)] = OuProcess(ou);
  }

  // Structure-of-arrays rack state: one flat vector per field, indexed
  // by rack id (the placement emits ids sequentially; assert it so the
  // flat indexing can never silently misattribute power).
  const std::size_t n = layout.size();
  rack_util_.reserve(n);
  rack_alloc_w_.reserve(n);
  rack_pdu_.reserve(n);
  rack_category_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const offline::Rack& rack = layout[i];
    FLEX_REQUIRE(rack.id == static_cast<int>(i),
                 "rack layout ids must be dense and sequential");
    const OuProcess& ou = OuOf(rack.category);
    const double initial = rng_.TruncatedNormal(
        rack_mean, 0.08, ou.config().min, ou.config().max);
    rack_util_.push_back(ou.Clamp(initial));
    rack_alloc_w_.push_back(rack.allocated.value());
    rack_pdu_.push_back(rack.pdu_pair);
    rack_category_.push_back(rack.category);
    switch (rack.category) {
      case Category::kSoftwareRedundant:
        ++report_.sr_racks;
        sr_rack_ids_.push_back(rack.id);
        break;
      case Category::kNonRedundantCapable:
        ++report_.capable_racks;
        capable_rack_ids_.push_back(rack.id);
        break;
      case Category::kNonRedundantNonCapable:
        ++report_.noncap_racks;
        break;
    }
  }
  report_.total_racks = static_cast<int>(n);
  rack_power_w_.assign(n, 0.0);
  rack_on_.assign(n, 1);
  rack_cap_w_.assign(n, -1.0);
  latency_factor_integral_.assign(n, 0.0);
  latency_window_seconds_.assign(n, 0.0);
  worst_latency_factor_.assign(n, 1.0);
  was_throttled_.assign(n, 0);

  plane_ = std::make_unique<actuation::ActuationPlane>(
      queue_, report_.total_racks, config_.rack_manager, rng_.NextU64());
  plane_->SetStateListener(
      [this](int rack_id) { OnRackStateChanged(rack_id); });
  pipeline_ = std::make_unique<telemetry::TelemetryPipeline>(
      queue_, *this, topology_.NumUpses(), report_.total_racks,
      config_.pipeline, rng_.NextU64());

  // Poll racks grouped by their PDU pair's primary UPS so each tick
  // walks one electrical domain at a time: one batch per UPS group —
  // finer event granularity than one room-sized batch, identical
  // delivered readings.
  {
    std::vector<std::vector<int>> racks_of_pdu(
        static_cast<std::size_t>(topology_.NumPduPairs()));
    for (std::size_t i = 0; i < n; ++i)
      racks_of_pdu[static_cast<std::size_t>(rack_pdu_[i])].push_back(
          static_cast<int>(i));
    std::vector<std::vector<int>> groups(
        static_cast<std::size_t>(topology_.NumUpses()));
    for (UpsId u = 0; u < topology_.NumUpses(); ++u) {
      for (const PduPairId p : topology_.PduPairsOfUps(u)) {
        if (topology_.UpsesOfPduPair(p).first != u)
          continue;  // each pair is emitted once, under its primary UPS
        const auto& racks = racks_of_pdu[static_cast<std::size_t>(p)];
        auto& group = groups[static_cast<std::size_t>(u)];
        group.insert(group.end(), racks.begin(), racks.end());
      }
    }
    pipeline_->SetRackPollGroups(std::move(groups));
  }

  // Seed the aggregates with the initial rack powers (everything on,
  // uncapped, ramp at t = 0).
  SweepRacks<false>();

  // Impact registry from the configured scenario.
  online::ImpactRegistry impact;
  impact.emplace("terasort", config_.scenario.software_redundant);
  impact.emplace("tpce-capable", config_.scenario.capable);

  // One rack table, indexed by rack id, shared by every replica.
  std::vector<online::ManagedRack> managed;
  managed.reserve(n);
  for (const offline::Rack& rack : layout) {
    online::ManagedRack m;
    m.workload = rack.workload;
    m.category = rack.category;
    m.pdu_pair = rack.pdu_pair;
    m.allocated = rack.allocated;
    m.flex_power = rack.allocated * config_.flex_power_fraction;
    managed.push_back(std::move(m));
  }
  const online::RackTable rack_table =
      std::make_shared<const std::vector<online::ManagedRack>>(
          std::move(managed));
  // Software-redundant service continuity: the TeraSort-like workload
  // subscribes to power-emergency notifications and scales out remotely.
  if (report_.sr_racks > 0) {
    ScaleOutConfig scale_out;
    scale_out.workload = "terasort";
    scale_out.local_racks = report_.sr_racks;
    sr_scale_out_ = std::make_unique<ScaleOutModel>(queue_, scale_out);
    ScaleOutModel* model = sr_scale_out_.get();
    notifications_.Subscribe(
        "terasort", [model](const online::PowerEmergencyNotification& n) {
          model->OnNotification(n);
        });
  }

  for (int c = 0; c < config_.num_controllers; ++c) {
    controllers_.push_back(std::make_unique<online::FlexController>(
        queue_, topology_, rack_table, *plane_, impact, config_.controller,
        c, &notifications_));
  }
  pipeline_->Subscribe([this](const telemetry::ReadingBatch& batch) {
    DeliverToControllers(batch);
  });

  for (UpsId u = 0; u < topology_.NumUpses(); ++u) {
    batteries_.emplace_back(power::BatteryConfig::ForBatteryLife(
        power::kRoomBatteryLife, topology_.UpsCapacity(u)));
    batteries_.back().Bind(config_.obs, u);
  }
}

double
RoomEmulation::RampNow() const
{
  return 0.35 + 0.65 * std::min(1.0, queue_.Now() / config_.setup_duration);
}

const OuProcess&
RoomEmulation::OuOf(Category category) const
{
  return ou_by_category_[static_cast<std::size_t>(category)];
}

template <bool kStepWorkloads>
void
RoomEmulation::SweepRacks()
{
  // Each category's OU coefficients, read once per step.
  std::array<OuStep, 3> ou{};
  if constexpr (kStepWorkloads) {
    for (std::size_t c = 0; c < ou.size(); ++c)
      ou[c] = ou_by_category_[c].StepOf(config_.workload_step);
  }
  // Fresh left-to-right rack-order sums: identical summation order to a
  // brute-force rescan, so the running state starts each workload step
  // drift-free.
  const double ramp = RampNow();
  pdu_scratch_.assign(static_cast<std::size_t>(topology_.NumPduPairs()),
                      Watts(0.0));
  const std::size_t n = rack_util_.size();
  double* const util = rack_util_.data();
  const double* const alloc_w = rack_alloc_w_.data();
  const std::int32_t* const pdu = rack_pdu_.data();
  const Category* const category = rack_category_.data();
  double* const power_w = rack_power_w_.data();
  const char* const on = rack_on_.data();
  const double* const cap_w = rack_cap_w_.data();
  Watts* const pdu_sum = pdu_scratch_.data();
  for (std::size_t i = 0; i < n; ++i) {
    if constexpr (kStepWorkloads)
      util[i] = ou[static_cast<std::size_t>(category[i])](util[i], rng_);
    const double p =
        RackPowerW(alloc_w[i], util[i], ramp, cap_w[i], on[i] != 0);
    power_w[i] = p;
    pdu_sum[static_cast<std::size_t>(pdu[i])] += Watts(p);
  }
  agg_.SetAllPduLoads(pdu_scratch_);
  ObserveLoads();
}

void
RoomEmulation::ObserveLoads()
{
  watch_.Observe(queue_.Now(), agg_.UpsLoads());
  if (awaiting_safe_ && !watch_.overloaded()) {
    time_to_safe_ = queue_.Now().value() - first_failover_at_;
    awaiting_safe_ = false;
  }
}

void
RoomEmulation::DeliverToControllers(const telemetry::ReadingBatch& batch)
{
  if (batch.kind == telemetry::DeviceKind::kRack) {
    // A rack reading only updates the receiving replica's own forecaster
    // bank, so folding the batch replica by replica leaves every bank as
    // reading-by-reading delivery would.
    for (const auto& controller : controllers_)
      controller->OnRackBatch(batch);
    return;
  }
  // A UPS reading can start decisions, commands and notifications, so
  // each one reaches every replica before the next, as it always has
  // (the pipeline delivers UPS readings one at a time).
  for (std::size_t i = 0; i < batch.readings.size(); ++i) {
    const telemetry::DeviceReading reading = batch.Reading(i);
    for (const auto& controller : controllers_)
      controller->OnReading(reading);
  }
}

void
RoomEmulation::SetUpsFailed(UpsId ups, bool failed)
{
  FLEX_REQUIRE(ups >= 0 && ups < topology_.NumUpses(),
               "UPS index out of range");
  if (failed == (failed_ups_ == ups))
    return;  // already in that state
  if (failed) {
    FLEX_CHECK_MSG(failed_ups_ < 0, "only one UPS may be failed at a time");
    failed_ups_ = ups;
    if (first_failover_at_ < 0.0) {
      first_failover_at_ = queue_.Now().value();
      awaiting_safe_ = true;
    }
  } else {
    failed_ups_ = -1;
  }
  agg_.SetFailedUps(failed_ups_);
  ObserveLoads();
}

void
RoomEmulation::OnRackStateChanged(int rack_id)
{
  const auto i = static_cast<std::size_t>(rack_id);
  const actuation::RackState& state = plane_->rack(rack_id).state();
  const bool was_on = rack_on_[i] != 0;
  const bool had_cap = rack_cap_w_[i] >= 0.0;
  const bool now_on = state.powered_on;
  const bool now_capped = state.power_cap.has_value();

  off_count_ += static_cast<int>(!now_on) - static_cast<int>(!was_on);
  capped_count_ += static_cast<int>(now_on && now_capped) -
                   static_cast<int>(was_on && had_cap);
  if (rack_category_[i] == Category::kNonRedundantNonCapable) {
    noncap_acted_count_ += static_cast<int>(!now_on || now_capped) -
                           static_cast<int>(!was_on || had_cap);
  }
  rack_on_[i] = now_on ? 1 : 0;
  rack_cap_w_[i] = now_capped ? state.power_cap->value() : -1.0;
  report_.sr_shutdown_peak = std::max(report_.sr_shutdown_peak, off_count_);
  report_.capable_capped_peak =
      std::max(report_.capable_capped_peak, capped_count_);
  report_.noncap_acted = std::max(report_.noncap_acted, noncap_acted_count_);

  // The rack's electrical draw just changed: apply the delta to the
  // running sums instead of rescanning the room.
  const double p = RackPowerW(rack_alloc_w_[i], rack_util_[i], RampNow(),
                              rack_cap_w_[i], now_on);
  const double delta = p - rack_power_w_[i];
  rack_power_w_[i] = p;
  if (delta != 0.0) {
    agg_.ApplyDelta(rack_pdu_[i], Watts(delta));
    ObserveLoads();
  }
}

void
RoomEmulation::VerifyAggregates()
{
  // The SoA mirrors and the action counters are maintained by the state
  // listener alone; recount them from the authoritative actuation plane.
  int off = 0;
  int capped = 0;
  int noncap_acted = 0;
  for (std::size_t i = 0; i < rack_on_.size(); ++i) {
    const actuation::RackState& state =
        plane_->rack(static_cast<int>(i)).state();
    FLEX_CHECK_MSG((rack_on_[i] != 0) == state.powered_on,
                   "rack power mirror out of sync with the actuation plane");
    FLEX_CHECK_MSG(rack_cap_w_[i] == (state.power_cap
                                          ? state.power_cap->value()
                                          : -1.0),
                   "rack cap mirror out of sync with the actuation plane");
    const bool acted = !state.powered_on || state.power_cap.has_value();
    off += static_cast<int>(!state.powered_on);
    capped += static_cast<int>(state.powered_on && state.power_cap);
    noncap_acted += static_cast<int>(
        acted && rack_category_[i] == Category::kNonRedundantNonCapable);
  }
  FLEX_CHECK_MSG(off == off_count_, "powered-off rack count out of sync");
  FLEX_CHECK_MSG(capped == capped_count_, "capped rack count out of sync");
  FLEX_CHECK_MSG(noncap_acted == noncap_acted_count_,
                 "acted non-cap-able rack count out of sync");

  // Exact rescan cross-check: rebuild the PDU sums from the cached rack
  // powers and diff the resulting UPS loads against the running sums.
  // Tolerance covers only FP reordering drift between resyncs — a logic
  // bug (missed delta, stale mirror) shows up orders of magnitude above
  // it.
  FLEX_CHECK_MSG(agg_.failed_ups() == failed_ups_,
                 "aggregation failover mode out of sync");
  power::PduPairLoads exact(
      static_cast<std::size_t>(topology_.NumPduPairs()), Watts(0.0));
  for (std::size_t i = 0; i < rack_power_w_.size(); ++i)
    exact[static_cast<std::size_t>(rack_pdu_[i])] += Watts(rack_power_w_[i]);
  const std::vector<Watts> ups_exact =
      failed_ups_ >= 0 ? power::FailoverUpsLoads(topology_, exact, failed_ups_)
                       : power::NormalUpsLoads(topology_, exact);
  const double tolerance =
      1e-3 + 1e-9 * std::abs(agg_.TotalLoad().value());
  const std::vector<Watts>& running = agg_.UpsLoads();
  for (std::size_t u = 0; u < ups_exact.size(); ++u) {
    FLEX_CHECK_MSG(
        std::abs(running[u].value() - ups_exact[u].value()) <= tolerance,
        "incremental UPS aggregation diverged from exact rescan");
    // Every change to the running sums must reach the trip watch.
    FLEX_CHECK_MSG(
        watch_.fraction(static_cast<int>(u)) ==
            running[u] / topology_.UpsCapacity(static_cast<UpsId>(u)),
        "trip watch missed a UPS load change");
  }
  ++verify_rescans_;
}

Watts
RoomEmulation::CurrentPower(DeviceId device) const
{
  if (device.kind == DeviceKind::kRack)
    return Watts(rack_power_w_[static_cast<std::size_t>(device.index)]);
  return agg_.UpsLoads()[static_cast<std::size_t>(device.index)];
}

void
RoomEmulation::CurrentPowerBatch(DeviceKind kind,
                                 std::vector<Watts>& out) const
{
  if (kind == DeviceKind::kUps) {
    const std::vector<Watts>& loads = agg_.UpsLoads();
    for (std::size_t u = 0; u < out.size(); ++u)
      out[u] = loads[u];
    return;
  }
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = Watts(rack_power_w_[i]);
}

void
RoomEmulation::StepWorkloads()
{
  FLEX_PROFILE_PHASE("emulation.step");
  // Batteries ride through whatever overload the current loads impose.
  const std::vector<Watts>& ups_loads = agg_.UpsLoads();
  for (UpsId u = 0; u < topology_.NumUpses(); ++u) {
    power::BatteryModel& battery = batteries_[static_cast<std::size_t>(u)];
    battery.Advance(ups_loads[static_cast<std::size_t>(u)],
                    config_.workload_step);
    report_.min_battery_state_of_charge = std::min(
        report_.min_battery_state_of_charge, battery.StateOfCharge());
    if (battery.tripped()) {
      if (!report_.battery_tripped && config_.obs != nullptr) {
        config_.obs->recorder().Record(queue_.Now(),
                                       obs::RecordKind::kBatteryTrip,
                                       static_cast<int>(u), -1,
                                       battery.StateOfCharge());
      }
      report_.battery_tripped = true;
    }
  }

  // Software-redundant service health view: shut racks look "down" to
  // the service's own health checks; notified shutdowns are tolerated,
  // unnotified ones would trigger auto-recovery (counted, inhibited).
  if (sr_scale_out_) {
    for (const int id : sr_rack_ids_) {
      if (!rack_on_[static_cast<std::size_t>(id)])
        sr_scale_out_->ObserveRackDown(id);
    }
    report_.sr_capacity_min_fraction =
        std::min(report_.sr_capacity_min_fraction,
                 sr_scale_out_->ServiceCapacityFraction());
    if (sr_scale_out_->emergency_active() &&
        sr_scale_out_->remote_active() > 0) {
      report_.sr_capacity_after_scaleout =
          sr_scale_out_->ServiceCapacityFraction();
    }
  }

  // Advance every utilization, refresh the cached powers and rebuild the
  // aggregates, in one rack-order pass. The RNG draws in rack order, as
  // part of the deterministic contract, so the category-specific
  // bookkeeping below stays out of it.
  SweepRacks<true>();

  // Track tail latency of the transactional racks while a UPS is failed,
  // whether the timeline scripted the failover or a fault plan injected
  // it. A scripted edge runs before the workload step of its instant, so
  // a scripted room tracks exactly the steps in [failover_at, restore_at).
  if (failed_ups_ < 0)
    return;
  const LatencyModel latency(0.25);
  const double ramp = RampNow();
  for (const int id : capable_rack_ids_) {
    const auto i = static_cast<std::size_t>(id);
    const double cap = rack_cap_w_[i];
    const Watts demand(rack_alloc_w_[i] * rack_util_[i] * ramp);
    double factor = 1.0;
    if (cap >= 0.0) {
      was_throttled_[i] = 1;
      factor = latency.P95Factor(LatencyModel::SpeedUnderCap(
          demand, Watts(cap)));
    }
    latency_factor_integral_[i] += factor * config_.workload_step.value();
    latency_window_seconds_[i] += config_.workload_step.value();
    worst_latency_factor_[i] = std::max(worst_latency_factor_[i], factor);
  }
}

void
RoomEmulation::RecordSample()
{
  EmulationSample sample;
  sample.t_seconds = queue_.Now().value();
  const std::vector<Watts>& ups = agg_.UpsLoads();
  for (const Watts w : ups)
    sample.ups_mw.push_back(w.megawatts());
  sample.total_rack_mw = agg_.TotalLoad().megawatts();
  sample.racks_off = off_count_;
  sample.racks_capped = capped_count_;
  if (config_.verify_aggregation)
    VerifyAggregates();
  report_.series.push_back(std::move(sample));

  max_ups_load_fraction_ = 0.0;
  for (UpsId u = 0; u < topology_.NumUpses(); ++u) {
    max_ups_load_fraction_ = std::max(
        max_ups_load_fraction_,
        ups[static_cast<std::size_t>(u)] / topology_.UpsCapacity(u));
  }

  // One snapshot per tick feeds both the history store and the live
  // plane, so /query and /metrics can never disagree about a sample.
  const obs::MetricsSnapshot snapshot = BuildLiveSnapshot();
  if (ts_store_ != nullptr) {
    ts_store_->Sample(snapshot);
    alert_engine_->Evaluate(queue_.Now().value());
  }
  PublishLive(snapshot);
}

obs::MetricsSnapshot
RoomEmulation::BuildLiveSnapshot()
{
  if (config_.obs != nullptr) {
    obs::MetricsRegistry& metrics = config_.obs->metrics();
    metrics.gauge("emulation.max_ups_load_fraction")
        .Set(max_ups_load_fraction_);
    if (fleet_overload_fraction_ >= 0.0) {
      metrics.gauge("fleet.substation_overload_fraction")
          .Set(fleet_overload_fraction_);
    }
    return metrics.Snapshot(queue_.Now().value());
  }

  // No registry (fleet rooms never get one: it is single-threaded);
  // synthesize the minimum so /metrics and the history store still
  // track the run.
  obs::MetricsSnapshotBuilder builder;
  builder.Gauge("emulation.events_executed",
                static_cast<double>(queue_.executed_count()));
  builder.Gauge("emulation.max_ups_load_fraction", max_ups_load_fraction_);
  if (!report_.series.empty()) {
    const EmulationSample& last = report_.series.back();
    builder.Gauge("emulation.racks_off", static_cast<double>(last.racks_off));
    builder.Gauge("emulation.total_rack_mw", last.total_rack_mw);
  }
  // Fleet lanes learn the shared-substation overload at each epoch
  // barrier; standalone rooms never set it, so their snapshots are
  // unchanged.
  if (fleet_overload_fraction_ >= 0.0) {
    builder.Gauge("fleet.substation_overload_fraction",
                  fleet_overload_fraction_);
  }
  builder.Counter("pipeline.readings_delivered",
                  static_cast<double>(pipeline_->delivered_count()));
  obs::MetricsSnapshot snapshot;
  builder.Build(queue_.Now().value(), &snapshot);
  return snapshot;
}

void
RoomEmulation::PublishLive(const obs::MetricsSnapshot& snapshot)
{
  if (config_.live == nullptr)
    return;

  // Everything below copies simulation state OUT into the hub's
  // mutex-guarded mailbox; the HTTP thread only ever reads those
  // copies. Nothing here feeds back into simulated state, so a scraper
  // (or the absence of one) cannot change the run.
  obs::LiveHub& live = *config_.live;
  live.watchdog().Beat(watchdog_id_);
  live.PublishMetrics(snapshot);
  if (config_.obs != nullptr) {
    live.PublishTraces(config_.obs->tracer().traces());
    live.PublishRecorderTail(config_.obs->recorder());
  }
  if (alert_engine_ != nullptr) {
    obs::AlertsSnapshot alerts = alert_engine_->Snapshot();
    alerts.sim_time_seconds = queue_.Now().value();
    live.PublishAlerts(alerts);
    live.PublishSeries(ts_store_->Snapshot());
  }

  obs::HealthSnapshot health;
  health.ok = !watch_.tripped() && !report_.battery_tripped;
  health.sim_time_seconds = queue_.Now().value();
  if (!health.ok) {
    health.violations = 1;
    health.detail = watch_.tripped()
                        ? "UPS overload exceeded its trip-curve tolerance"
                        : "UPS battery exhausted its ride-through energy";
  }
  live.PublishHealth(health);
}

EmulationReport
RoomEmulation::Run()
{
  StartTimeline();
  AdvanceTo(config_.end_at);
  return Finish();
}

void
RoomEmulation::StartTimeline()
{
  FLEX_REQUIRE(!timeline_started_, "timeline already started");
  timeline_started_ = true;
  pipeline_->Start();

  // Reserve the sample series at its final size so epoch-driven
  // stepping never reallocates mid-run (the fleet engine's
  // zero-allocation steady state rides this).
  report_.series.reserve(
      static_cast<std::size_t>(config_.end_at.value() /
                               config_.sample_period.value()) +
      2);

  // Workload stepping.
  queue_.SchedulePeriodic(config_.workload_step, [this] {
    StepWorkloads();
    return queue_.Now() < config_.end_at;
  });
  // Sampling.
  queue_.SchedulePeriodic(config_.sample_period, [this] {
    RecordSample();
    return queue_.Now() < config_.end_at;
  });
  // Stage C fails a UPS; stage F restores it.
  if (config_.failed_ups >= 0) {
    queue_.ScheduleAt(config_.failover_at,
                      [this] { SetUpsFailed(config_.failed_ups, true); });
    queue_.ScheduleAt(config_.restore_at,
                      [this] { SetUpsFailed(config_.failed_ups, false); });
  }
}

std::uint64_t
RoomEmulation::AdvanceTo(Seconds horizon)
{
  FLEX_REQUIRE(timeline_started_, "StartTimeline before AdvanceTo");
  if (horizon > config_.end_at)
    horizon = config_.end_at;
  if (horizon < queue_.Now())
    return 0;
  return static_cast<std::uint64_t>(queue_.RunUntil(horizon));
}

void
RoomEmulation::SnapshotEpoch(RoomEpochView* out) const
{
  FLEX_REQUIRE(out != nullptr, "null epoch view");
  out->t_seconds = queue_.Now().value();
  out->total_rack_mw = agg_.TotalLoad().megawatts();
  out->max_ups_load_fraction = max_ups_load_fraction_;
  out->events_executed = queue_.executed_count();
  out->racks_off = off_count_;
  out->racks_capped = capped_count_;
  out->safety_violated = watch_.tripped();
  out->battery_tripped = report_.battery_tripped;
  out->samples_recorded = static_cast<std::uint64_t>(report_.series.size());
  if (alert_engine_ != nullptr) {
    out->alert_edges =
        static_cast<std::uint64_t>(alert_engine_->timeline().size());
    out->alerts_fired = alert_engine_->total_fired();
  } else {
    out->alert_edges = 0;
    out->alerts_fired = 0;
  }
}

void
RoomEmulation::SetFleetOverloadGauge(double overload_fraction)
{
  fleet_overload_fraction_ = overload_fraction;
}

EmulationReport
RoomEmulation::Finish()
{
  FLEX_REQUIRE(timeline_started_, "StartTimeline before Finish");
  FLEX_REQUIRE(queue_.Now() >= config_.end_at,
               "Finish before the timeline end");
  FLEX_REQUIRE(!finished_, "Finish called twice");
  finished_ = true;
  pipeline_->Stop();
  queue_.RunUntil(config_.end_at + Seconds(5.0));  // drain deliveries
  watch_.CloseAt(queue_.Now());

  // --- Assemble the report -------------------------------------------------
  report_.safety_violated = watch_.tripped();
  report_.worst_overload_fraction = watch_.worst_overload_fraction();
  report_.overload_duration_seconds = watch_.longest_overload().value();
  report_.monitor_ticks = watch_.observations();
  report_.time_to_safe_seconds = time_to_safe_;
  if (report_.sr_racks > 0) {
    report_.sr_shutdown_fraction =
        static_cast<double>(report_.sr_shutdown_peak) / report_.sr_racks;
  }
  if (report_.capable_racks > 0) {
    report_.capable_capped_fraction =
        static_cast<double>(report_.capable_capped_peak) /
        report_.capable_racks;
  }
  if (pipeline_->latency().count() > 0)
    report_.data_latency_p999 = pipeline_->latency().Percentile(99.9);
  for (const auto& controller : controllers_) {
    const online::ControllerStats& stats = controller->stats();
    report_.overdraw_events += stats.overdraw_events;
    report_.throttle_commands += stats.throttle_commands;
    report_.shutdown_commands += stats.shutdown_commands;
    for (const double latency : stats.enforcement_latencies) {
      report_.enforcement_latency_seconds =
          std::max(report_.enforcement_latency_seconds, latency);
    }
  }

  RunningStats latency_increase;
  for (const int id : capable_rack_ids_) {
    const auto i = static_cast<std::size_t>(id);
    if (!was_throttled_[i] || latency_window_seconds_[i] <= 0.0)
      continue;
    const double mean_factor =
        latency_factor_integral_[i] / latency_window_seconds_[i];
    latency_increase.Add(mean_factor - 1.0);
    report_.p95_increase_worst = std::max(
        report_.p95_increase_worst, worst_latency_factor_[i] - 1.0);
  }
  report_.p95_increase_mean = latency_increase.mean();
  if (sr_scale_out_) {
    report_.sr_inhibited_auto_recoveries =
        sr_scale_out_->inhibited_auto_recoveries();
  }
  report_.notifications_published =
      static_cast<int>(notifications_.published_count());

  report_.events_executed = queue_.executed_count();
  report_.aggregate_deltas = agg_.delta_count();
  report_.aggregate_resyncs = agg_.resync_count();
  report_.verify_rescans = verify_rescans_;
  if (config_.obs != nullptr) {
    obs::MetricsRegistry& metrics = config_.obs->metrics();
    metrics.gauge("room.racks").Set(static_cast<double>(report_.total_racks));
    metrics.gauge("room.events_executed")
        .Set(static_cast<double>(report_.events_executed));
    metrics.gauge("room.aggregate_deltas")
        .Set(static_cast<double>(report_.aggregate_deltas));
    metrics.gauge("room.aggregate_resyncs")
        .Set(static_cast<double>(report_.aggregate_resyncs));
    metrics.gauge("room.verify_rescans")
        .Set(static_cast<double>(report_.verify_rescans));
  }
  if (alert_engine_ != nullptr) {
    report_.alerts_fired = alert_engine_->total_fired();
    report_.alert_timeline = alert_engine_->timeline();
    report_.alert_fingerprint = alert_engine_->Fingerprint();
    report_.store_fingerprint = ts_store_->Fingerprint();
    report_.store_samples = ts_store_->total_samples();
  }
  // Final publish with the completed-run state, then retire the
  // heartbeat: a finished loop must not read as a stall on /healthz.
  // BuildLiveSnapshot only reads here — the history store is not
  // re-sampled, so the fingerprints above stay the report's truth.
  PublishLive(BuildLiveSnapshot());
  if (config_.live != nullptr)
    config_.live->watchdog().MarkDone(watchdog_id_);
  return report_;
}

}  // namespace flex::emulation
