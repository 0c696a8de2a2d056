#include "scenario.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "power/loads.hpp"

namespace flex::fault {

using telemetry::DeviceId;
using telemetry::DeviceKind;
using workload::Category;

namespace {

/** Per-rack allocation (12 racks × 50 kW = 600 kW provisioned). */
constexpr Watts kRackAllocation = KiloWatts(50.0);

/** 3N/2 room sized to the scenario shape. */
power::RoomConfig
BuildRoomConfig(const ScenarioConfig& config)
{
  power::RoomConfig room;
  room.num_ups = config.shape.num_ups;
  room.redundancy_y = config.shape.num_ups - 1;
  room.ups_capacity = config.ups_capacity;
  room.pdu_pairs_per_ups_pair = 1;
  room.rows_per_pdu_pair = 2;
  room.racks_per_row = 2;
  return room;
}

/**
 * Category pattern per PDU pair (4 racks each): one software-redundant,
 * two cap-able, one non-cap-able — every pair has both recovery levers
 * plus an untouchable rack, like the paper's mixed rooms.
 */
Category
CategoryFor(int rack_id)
{
  switch (rack_id % 4) {
    case 0:
      return Category::kSoftwareRedundant;
    case 1:
    case 2:
      return Category::kNonRedundantCapable;
    default:
      return Category::kNonRedundantNonCapable;
  }
}

const char*
WorkloadNameFor(Category category)
{
  switch (category) {
    case Category::kSoftwareRedundant:
      return "sr-batch";
    case Category::kNonRedundantCapable:
      return "capable-txn";
    case Category::kNonRedundantNonCapable:
      return "noncap-storage";
  }
  FLEX_CONFIG_ERROR("unknown category");
}

}  // namespace

ScenarioConfig::ScenarioConfig()
{
  // A small room reacts faster than the 9.6 MW evaluation room; shrink
  // the controller's margins to match (defaults target megawatt scale).
  controller.buffer = KiloWatts(8.0);
  controller.release_delay = Seconds(10.0);
  // On by default: the engine only runs when obs is attached, and
  // recorded runs + replays must evaluate identical rule sets.
  alerts.enabled = true;
}

FaultScenario::FaultScenario(ScenarioConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      topology_(BuildRoomConfig(config_)),
      rng_(seed)
{
  const ScenarioShape& shape = config_.shape;
  FLEX_REQUIRE(topology_.NumRows() * topology_.RacksPerRow() ==
                   shape.num_racks,
               "scenario shape does not match the 3N/2 room layout");
  FLEX_REQUIRE(config_.min_utilization <= config_.mean_utilization &&
                   config_.mean_utilization <= config_.max_utilization,
               "utilization bounds must bracket the mean");

  if (config_.obs != nullptr) {
    // One obs handle instruments the whole room; fan it out before the
    // components cache their metric pointers.
    config_.obs->BindClock(queue_);
    config_.pipeline.obs = config_.obs;
    config_.rack_manager.obs = config_.obs;
    config_.controller.obs = config_.obs;
    config_.monitor.obs = config_.obs;
  }

  categories_.reserve(static_cast<std::size_t>(shape.num_racks));
  utilization_.reserve(static_cast<std::size_t>(shape.num_racks));
  for (int r = 0; r < shape.num_racks; ++r) {
    categories_.push_back(CategoryFor(r));
    utilization_.push_back(rng_.TruncatedNormal(
        config_.mean_utilization, config_.utilization_sigma,
        config_.min_utilization, config_.max_utilization));
  }

  plane_ = std::make_unique<actuation::ActuationPlane>(
      queue_, shape.num_racks, config_.rack_manager, rng_.NextU64());

  telemetry::PipelineConfig pipeline_config = config_.pipeline;
  pipeline_config.meters_per_device = shape.meters_per_device;
  pipeline_config.num_pollers = shape.num_pollers;
  pipeline_config.num_buses = shape.num_buses;
  pipeline_ = std::make_unique<telemetry::TelemetryPipeline>(
      queue_, *this, shape.num_ups, shape.num_racks, pipeline_config,
      rng_.NextU64());

  std::vector<online::ManagedRack> managed;
  managed.reserve(static_cast<std::size_t>(shape.num_racks));
  for (int r = 0; r < shape.num_racks; ++r) {
    online::ManagedRack m;
    m.category = categories_[static_cast<std::size_t>(r)];
    m.workload = WorkloadNameFor(m.category);
    m.pdu_pair = topology_.PduPairOfRow(r / topology_.RacksPerRow());
    m.allocated = kRackAllocation;
    m.flex_power = kRackAllocation * config_.flex_power_fraction;
    managed.push_back(std::move(m));
  }
  const online::RackTable rack_table =
      std::make_shared<const std::vector<online::ManagedRack>>(
          std::move(managed));

  for (int c = 0; c < shape.num_controllers; ++c) {
    controllers_.push_back(std::make_unique<online::FlexController>(
        queue_, topology_, rack_table, *plane_, online::ImpactRegistry{},
        config_.controller, c));
    online::FlexController* controller = controllers_.back().get();
    pipeline_->Subscribe([controller](const telemetry::DeviceReading& r) {
      controller->OnReading(r);
    });
  }

  if (config_.attach_monitor) {
    monitor_ = std::make_unique<InvariantMonitor>(
        queue_, topology_, categories_, *plane_,
        [this] { return TrueUpsLoads(); }, config_.monitor);
    for (const auto& controller : controllers_)
      monitor_->AddController(controller.get());
    monitor_->Attach();
  }

  if (config_.obs != nullptr && config_.alerts.enabled) {
    ts_store_ = std::make_unique<obs::TimeSeriesStore>();
    alert_engine_ = std::make_unique<obs::AlertEngine>(
        ts_store_.get(), obs::BuiltinAlertRules());
    alert_engine_->SetRecorder(&config_.obs->recorder());
  }
}

FaultScenario::~FaultScenario()
{
  if (config_.obs != nullptr)
    config_.obs->UnbindClock(queue_);
}

Watts
FaultScenario::TrueRackPower(int rack_id) const
{
  const actuation::RackState& state = plane_->rack(rack_id).state();
  if (!state.powered_on)
    return Watts(0.0);
  Watts demand = kRackAllocation *
                 utilization_[static_cast<std::size_t>(rack_id)];
  if (state.power_cap && demand > *state.power_cap)
    demand = *state.power_cap;
  return demand;
}

std::vector<Watts>
FaultScenario::TrueUpsLoads() const
{
  power::PduPairLoads pdu_loads(
      static_cast<std::size_t>(topology_.NumPduPairs()), Watts(0.0));
  for (int r = 0; r < config_.shape.num_racks; ++r) {
    const power::PduPairId pair =
        topology_.PduPairOfRow(r / topology_.RacksPerRow());
    pdu_loads[static_cast<std::size_t>(pair)] += TrueRackPower(r);
  }
  if (failed_ups_ >= 0)
    return power::FailoverUpsLoads(topology_, pdu_loads, failed_ups_);
  return power::NormalUpsLoads(topology_, pdu_loads);
}

Watts
FaultScenario::CurrentPower(DeviceId device) const
{
  if (device.kind == DeviceKind::kRack)
    return TrueRackPower(device.index);
  return TrueUpsLoads()[static_cast<std::size_t>(device.index)];
}

void
FaultScenario::SetUpsFailed(int ups, bool failed)
{
  FLEX_REQUIRE(ups >= 0 && ups < config_.shape.num_ups,
               "UPS index out of range");
  if (failed) {
    FLEX_CHECK_MSG(failed_ups_ < 0 || failed_ups_ == ups,
                   "fault envelope allows only one failed UPS at a time");
    failed_ups_ = ups;
  } else if (failed_ups_ == ups) {
    failed_ups_ = -1;
  }
}

InjectorTargets
FaultScenario::targets()
{
  InjectorTargets targets;
  targets.queue = &queue_;
  targets.pipeline = pipeline_.get();
  targets.plane = plane_.get();
  targets.set_ups_failed = [this](int ups, bool failed) {
    SetUpsFailed(ups, failed);
  };
  for (const auto& controller : controllers_)
    targets.controllers.push_back(controller.get());
  targets.num_ups = config_.shape.num_ups;
  if (config_.obs != nullptr)
    targets.recorder = &config_.obs->recorder();
  return targets;
}

void
FaultScenario::StepWorkloads()
{
  for (double& utilization : utilization_) {
    utilization = std::clamp(
        utilization + rng_.Normal(0.0, config_.utilization_jitter),
        config_.min_utilization, config_.max_utilization);
  }
}

ScenarioReport
FaultScenario::Run(const FaultPlan& plan)
{
  FaultInjector injector(targets());
  injector.Arm(plan);

  pipeline_->Start();
  const Seconds horizon = config_.shape.horizon;
  queue_.SchedulePeriodic(config_.workload_step, [this, horizon] {
    StepWorkloads();
    // The monitor→rule bridge: the registry snapshot carries the
    // monitor's invariants.violations counter (and every other metric)
    // into the history store, then the rules judge it on sim time.
    if (alert_engine_ != nullptr) {
      ts_store_->Sample(config_.obs->metrics().Snapshot());
      alert_engine_->Evaluate(queue_.Now().value());
    }
    return queue_.Now() < horizon;
  });
  queue_.RunUntil(horizon);
  pipeline_->Stop();
  // Drain in-flight deliveries and actuation completions.
  queue_.RunUntil(horizon + Seconds(8.0));

  ScenarioReport report;
  report.events_executed = queue_.executed_count();
  report.readings_delivered = pipeline_->delivered_count();
  for (const auto& controller : controllers_) {
    const online::ControllerStats& stats = controller->stats();
    report.overdraw_events += stats.overdraw_events;
    report.throttle_commands += stats.throttle_commands;
    report.shutdown_commands += stats.shutdown_commands;
    report.restore_commands += stats.restore_commands;
    report.uncap_commands += stats.uncap_commands;
    report.failed_commands += stats.failed_commands;
  }
  if (monitor_) {
    report.worst_overload_fraction = monitor_->worst_overload_fraction();
    report.violations = monitor_->violations();
    report.violation_summary = monitor_->Summary();
  }
  report.fault_trace = injector.executed_trace();
  if (alert_engine_ != nullptr) {
    report.alerts_fired = alert_engine_->total_fired();
    report.alert_timeline = alert_engine_->timeline();
    report.alert_fingerprint = alert_engine_->Fingerprint();
    report.store_fingerprint = ts_store_->Fingerprint();
  }
  return report;
}

ScenarioReport
RunFuzzedScenario(const ScenarioConfig& config, std::uint64_t seed,
                  std::string* trace_out)
{
  FaultFuzzer fuzzer(config.shape);
  const FaultPlan plan = fuzzer.SamplePlan(seed);
  if (trace_out != nullptr)
    *trace_out = plan.DebugString();
  FaultScenario scenario(config, seed);
  return scenario.Run(plan);
}

std::vector<ScenarioReport>
RunFuzzSweep(const ScenarioConfig& config, std::uint64_t first_seed,
             int count, int threads, std::vector<std::string>* traces)
{
  FLEX_REQUIRE(count >= 0, "negative sweep count");
  common::Lanes lanes(threads, static_cast<std::size_t>(count));

  std::vector<ScenarioReport> reports(static_cast<std::size_t>(count));
  if (traces != nullptr) {
    traces->clear();
    traces->resize(static_cast<std::size_t>(count));
  }

  // Each lane derives everything from its seed; the config is shared
  // read-only except for obs, which must be detached (the registry is
  // single-threaded).
  const auto run_one = [&config, &reports, traces, first_seed](int i) {
    ScenarioConfig lane_config = config;
    lane_config.obs = nullptr;
    const std::size_t slot = static_cast<std::size_t>(i);
    std::string* trace = traces != nullptr ? &(*traces)[slot] : nullptr;
    reports[slot] = RunFuzzedScenario(
        lane_config, first_seed + static_cast<std::uint64_t>(i), trace);
  };

  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    tasks.push_back([&run_one, i] { run_one(i); });
  lanes.Run(std::move(tasks));
  return reports;
}

}  // namespace flex::fault
