/**
 * @file
 * Small self-contained room for fault fuzzing.
 *
 * Wires a 3N/2 room (3 UPSes, 3 PDU pairs, 12 racks) through the full
 * online stack — redundant telemetry, multi-primary controllers,
 * rack-manager actuation — with the InvariantMonitor attached, and runs
 * a FaultPlan against it. Deliberately smaller than the Section V-C
 * emulation room: one scenario executes a few thousand events, so the
 * property tests can sweep hundreds of seeds in seconds.
 *
 * Everything is derived from one seed (workloads, telemetry jitter,
 * actuation latencies, the fault plan), so a failing seed replays the
 * exact same run.
 */
#ifndef FLEX_FAULT_SCENARIO_HPP_
#define FLEX_FAULT_SCENARIO_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "actuation/rack_manager.hpp"
#include "common/rng.hpp"
#include "fault/fault_fuzzer.hpp"
#include "fault/fault_injector.hpp"
#include "fault/invariant_monitor.hpp"
#include "obs/alerts.hpp"
#include "obs/timeseries.hpp"
#include "online/controller.hpp"
#include "power/topology.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/pipeline.hpp"
#include "workload/deployment.hpp"

namespace flex::fault {

/** Scenario knobs; defaults keep the room inside the safety envelope. */
struct ScenarioConfig {
  ScenarioShape shape;
  /** Rated capacity of each UPS. */
  Watts ups_capacity = KiloWatts(200.0);
  /** Flex power (lowest cap) as a fraction of allocation. */
  double flex_power_fraction = 0.5;
  /** Per-rack base utilization: truncated normal over [min, max]. */
  double mean_utilization = 0.78;
  double utilization_sigma = 0.05;
  double min_utilization = 0.60;
  double max_utilization = 0.84;
  /** Per-step random-walk jitter on utilization. */
  double utilization_jitter = 0.004;
  Seconds workload_step{1.0};
  bool attach_monitor = true;
  MonitorConfig monitor;
  telemetry::PipelineConfig pipeline;
  actuation::RackManagerConfig rack_manager;
  online::ControllerConfig controller;
  /**
   * Optional instrumentation sink, fanned out into every component's
   * config (and the injector's flight-recorder feed). The scenario
   * binds the registry clock to its own queue.
   */
  obs::Observability* obs = nullptr;
  /**
   * Time-series history + alert rules, active only when obs is
   * attached (the rules read registry metrics). Enabled by default so
   * recorded runs and their replays evaluate the same rule set — the
   * kAlert flight records must align record-for-record — while fuzz
   * sweeps, which force obs = nullptr per lane, stay byte-identical to
   * the pre-alerting behaviour.
   */
  obs::AlertsConfig alerts;

  ScenarioConfig();
};

/** What one scenario run measured. */
struct ScenarioReport {
  std::uint64_t events_executed = 0;
  std::size_t readings_delivered = 0;
  int overdraw_events = 0;
  int throttle_commands = 0;
  int shutdown_commands = 0;
  int restore_commands = 0;
  int uncap_commands = 0;
  int failed_commands = 0;
  double worst_overload_fraction = 0.0;
  std::vector<Violation> violations;
  /** Human-readable violation listing; empty when all invariants held. */
  std::string violation_summary;
  /** The injector's begin/repair trace in execution order. */
  std::vector<std::string> fault_trace;
  /** Alerting results (zero/empty when no engine was attached). */
  std::uint64_t alerts_fired = 0;
  std::vector<obs::AlertTransition> alert_timeline;
  std::uint64_t alert_fingerprint = 0;
  std::uint64_t store_fingerprint = 0;
};

/**
 * One fuzzable room. Construct, optionally Arm() extra plans, Run().
 */
class FaultScenario : public telemetry::PowerSource {
 public:
  FaultScenario(ScenarioConfig config, std::uint64_t seed);
  ~FaultScenario() override;

  // telemetry::PowerSource:
  Watts CurrentPower(telemetry::DeviceId device) const override;

  /** Runs @p plan against the room and reports. */
  ScenarioReport Run(const FaultPlan& plan);

  /** Injectable surfaces, for tests that drive the injector directly. */
  InjectorTargets targets();

  /** Ground-truth per-UPS loads after failover redistribution. */
  std::vector<Watts> TrueUpsLoads() const;

  /** Fails / restores a UPS (the kUpsFailover handler). */
  void SetUpsFailed(int ups, bool failed);

  sim::EventQueue& queue() { return queue_; }
  const sim::EventQueue& queue() const { return queue_; }
  telemetry::TelemetryPipeline& pipeline() { return *pipeline_; }
  actuation::ActuationPlane& plane() { return *plane_; }
  const actuation::ActuationPlane& plane() const { return *plane_; }
  const power::RoomTopology& topology() const { return topology_; }
  const InvariantMonitor& monitor() const { return *monitor_; }
  const std::vector<workload::Category>& categories() const {
    return categories_;
  }
  int failed_ups() const { return failed_ups_; }

  /** History store / alert engine; nullptr unless obs + alerts.enabled. */
  const obs::TimeSeriesStore* timeseries() const { return ts_store_.get(); }
  const obs::AlertEngine* alert_engine() const {
    return alert_engine_.get();
  }

 private:
  Watts TrueRackPower(int rack_id) const;
  void StepWorkloads();

  ScenarioConfig config_;
  power::RoomTopology topology_;
  sim::EventQueue queue_;
  Rng rng_;

  std::vector<double> utilization_;  ///< per rack, random-walked
  std::vector<workload::Category> categories_;

  std::unique_ptr<actuation::ActuationPlane> plane_;
  std::unique_ptr<telemetry::TelemetryPipeline> pipeline_;
  std::vector<std::unique_ptr<online::FlexController>> controllers_;
  std::unique_ptr<InvariantMonitor> monitor_;
  std::unique_ptr<obs::TimeSeriesStore> ts_store_;
  std::unique_ptr<obs::AlertEngine> alert_engine_;

  int failed_ups_ = -1;
};

/**
 * Samples a plan for @p seed, runs it on a fresh scenario, and returns
 * the report. When @p trace_out is non-null it receives the plan's
 * DebugString — print it alongside the seed on violation so the failure
 * is reproducible from the test log alone.
 */
ScenarioReport RunFuzzedScenario(const ScenarioConfig& config,
                                 std::uint64_t seed,
                                 std::string* trace_out = nullptr);

/**
 * Runs RunFuzzedScenario for seeds first_seed .. first_seed+count-1,
 * fanning independent scenarios out across common::Lanes(threads) and
 * merging serially in seed order — reports[i] is seed first_seed+i for
 * any thread count. Each lane forces obs = nullptr (the registry is
 * single-threaded). When @p traces is non-null it receives the plan
 * DebugStrings, also in seed order.
 */
std::vector<ScenarioReport> RunFuzzSweep(const ScenarioConfig& config,
                                         std::uint64_t first_seed, int count,
                                         int threads = 0,
                                         std::vector<std::string>* traces =
                                             nullptr);

}  // namespace flex::fault

#endif  // FLEX_FAULT_SCENARIO_HPP_
