/**
 * @file
 * flexbench: the end-to-end and per-layer benchmark of the Flex
 * reproduction.
 *
 *   flexbench --workload W --seed S [--seconds T] [--trace FILE] [--smoke]
 *
 * One process runs one workload (or, with --smoke and no --workload, all
 * four at toy sizes). It first runs one warm-up operation on seed S, then
 * times operations on seeds S, S+1, ... until T wall seconds have passed
 * (and at least four ran), and prints one JSON record as the last line
 * of stdout. The warm-up absorbs first-touch costs (page faults, lazy
 * pools) and is the determinism reference: the first timed operation
 * repeats its seed and must reproduce its digest exactly.
 *
 * Every layer is driven only through its public API: RoomEmulation
 * (ctor / StartTimeline / AdvanceTo / Finish), FleetEmulation (ctor /
 * Run), FlexOfflinePolicy::Place and EvaluatePlacement.
 *
 * --trace FILE pairs every timed operation with a traced run of the same
 * seed: an obs::Observability is attached to the room, the allocation
 * counter is on, the profiler is read, and spans are recorded at this
 * file's call boundaries and written to FILE as JSONL at exit. Traced
 * and untraced digests must agree, and their time ratio is the reported
 * tracing overhead. End-to-end numbers come only from untraced runs.
 *
 * Workloads, metrics and the run protocol: benchmark/README.md.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "emulation/fleet_emulation.hpp"
#include "emulation/room_emulation.hpp"
#include "emulation/sweep.hpp"
#include "obs/log.hpp"
#include "obs/observability.hpp"
#include "obs/profiler.hpp"
#include "offline/flex_offline.hpp"
#include "offline/metrics.hpp"
#include "offline/placement.hpp"
#include "power/substation.hpp"
#include "power/topology.hpp"
#include "workload/trace.hpp"

namespace {

using namespace flex;
using flexbench::AllocPhase;
using Clock = std::chrono::steady_clock;

/**
 * Fleet lanes and solver threads. On a shared 4-vCPU host, 2-thread runs
 * of placement and fleet spread 10-16% from run to run against 3-5% on
 * one thread, so every workload runs on one; lane scaling stays with
 * bench_fleet_scale.
 */
constexpr int kThreads = 1;

/** Timed operations in every run, however short its window. */
constexpr std::uint64_t kMinOps = 4;

const Clock::time_point kProcessStart = Clock::now();

double
SecondsSince(Clock::time_point start)
{
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t
NowNs()
{
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kProcessStart)
      .count();
}

/**
 * High-water resident set of this process image. VmHWM, unlike
 * getrusage's ru_maxrss, is not inherited across exec, so a large parent
 * (the Python driver) cannot mask a small benchmark.
 */
double
PeakRssMb()
{
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), status) != nullptr)
      std::sscanf(line, "VmHWM: %ld kB", &kib);
    std::fclose(status);
    if (kib >= 0)
      return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
Median(std::vector<double> samples)
{
  return samples.empty() ? 0.0 : Percentile(std::move(samples), 50.0);
}

double
Ratio(double num, double den)
{
  return den > 0.0 ? num / den : 0.0;
}

double
Mean(const std::vector<double>& samples)
{
  double sum = 0.0;
  for (const double sample : samples)
    sum += sample;
  return Ratio(sum, static_cast<double>(samples.size()));
}

// --- Spans -----------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t seed = 0;
};

/** In-memory span log of one workload, written out when the run ends. */
class SpanLog {
 public:
  void
  Begin(const char* name, std::uint64_t seed)
  {
    spans_.push_back(
        {name, NowNs(), 0, open_.empty() ? -1 : open_.back(), seed});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  void
  End()
  {
    spans_[static_cast<std::size_t>(open_.back())].end_ns = NowNs();
    open_.pop_back();
  }

  /** Per span name: summed duration minus what its children cover. */
  std::map<std::string, double>
  SelfSeconds() const
  {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const Span& span : spans_) {
      if (span.parent >= 0)
        self[static_cast<std::size_t>(span.parent)] -=
            span.end_ns - span.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
    return out;
  }

  void
  WriteJsonl(std::FILE* file, const std::string& workload) const
  {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(file,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"workload\":\"%s\","
                   "\"seed\":%llu}\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   workload.c_str(), static_cast<unsigned long long>(s.seed));
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/** RAII span; a no-op when @p log is null (untraced operations). */
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t seed) : log_(log)
  {
    if (log_ != nullptr)
      log_->Begin(name, seed);
  }
  ~ScopedSpan()
  {
    if (log_ != nullptr)
      log_->End();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

// --- Per-layer accumulation (traced operations only) -----------------------

struct Layers {
  std::map<std::string, double> sum;
  obs::Histogram decide_us{obs::HistogramConfig::WallMicros()};
  int ops = 0;
  double sim_room_seconds = 0.0;  ///< simulated seconds x rooms
  double body_host_s = 0.0;       ///< stepping thread time (rooms, lanes)

  void Add(const std::string& name, double value) { sum[name] += value; }
  double Get(const std::string& name) const
  {
    const auto it = sum.find(name);
    return it == sum.end() ? 0.0 : it->second;
  }
};

struct Trace {
  SpanLog& spans;
  Layers& layers;
};

SpanLog*
SpansOf(Trace* trace)
{
  return trace != nullptr ? &trace->spans : nullptr;
}

/** Starts a traced operation: clean profiler, allocations into setup. */
void
BeginTracedOp()
{
  obs::Profiler::Global().Reset();
  flexbench::TakeAllocCounts(AllocPhase::kSetup);
  flexbench::TakeAllocCounts(AllocPhase::kRun);
  flexbench::SetAllocPhase(AllocPhase::kSetup);
}

/** Ends a traced operation: folds profiler phases and allocations. */
void
EndTracedOp(Layers& layers)
{
  flexbench::SetAllocPhase(AllocPhase::kOff);
  const flexbench::AllocCounts setup =
      flexbench::TakeAllocCounts(AllocPhase::kSetup);
  const flexbench::AllocCounts run =
      flexbench::TakeAllocCounts(AllocPhase::kRun);
  layers.Add("alloc.setup_count", static_cast<double>(setup.count));
  layers.Add("alloc.run_count", static_cast<double>(run.count));
  layers.Add("alloc.run_bytes", static_cast<double>(run.bytes));

  static const std::map<std::string, std::string> kPhaseLayer = {
      {"emulation.step", "emulation.step"},
      {"controller.decide", "online.decide"},
      {"offline.place", "offline.place"},
      {"offline.solve_batch", "offline.solve_batch"},
  };
  for (const obs::Profiler::PhaseRow& row : obs::Profiler::Global().Snapshot()) {
    const auto it = kPhaseLayer.find(row.phase);
    if (it == kPhaseLayer.end())
      continue;
    layers.Add(it->second + ".calls", static_cast<double>(row.wall.count()));
    layers.Add(it->second + ".host_s", row.wall.sum() * 1e-6);
    if (row.phase == "controller.decide")
      layers.decide_us.Merge(row.wall);
  }
  ++layers.ops;
}

// --- Operations -------------------------------------------------------------

/** What one operation produced; quality samples are simulated values. */
struct OpOutcome {
  double setup_s = 0.0;
  double op_s = 0.0;
  std::uint64_t digest = 0;
  int attempted = 0;  ///< failover episodes, or batch MILPs
  int failed = 0;
  std::vector<double> time_to_safe_s;
  std::vector<double> enforce_s;
  std::vector<double> stranded;
  std::vector<double> placed;
  std::vector<std::string> errors;  ///< correctness violations
};

/** One failover episode; it fails on any violated safety invariant. */
void
CheckEpisode(const emulation::EmulationReport& report, OpOutcome& out)
{
  ++out.attempted;
  if (report.safety_violated || report.battery_tripped ||
      report.noncap_acted > 0 || report.time_to_safe_seconds < 0.0)
    ++out.failed;
  out.time_to_safe_s.push_back(report.time_to_safe_seconds);
  out.enforce_s.push_back(report.enforcement_latency_seconds);
}

void
AddReportLayers(const emulation::EmulationReport& report, Layers& layers)
{
  layers.Add("episodes", 1.0);
  layers.Add("sim.events", static_cast<double>(report.events_executed));
  layers.Add("power.monitor_ticks", static_cast<double>(report.monitor_ticks));
  layers.Add("power.aggregate_deltas",
             static_cast<double>(report.aggregate_deltas));
  layers.Add("power.aggregate_resyncs",
             static_cast<double>(report.aggregate_resyncs));
  layers.Add("telemetry.data_latency_p999_s", report.data_latency_p999);
  layers.Add("online.overdraw_events", report.overdraw_events);
  layers.Add("online.throttle_commands", report.throttle_commands);
  layers.Add("online.shutdown_commands", report.shutdown_commands);
  layers.Add("obs.store_samples", static_cast<double>(report.store_samples));
  layers.Add("obs.alerts_fired", static_cast<double>(report.alerts_fired));
}

double
CounterValue(const obs::MetricsSnapshot& snapshot, const char* name)
{
  const obs::MetricRow* row = snapshot.Find(name);
  return row != nullptr ? row->value : 0.0;
}

/** One room: construct (placement included), then step the timeline. */
OpOutcome
RunRoomOp(emulation::EmulationConfig config, std::uint64_t seed, Trace* trace)
{
  OpOutcome out;
  SpanLog* spans = SpansOf(trace);
  ScopedSpan op_span(spans, "op", seed);
  config.seed = seed;
  std::unique_ptr<obs::Observability> observability;
  if (trace != nullptr) {
    observability = std::make_unique<obs::Observability>();
    config.obs = observability.get();
    BeginTracedOp();
  }

  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<emulation::RoomEmulation> room;
  {
    ScopedSpan span(spans, "room.ctor", seed);
    room = std::make_unique<emulation::RoomEmulation>(config);
  }
  out.setup_s = SecondsSince(setup_start);

  if (trace != nullptr)
    flexbench::SetAllocPhase(AllocPhase::kRun);
  const Clock::time_point run_start = Clock::now();
  struct Stage {
    const char* span;
    Seconds until;
    double host_s;
  };
  Stage stages[] = {{"advance.failover", config.failover_at, 0.0},
                    {"advance.restore", config.restore_at, 0.0},
                    {"advance.end", config.end_at, 0.0}};
  room->StartTimeline();
  for (Stage& stage : stages) {
    ScopedSpan span(spans, stage.span, seed);
    const Clock::time_point start = Clock::now();
    room->AdvanceTo(stage.until);
    stage.host_s = SecondsSince(start);
  }
  emulation::EmulationReport report;
  {
    ScopedSpan span(spans, "finish", seed);
    report = room->Finish();
  }
  out.op_s = SecondsSince(run_start);

  out.digest = emulation::HashEmulationReport(report);
  CheckEpisode(report, out);
  if (trace != nullptr) {
    Layers& layers = trace->layers;
    EndTracedOp(layers);
    AddReportLayers(report, layers);
    layers.Add("emulation.stage.steady.host_s", stages[0].host_s);
    layers.Add("emulation.stage.failover.host_s", stages[1].host_s);
    layers.Add("emulation.stage.recovery.host_s", stages[2].host_s);
    const obs::MetricsSnapshot metrics = observability->metrics().Snapshot();
    layers.Add("telemetry.readings",
               CounterValue(metrics, "pipeline.readings_delivered"));
    layers.Add("actuation.commands",
               CounterValue(metrics, "actuation.commands"));
    layers.Add("actuation.failed_commands",
               CounterValue(metrics, "actuation.failed_commands"));
    layers.sim_room_seconds += config.end_at.value();
    layers.body_host_s += out.op_s;
    // Attaching obs pointed the logger's clock at this room's event
    // queue, which dies with the room.
    obs::SetLogClock(nullptr);
  }
  return out;
}

/** One fleet: construct every room, then step them epoch by epoch. */
OpOutcome
RunFleetOp(emulation::FleetConfig config, std::uint64_t seed, Trace* trace)
{
  OpOutcome out;
  SpanLog* spans = SpansOf(trace);
  ScopedSpan op_span(spans, "op", seed);
  config.room.seed = seed;
  if (trace != nullptr)
    BeginTracedOp();

  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<emulation::FleetEmulation> fleet;
  {
    ScopedSpan span(spans, "fleet.ctor", seed);
    fleet = std::make_unique<emulation::FleetEmulation>(config);
  }
  out.setup_s = SecondsSince(setup_start);

  if (trace != nullptr)
    flexbench::SetAllocPhase(AllocPhase::kRun);
  const Clock::time_point run_start = Clock::now();
  emulation::FleetReport report;
  {
    ScopedSpan span(spans, "fleet.run", seed);
    report = fleet->Run();
  }
  out.op_s = SecondsSince(run_start);

  out.digest = report.fleet_hash ^ report.alert_fingerprint;
  for (const emulation::FleetRoomResult& room : report.rooms)
    CheckEpisode(room.report, out);
  if (trace != nullptr) {
    Layers& layers = trace->layers;
    EndTracedOp(layers);
    for (const emulation::FleetRoomResult& room : report.rooms)
      AddReportLayers(room.report, layers);
    layers.Add("fleet.step_host_s", report.step_wall_seconds);
    layers.Add("fleet.merge_host_s", report.merge_wall_seconds);
    layers.Add("fleet.lane_busy_s", report.lane_busy_seconds);
    layers.Add("fleet.lane_utilization", report.lane_utilization);
    layers.Add("fleet.epochs", static_cast<double>(report.epochs));
    layers.sim_room_seconds +=
        config.room.end_at.value() * static_cast<double>(config.rooms);
    layers.body_host_s += report.lane_busy_seconds;
  }
  return out;
}

/**
 * Re-commits every placed deployment, in trace order, through a fresh
 * CapacityTracker; any commit it refuses is an unsafe placement.
 */
bool
ReplayFeasible(const power::RoomTopology& topology,
               const offline::Placement& placement)
{
  offline::CapacityTracker tracker(topology);
  for (std::size_t i = 0; i < placement.deployments.size(); ++i) {
    if (!placement.assignment[i])
      continue;
    if (!tracker.CanPlace(placement.deployments[i], *placement.assignment[i]))
      return false;
    tracker.Place(placement.deployments[i], *placement.assignment[i]);
  }
  return true;
}

void
AddSolverLayers(const std::vector<solver::SolverTrace>& traces,
                Layers& layers)
{
  for (const solver::SolverTrace& trace : traces) {
    if (trace.empty())
      continue;
    const solver::SolverTracePoint& last = trace.points().back();
    double root_s = 0.0;
    for (const solver::SolverTracePoint& point : trace.points()) {
      if (point.label == "root") {
        root_s = point.elapsed_s;
        break;
      }
    }
    layers.Add("solver.batches", 1.0);
    layers.Add("solver.root_host_s", root_s);
    layers.Add("solver.tree_host_s", last.elapsed_s - root_s);
    layers.Add("solver.host_s", last.elapsed_s);
    layers.Add("solver.final_gap", last.gap);
    layers.Add("solver.nodes", static_cast<double>(last.nodes));
    layers.Add("solver.lp_solves", static_cast<double>(last.lp_solves));
    layers.Add("solver.pivots", static_cast<double>(last.pivots));
    layers.Add("solver.dual_pivots", static_cast<double>(last.dual_pivots));
    layers.Add("solver.refactors", static_cast<double>(last.refactors));
    layers.Add("solver.eta_updates", static_cast<double>(last.eta_updates));
    layers.Add("solver.warm_dual_restarts",
               static_cast<double>(last.warm_dual_restarts));
    layers.Add("solver.propagated_bounds",
               static_cast<double>(last.propagated_bounds));
    layers.Add("solver.propagation_prunes",
               static_cast<double>(last.propagation_prunes));
    layers.Add("solver.presolve_rows_removed", last.presolve_rows_removed);
    layers.Add("solver.basis_attempts",
               static_cast<double>(last.basis_attempts));
    layers.Add("solver.basis_hits", static_cast<double>(last.basis_hits));
  }
}

/**
 * One trace placed by Flex-Offline-Short and by Flex-Offline-Oracle on
 * the paper's evaluation room. The demand is the E4 / Fig. 9 trace
 * (generator seed 2021); the operation's seed picks its arrival order,
 * as the paper's shuffled trace variants do. Keeping the deployment set
 * fixed keeps the work per operation comparable across seeds.
 */
OpOutcome
RunPlacementOp(std::int64_t max_nodes, std::uint64_t seed, Trace* trace)
{
  OpOutcome out;
  SpanLog* spans = SpansOf(trace);
  ScopedSpan op_span(spans, "op", seed);
  if (trace != nullptr)
    BeginTracedOp();

  const Clock::time_point setup_start = Clock::now();
  std::vector<workload::Deployment> demand;
  std::unique_ptr<power::RoomTopology> topology;
  {
    ScopedSpan span(spans, "inputs", seed);
    topology = std::make_unique<power::RoomTopology>(
        power::RoomConfig::EvaluationRoom());
    Rng trace_rng(2021);
    const std::vector<workload::Deployment> base = workload::GenerateTrace(
        workload::TraceConfig{}, topology->TotalProvisionedPower(), trace_rng);
    Rng order_rng(seed);
    demand = workload::ShuffledVariants(base, 2, order_rng)[1];
  }
  out.setup_s = SecondsSince(setup_start);

  if (trace != nullptr)
    flexbench::SetAllocPhase(AllocPhase::kRun);
  const Clock::time_point run_start = Clock::now();
  struct Run {
    const char* span;
    offline::FlexOfflinePolicy policy;
  };
  Run runs[] = {
      {"place.short", offline::FlexOfflinePolicy::Short(1e9, max_nodes)},
      {"place.oracle", offline::FlexOfflinePolicy::Oracle(1e9, max_nodes)}};
  Fnv1a digest;
  std::vector<offline::Placement> placements;
  for (Run& run : runs) {
    ScopedSpan span(spans, run.span, seed);
    placements.push_back(run.policy.Place(*topology, demand));
  }
  out.op_s = SecondsSince(run_start);

  for (std::size_t r = 0; r < placements.size(); ++r) {
    const offline::Placement& placement = placements[r];
    for (std::size_t i = 0; i < placement.deployments.size(); ++i) {
      digest.AddI64(placement.deployments[i].id);
      digest.AddI64(placement.assignment[i] ? *placement.assignment[i] : -1);
    }
    if (!ReplayFeasible(*topology, placement))
      out.errors.push_back(runs[r].policy.Name() + " placed an unsafe room");
    const offline::PlacementMetrics metrics =
        offline::EvaluatePlacement(*topology, placement);
    if (!(metrics.placed_fraction > 0.0 && metrics.placed_fraction <= 1.0 &&
          metrics.stranded_fraction >= 0.0 &&
          metrics.stranded_fraction <= 1.0))
      out.errors.push_back(runs[r].policy.Name() + " metrics out of range");
    out.stranded.push_back(metrics.stranded_fraction);
    out.placed.push_back(metrics.placed_fraction);
    for (const solver::SolverTrace& batch : runs[r].policy.solve_traces()) {
      ++out.attempted;
      if (batch.empty() || !batch.points().back().has_incumbent)
        ++out.failed;
    }
  }
  out.digest = digest.value();
  if (trace != nullptr) {
    EndTracedOp(trace->layers);
    for (const Run& run : runs)
      AddSolverLayers(run.policy.solve_traces(), trace->layers);
  }
  return out;
}

// --- Workloads --------------------------------------------------------------

/**
 * A 9,900-rack N+1 room on six UPSes (15 PDU pairs of 22 rows). Same
 * racks, power per rack and monitoring as the room-scale bench's
 * twelve-UPS megaroom, whose 66 PDU pairs make each placement root LP
 * cost seconds; with 15 pairs the room builds in about 0.1 s, so a run
 * can time many rooms.
 */
power::RoomConfig
MegaRoom()
{
  power::RoomConfig room = power::RoomConfig::EmulationRoom();
  room.num_ups = 6;
  room.redundancy_y = 5;
  room.ups_capacity = MegaWatts(22.0);
  room.pdu_pairs_per_ups_pair = 1;  // 15 PDU pairs
  room.rows_per_pdu_pair = 22;
  room.racks_per_row = 30;
  room.pdu_rating = MegaWatts(11.0);
  return room;
}

/** The 2,240-rack N+1 room of the room-scale bench's middle rung. */
power::RoomConfig
MidRoom()
{
  power::RoomConfig room = power::RoomConfig::EmulationRoom();
  room.num_ups = 8;
  room.redundancy_y = 7;
  room.ups_capacity = MegaWatts(4.0);
  room.pdu_pairs_per_ups_pair = 1;  // 28 PDU pairs
  room.rows_per_pdu_pair = 4;
  room.racks_per_row = 20;
  room.pdu_rating = MegaWatts(2.5);
  return room;
}

/**
 * Room-scale monitoring (30 s rack / 1.5 s UPS telemetry, 200 Hz safety
 * monitor, alerts on) on a short failover episode followed by a long
 * steady state, with a node-budgeted placement so every statistic
 * repeats bit for bit.
 */
emulation::EmulationConfig
ScaleRoomConfig(power::RoomConfig room, double end_at,
                std::int64_t placement_nodes)
{
  emulation::EmulationConfig config;
  config.room = room;
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(60.0);
  config.restore_at = Seconds(100.0);
  config.end_at = Seconds(end_at);
  config.pipeline.rack_poll_period = Seconds(30.0);
  config.monitor_period = Seconds(0.005);
  config.alerts.enabled = true;
  config.placement_solve_seconds = 1e9;
  config.placement_max_nodes = placement_nodes;
  return config;
}

/** Runs one operation on @p seed; traced when @p trace is non-null. */
using Workload = std::function<OpOutcome(std::uint64_t seed, Trace* trace)>;

const char* const kWorkloads[] = {"placement", "megaroom", "paper_failover",
                                  "fleet"};

/** Builds @p name at benchmark size, or at toy size for --smoke. */
Workload
MakeWorkload(const std::string& name, bool smoke)
{
  if (name == "placement") {
    const std::int64_t nodes = smoke ? 20 : 100;
    return [nodes](std::uint64_t seed, Trace* trace) {
      return RunPlacementOp(nodes, seed, trace);
    };
  }
  if (name == "megaroom") {
    const emulation::EmulationConfig config =
        smoke ? ScaleRoomConfig(power::RoomConfig::EmulationRoom(), 200.0, 1)
              : ScaleRoomConfig(MegaRoom(), 1500.0, 1);
    return [config](std::uint64_t seed, Trace* trace) {
      return RunRoomOp(config, seed, trace);
    };
  }
  if (name == "paper_failover") {
    // The Section V-C room at the paper's own cadences: 2 s rack
    // telemetry, 3 controller replicas, the full 32-minute timeline.
    emulation::EmulationConfig config;
    config.alerts.enabled = true;
    config.placement_solve_seconds = 1e9;
    config.placement_max_nodes = smoke ? 20 : 200;
    if (smoke) {
      config.setup_duration = Seconds(10.0);
      config.failover_at = Seconds(20.0);
      config.restore_at = Seconds(40.0);
      config.end_at = Seconds(60.0);
    }
    return [config](std::uint64_t seed, Trace* trace) {
      return RunRoomOp(config, seed, trace);
    };
  }
  if (name == "fleet") {
    emulation::FleetConfig config;
    config.room = smoke
                      ? ScaleRoomConfig(power::RoomConfig::EmulationRoom(),
                                        200.0, 1)
                      : ScaleRoomConfig(MidRoom(), 1000.0, 1);
    config.rooms = smoke ? 2 : 4;
    config.threads = kThreads;
    config.epoch = Seconds(5.0);
    config.substation = power::SubstationConfig::ForRooms(
        config.rooms, config.room.room, /*headroom_fraction=*/0.9);
    return [config](std::uint64_t seed, Trace* trace) {
      return RunFleetOp(config, seed, trace);
    };
  }
  return {};
}

// --- Runs -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 2021;
  double seconds = 10.0;
  std::string trace_path;
  bool smoke = false;
};

struct RunResult {
  std::vector<OpOutcome> timed;   ///< untraced, in seed order
  std::vector<double> traced_op_s;
  double peak_rss_mb = 0.0;
  Layers layers;
  SpanLog spans;
  std::vector<std::string> errors;
};

/** Fills @p result; it must outlive the open "workload" span. */
void
RunWorkload(const Workload& workload, const Args& args, bool traced,
            RunResult& result)
{
  Trace trace{result.spans, result.layers};
  const auto check = [&result](const OpOutcome& op) {
    result.errors.insert(result.errors.end(), op.errors.begin(),
                         op.errors.end());
  };
  ScopedSpan root(traced ? &result.spans : nullptr, "workload", args.seed);
  const OpOutcome warmup = workload(args.seed, nullptr);
  check(warmup);

  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const std::uint64_t seed = args.seed + i;
    if (traced) {
      const OpOutcome op = workload(seed, &trace);
      check(op);
      result.traced_op_s.push_back(op.op_s);
      const OpOutcome plain = workload(seed, nullptr);
      if (plain.digest != op.digest)
        result.errors.push_back("traced digest differs at seed " +
                                std::to_string(seed));
      result.timed.push_back(plain);
    } else {
      result.timed.push_back(workload(seed, nullptr));
    }
    const OpOutcome& op = result.timed.back();
    check(op);
    std::printf("  seed %llu: setup %.6g s, op %.6g s, digest %016llx\n",
                static_cast<unsigned long long>(seed), op.setup_s, op.op_s,
                static_cast<unsigned long long>(op.digest));
    if (i == 0 && op.digest != warmup.digest)
      result.errors.push_back("seed " + std::to_string(seed) +
                              " is not deterministic");
    if (i + 1 == kMinOps) {
      // A fixed amount of work, so the number does not grow with the
      // count of operations that fit the window.
      result.peak_rss_mb = PeakRssMb();
    }
    if (i + 1 >= kMinOps && SecondsSince(start) >= args.seconds)
      break;
  }
}

/** Metric name -> value, in a fixed order. */
using Metrics = std::vector<std::pair<std::string, double>>;

Metrics
EndToEnd(const RunResult& run)
{
  std::vector<double> setup;
  std::vector<double> op;
  for (const OpOutcome& o : run.timed) {
    setup.push_back(o.setup_s);
    op.push_back(o.op_s);
  }
  // Co-tenant slowdowns on a shared host last seconds and lift the upper
  // part of the distribution in whole runs; its 10th percentile moved
  // half as much as its median from run to run.
  return {{"setup_s", Median(setup)},
          {"op_p10_s", Percentile(op, 10.0)},
          {"peak_rss_mb", run.peak_rss_mb}};
}

Metrics
PerLayer(const RunResult& run)
{
  const Layers& l = run.layers;
  const double ops = std::max(1, l.ops);
  const auto per_op = [&l, ops](const std::string& name) {
    return l.Get(name) / ops;
  };
  std::vector<double> tts;
  std::vector<double> enforce;
  std::vector<double> stranded;
  std::vector<double> placed;
  double attempted = 0.0;
  double failed = 0.0;
  std::vector<double> plain_op_s;
  for (const OpOutcome& o : run.timed) {
    tts.insert(tts.end(), o.time_to_safe_s.begin(), o.time_to_safe_s.end());
    enforce.insert(enforce.end(), o.enforce_s.begin(), o.enforce_s.end());
    stranded.insert(stranded.end(), o.stranded.begin(), o.stranded.end());
    placed.insert(placed.end(), o.placed.begin(), o.placed.end());
    attempted += o.attempted;
    failed += o.failed;
    plain_op_s.push_back(o.op_s);
  }
  const auto max_of = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
  };
  const double events = l.Get("sim.events");
  const double step_s = l.Get("emulation.step.host_s");
  const double decide_s = l.Get("online.decide.host_s");
  const double merge_s = l.Get("fleet.merge_host_s");
  const double lp_solves = l.Get("solver.lp_solves");
  return {
      {"sim.events", per_op("sim.events")},
      {"sim.events_per_s", Ratio(events, l.body_host_s)},
      {"sim.host_ns_per_event", 1e9 * Ratio(l.body_host_s, events)},
      {"emulation.step.calls", per_op("emulation.step.calls")},
      {"emulation.step.host_s", per_op("emulation.step.host_s")},
      {"emulation.step.share", Ratio(step_s, l.body_host_s)},
      {"emulation.stage.steady.host_s",
       per_op("emulation.stage.steady.host_s")},
      {"emulation.stage.failover.host_s",
       per_op("emulation.stage.failover.host_s")},
      {"emulation.stage.recovery.host_s",
       per_op("emulation.stage.recovery.host_s")},
      {"emulation.unattributed.host_s",
       (l.body_host_s - step_s - decide_s) / ops},
      {"power.monitor_ticks", per_op("power.monitor_ticks")},
      {"power.aggregate_deltas", per_op("power.aggregate_deltas")},
      {"power.aggregate_resyncs", per_op("power.aggregate_resyncs")},
      {"telemetry.readings", per_op("telemetry.readings")},
      {"telemetry.data_latency_p999_s",
       Ratio(l.Get("telemetry.data_latency_p999_s"), l.Get("episodes"))},
      {"online.decide.calls", per_op("online.decide.calls")},
      {"online.decide.host_us_p50", l.decide_us.Quantile(0.50)},
      {"online.decide.host_us_p99", l.decide_us.Quantile(0.99)},
      {"online.overdraw_events", per_op("online.overdraw_events")},
      {"online.throttle_commands", per_op("online.throttle_commands")},
      {"online.shutdown_commands", per_op("online.shutdown_commands")},
      {"actuation.commands", per_op("actuation.commands")},
      {"actuation.failed_commands", per_op("actuation.failed_commands")},
      {"obs.store_samples", per_op("obs.store_samples")},
      {"obs.alerts_fired", per_op("obs.alerts_fired")},
      {"fleet.step_host_s", per_op("fleet.step_host_s")},
      {"fleet.merge_host_s", per_op("fleet.merge_host_s")},
      {"fleet.merge_share", Ratio(merge_s, merge_s + l.Get("fleet.step_host_s"))},
      {"fleet.lane_busy_s", per_op("fleet.lane_busy_s")},
      {"fleet.lane_utilization", per_op("fleet.lane_utilization")},
      {"fleet.epochs", per_op("fleet.epochs")},
      {"offline.place.calls", per_op("offline.place.calls")},
      {"offline.place.host_s", per_op("offline.place.host_s")},
      {"offline.solve_batch.calls", per_op("offline.solve_batch.calls")},
      {"offline.solve_batch.host_s", per_op("offline.solve_batch.host_s")},
      {"solver.nodes", per_op("solver.nodes")},
      {"solver.lp_solves", per_op("solver.lp_solves")},
      {"solver.pivots", per_op("solver.pivots")},
      {"solver.dual_pivots", per_op("solver.dual_pivots")},
      {"solver.refactors", per_op("solver.refactors")},
      {"solver.eta_updates", per_op("solver.eta_updates")},
      {"solver.warm_dual_restarts", per_op("solver.warm_dual_restarts")},
      {"solver.propagated_bounds", per_op("solver.propagated_bounds")},
      {"solver.propagation_prunes", per_op("solver.propagation_prunes")},
      {"solver.presolve_rows_removed", per_op("solver.presolve_rows_removed")},
      {"solver.basis_hit_rate",
       Ratio(l.Get("solver.basis_hits"), l.Get("solver.basis_attempts"))},
      {"solver.refactors_per_lp", Ratio(l.Get("solver.refactors"), lp_solves)},
      {"solver.host_us_per_pivot",
       1e6 * Ratio(l.Get("solver.host_s"), l.Get("solver.pivots") +
                                                l.Get("solver.dual_pivots"))},
      {"solver.final_gap_mean",
       Ratio(l.Get("solver.final_gap"), l.Get("solver.batches"))},
      {"solver.root_host_s", per_op("solver.root_host_s")},
      {"solver.tree_host_s", per_op("solver.tree_host_s")},
      {"alloc.setup_count", per_op("alloc.setup_count")},
      {"alloc.run_count", per_op("alloc.run_count")},
      {"alloc.run_bytes", per_op("alloc.run_bytes")},
      {"alloc.run_per_sim_s",
       Ratio(l.Get("alloc.run_count"), l.sim_room_seconds)},
      {"quality.fail_frac", Ratio(failed, attempted)},
      {"quality.stranded_pct", 100.0 * Mean(stranded)},
      {"quality.placed_pct", 100.0 * Mean(placed)},
      {"quality.time_to_safe_p50_s", Median(tts)},
      {"quality.time_to_safe_max_s", max_of(tts)},
      {"quality.enforce_p50_s", Median(enforce)},
      {"quality.enforce_max_s", max_of(enforce)},
      {"trace.overhead_pct",
       100.0 * (Ratio(Median(run.traced_op_s), Median(plain_op_s)) - 1.0)},
  };
}

// --- Output -----------------------------------------------------------------

std::string
JsonNumber(double value)
{
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string
JsonObject(const Metrics& metrics)
{
  std::string out = "{";
  for (const auto& [name, value] : metrics) {
    if (out.size() > 1)
      out += ",";
    out += "\"" + name + "\":" + JsonNumber(value);
  }
  return out + "}";
}

std::string
UtcNow()
{
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

std::string
Provenance(const Args& args)
{
  return std::string("{\"build_type\":\"") + FLEXBENCH_BUILD_TYPE +
         "\",\"compiler\":\"" + FLEXBENCH_COMPILER +
         "\",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"lanes\":" + std::to_string(kThreads) + ",\"solver_threads\":" +
         std::to_string(common::ThreadPool::ConfiguredThreads()) +
         ",\"seed\":" + std::to_string(args.seed) + ",\"utc\":\"" +
         UtcNow() + "\"}";
}

/** Prints the run's record as one JSON line; @return its correctness. */
bool
PrintRecord(const std::string& name, const Args& args, bool traced,
            const RunResult& run)
{
  int attempted = 0;
  int failed = 0;
  std::string digests = "[";
  for (const OpOutcome& op : run.timed) {
    attempted += op.attempted;
    failed += op.failed;
    char buf[24];
    std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                  static_cast<unsigned long long>(op.digest));
    digests += (digests.size() > 1 ? "," : "") + std::string(buf);
  }
  digests += "]";
  std::string errors = "[";
  for (const std::string& error : run.errors)
    errors += (errors.size() > 1 ? ",\"" : "\"") + error + "\"";
  errors += "]";
  const bool correct = run.errors.empty();

  std::string record = "{\"workload\":\"" + name + "\",\"seed\":" +
                       std::to_string(args.seed) +
                       ",\"traced\":" + (traced ? "true" : "false") +
                       ",\"smoke\":" + (args.smoke ? "true" : "false") +
                       ",\"correct\":" + (correct ? "true" : "false") +
                       ",\"errors\":" + errors +
                       ",\"attempted\":" + std::to_string(attempted) +
                       ",\"failed\":" + std::to_string(failed) +
                       ",\"ops\":" + std::to_string(run.timed.size()) +
                       ",\"digests\":" + digests +
                       ",\"provenance\":" + Provenance(args) +
                       ",\"end_to_end\":" + JsonObject(EndToEnd(run));
  if (traced) {
    Metrics self;
    for (const auto& [span, seconds] : run.spans.SelfSeconds())
      self.emplace_back(span, seconds);
    record += ",\"per_layer\":" + JsonObject(PerLayer(run)) +
              ",\"self_s\":" + JsonObject(self);
  }
  std::printf("%s}\n", record.c_str());
  return correct;
}

int
Usage()
{
  std::fprintf(stderr,
               "usage: flexbench --workload "
               "placement|megaroom|paper_failover|fleet --seed N "
               "[--seconds T] [--trace FILE] [--smoke]\n"
               "       (--smoke without --workload runs all four)\n");
  return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args.trace_path = argv[++i];
    } else {
      return Usage();
    }
  }
  if (args.smoke)
    args.seconds = 0.0;
  std::vector<std::string> names;
  if (!args.workload.empty())
    names.push_back(args.workload);
  else if (args.smoke)
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  else
    return Usage();

  // The solver's shared pool reads this on first use.
  setenv("FLEX_SOLVER_THREADS", std::to_string(kThreads).c_str(),
         /*overwrite=*/1);
  obs::SetLogLevel(obs::LogLevel::kError);

  const bool traced = !args.trace_path.empty();
  std::FILE* span_file = nullptr;
  if (traced) {
    span_file = std::fopen(args.trace_path.c_str(), "w");
    if (span_file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_path.c_str());
      return 2;
    }
  }
  bool all_correct = true;
  for (const std::string& name : names) {
    const Workload workload = MakeWorkload(name, args.smoke);
    if (!workload) {
      if (span_file != nullptr)
        std::fclose(span_file);
      return Usage();
    }
    std::printf("flexbench %s seed %llu%s%s\n", name.c_str(),
                static_cast<unsigned long long>(args.seed),
                traced ? " traced" : "", args.smoke ? " smoke" : "");
    RunResult run;
    RunWorkload(workload, args, traced, run);
    if (traced) {
      run.spans.WriteJsonl(span_file, name);
      std::printf("  self time by span:");
      for (const auto& [span, seconds] : run.spans.SelfSeconds())
        std::printf(" %s %.4f s;", span.c_str(), seconds);
      std::printf("\n");
    }
    for (const std::string& error : run.errors)
      std::fprintf(stderr, "FAIL %s: %s\n", name.c_str(), error.c_str());
    all_correct = PrintRecord(name, args, traced, run) && all_correct;
  }
  if (span_file != nullptr && std::fclose(span_file) != 0) {
    std::fprintf(stderr, "cannot finish %s\n", args.trace_path.c_str());
    return 1;
  }
  return all_correct ? 0 : 1;
}
