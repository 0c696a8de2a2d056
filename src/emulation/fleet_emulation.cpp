#include "fleet_emulation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace flex::emulation {

namespace {

double
WallSeconds(std::chrono::steady_clock::time_point start)
{
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/**
 * Most merge barriers one run may take. A shorter epoch is rejected:
 * tiny epochs make no progress (1e-300 s steps advance the clock in
 * subnormal increments), and a barrier per microsecond of a 1,000 s
 * timeline is already far past useful.
 */
constexpr double kMaxFleetBarriers = 1e6;

/** Rejects fleet shapes that cannot run, before any lane exists. */
FleetConfig
Validated(FleetConfig config)
{
  FLEX_REQUIRE(config.rooms >= 1, "fleet needs at least one room");
  const double epoch = config.epoch.value();
  FLEX_REQUIRE(std::isfinite(epoch) && epoch > 0.0,
               "fleet epoch must be positive and finite");
  FLEX_REQUIRE(config.room.end_at.value() / epoch <= kMaxFleetBarriers,
               "fleet epoch is too short: room.end_at / epoch exceeds "
               "1e6 barriers");
  FLEX_REQUIRE(std::isfinite(config.substation.capacity.value()),
               "fleet substation.capacity must be finite");
  return config;
}

}  // namespace

FleetEmulation::FleetEmulation(FleetConfig config)
    : config_(Validated(std::move(config))),
      lanes_(config_.threads, static_cast<std::size_t>(config_.rooms))
{
  const auto n = static_cast<std::size_t>(config_.rooms);
  // Build every room serially, in room order: construction runs the
  // wall-clock-budgeted Flex-Offline placement (and may lean on the
  // shared solver pool), so building under lane contention would change
  // the placement and break bit-identity. Only the event loops fan out.
  rooms_.reserve(n);
  for (int r = 0; r < config_.rooms; ++r) {
    EmulationConfig room_config = config_.room;
    room_config.seed = config_.room.seed + static_cast<std::uint64_t>(r);
    room_config.obs = nullptr;  // the registry is single-threaded
    // live deliberately stays shared across lanes: LiveHub is a
    // thread-safe last-writer-wins mailbox and each room registers its
    // own watchdog heartbeat.
    rooms_.push_back(std::make_unique<RoomEmulation>(std::move(room_config)));
    rooms_.back()->StartTimeline();
  }

  report_.lanes = lanes_.size();
  views_.resize(n);
  epoch_hashes_.assign(n, 0);
  epoch_events_.assign(n, 0);
  room_busy_seconds_.assign(n, 0.0);
  alert_consumed_.assign(n, 0);
  report_.rooms.resize(n);
  for (const auto& room : rooms_)
    report_.total_racks += room->total_racks();
}

FleetEmulation::~FleetEmulation() = default;

int
FleetEmulation::total_racks() const
{
  return report_.total_racks;
}

const RoomEmulation&
FleetEmulation::room(int index) const
{
  return *rooms_.at(static_cast<std::size_t>(index));
}

void
FleetEmulation::StepEpoch(Seconds horizon)
{
  epoch_horizon_ = horizon;
  // [this, r] captures fit std::function's small-object buffer, so the
  // per-epoch cost is one O(rooms) task vector — the lanes themselves
  // step without allocating (the rooms pre-reserved their series).
  std::vector<std::function<void()>> tasks;
  tasks.reserve(rooms_.size());
  for (int r = 0; r < config_.rooms; ++r) {
    tasks.push_back([this, r] {
      const auto start = std::chrono::steady_clock::now();
      const auto i = static_cast<std::size_t>(r);
      epoch_events_[i] = rooms_[i]->AdvanceTo(epoch_horizon_);
      room_busy_seconds_[i] += WallSeconds(start);
    });
  }
  const auto step_start = std::chrono::steady_clock::now();
  lanes_.Run(std::move(tasks));
  report_.step_wall_seconds += WallSeconds(step_start);

  const auto merge_start = std::chrono::steady_clock::now();
  MergeBarrier();
  report_.merge_wall_seconds += WallSeconds(merge_start);
}

void
FleetEmulation::MergeBarrier()
{
  // Everything cross-room happens here, single-threaded, in room index
  // order — the merged outputs are pure functions of the epoch-end
  // states, never of lane scheduling.
  double total_mw = 0.0;
  double max_ups_fraction = 0.0;
  std::uint64_t events = 0;
  std::uint64_t racks_off = 0;
  std::uint64_t racks_capped = 0;
  for (std::size_t r = 0; r < rooms_.size(); ++r) {
    const RoomEmulation& room = *rooms_[r];
    RoomEpochView& view = views_[r];
    room.SnapshotEpoch(&view);

    // Chain this epoch's state into the room's lane-identity hash.
    Fnv1a h;
    h.AddU64(epoch_hashes_[r]);
    h.AddDouble(view.t_seconds);
    h.AddDouble(view.total_rack_mw);
    h.AddDouble(view.max_ups_load_fraction);
    h.AddU64(view.events_executed);
    h.AddI64(view.racks_off);
    h.AddI64(view.racks_capped);
    h.AddU64(view.safety_violated ? 1 : 0);
    h.AddU64(view.battery_tripped ? 1 : 0);
    h.AddU64(view.samples_recorded);
    h.AddU64(view.alert_edges);
    h.AddU64(view.alerts_fired);
    epoch_hashes_[r] = h.value();

    total_mw += view.total_rack_mw;
    max_ups_fraction = std::max(max_ups_fraction, view.max_ups_load_fraction);
    events += view.events_executed;
    racks_off += static_cast<std::uint64_t>(view.racks_off);
    racks_capped += static_cast<std::uint64_t>(view.racks_capped);

    // Consume alert edges appended since the previous barrier. Within a
    // room the engine's timeline is time-ordered; visiting rooms in
    // index order makes the fleet timeline epoch-major, room-major,
    // time-minor — the same sequence at any lane count.
    if (const obs::AlertEngine* engine = room.alert_engine()) {
      const std::vector<obs::AlertTransition>& timeline = engine->timeline();
      for (std::size_t e = alert_consumed_[r]; e < timeline.size(); ++e)
        report_.alert_timeline.push_back({static_cast<int>(r), timeline[e]});
      alert_consumed_[r] = timeline.size();
    }
  }
  ++report_.epochs;
  report_.peak_fleet_mw = std::max(report_.peak_fleet_mw, total_mw);

  // Shared-feed verdict from the serial-order sum; fed back to each
  // room as a purely observational gauge (never read by control).
  power::SubstationStatus substation =
      power::EvaluateSubstation(config_.substation, MegaWatts(total_mw));
  if (config_.substation.enabled()) {
    report_.peak_substation_utilization = std::max(
        report_.peak_substation_utilization, substation.utilization);
    if (substation.overloaded)
      ++report_.substation_overload_epochs;
    for (const auto& room : rooms_)
      room->SetFleetOverloadGauge(substation.overload_fraction);
  }

  if (!rollup_built_)
    BuildRollup();
  rollup_.sim_time_seconds = epoch_horizon_.value();
  rollup_.rows[idx_.alert_edges].value =
      static_cast<double>(report_.alert_timeline.size());
  rollup_.rows[idx_.epochs].value = static_cast<double>(report_.epochs);
  rollup_.rows[idx_.events].value = static_cast<double>(events);
  rollup_.rows[idx_.max_ups].value = max_ups_fraction;
  rollup_.rows[idx_.racks_capped].value = static_cast<double>(racks_capped);
  rollup_.rows[idx_.racks_off].value = static_cast<double>(racks_off);
  rollup_.rows[idx_.substation_overload].value = substation.overload_fraction;
  rollup_.rows[idx_.substation_utilization].value = substation.utilization;
  rollup_.rows[idx_.total_mw].value = total_mw;
}

void
FleetEmulation::BuildRollup()
{
  obs::MetricsSnapshotBuilder builder;
  builder.Counter("fleet.alert_edges", 0.0);
  builder.Counter("fleet.epochs", 0.0);
  builder.Counter("fleet.events_executed", 0.0);
  builder.Gauge("fleet.max_ups_load_fraction", 0.0);
  builder.Gauge("fleet.racks_capped", 0.0);
  builder.Gauge("fleet.racks_off", 0.0);
  builder.Gauge("fleet.rooms", static_cast<double>(config_.rooms));
  builder.Gauge("fleet.substation_overload_fraction", 0.0);
  builder.Gauge("fleet.substation_utilization", 0.0);
  builder.Gauge("fleet.total_rack_mw", 0.0);
  builder.Gauge("fleet.total_racks",
                static_cast<double>(report_.total_racks));
  builder.Build(0.0, &rollup_);

  const auto index_of = [this](const char* name) {
    for (std::size_t i = 0; i < rollup_.rows.size(); ++i) {
      if (rollup_.rows[i].name == name)
        return i;
    }
    FLEX_CHECK_MSG(false, "fleet rollup row missing");
    return std::size_t{0};
  };
  idx_.alert_edges = index_of("fleet.alert_edges");
  idx_.epochs = index_of("fleet.epochs");
  idx_.events = index_of("fleet.events_executed");
  idx_.max_ups = index_of("fleet.max_ups_load_fraction");
  idx_.racks_capped = index_of("fleet.racks_capped");
  idx_.racks_off = index_of("fleet.racks_off");
  idx_.substation_overload =
      index_of("fleet.substation_overload_fraction");
  idx_.substation_utilization = index_of("fleet.substation_utilization");
  idx_.total_mw = index_of("fleet.total_rack_mw");
  rollup_built_ = true;
}

FleetReport
FleetEmulation::Run()
{
  const Seconds end = config_.room.end_at;
  Seconds t(0.0);
  while (t < end) {
    t = std::min(Seconds(t.value() + config_.epoch.value()), end);
    StepEpoch(t);
  }

  // Finish is lane-local (drain the delivery tail, assemble the
  // report), so it fans out like an epoch step; the hashes below merge
  // serially afterwards.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(rooms_.size());
  for (int r = 0; r < config_.rooms; ++r) {
    tasks.push_back([this, r] {
      const auto i = static_cast<std::size_t>(r);
      report_.rooms[i].report = rooms_[i]->Finish();
    });
  }
  lanes_.Run(std::move(tasks));

  Fnv1a fleet_hash;
  for (std::size_t r = 0; r < rooms_.size(); ++r) {
    FleetRoomResult& room = report_.rooms[r];
    room.report_hash = HashEmulationReport(room.report);
    room.epoch_hash = epoch_hashes_[r];
    fleet_hash.AddU64(room.epoch_hash);
    fleet_hash.AddU64(room.report_hash);
    report_.events_executed += room.report.events_executed;
  }
  report_.fleet_hash = fleet_hash.value();

  Fnv1a alert_hash;
  for (const FleetAlertEdge& edge : report_.alert_timeline) {
    alert_hash.AddI64(edge.room);
    alert_hash.AddDouble(edge.edge.t);
    alert_hash.AddString(edge.edge.rule);
    alert_hash.AddI64(static_cast<int>(edge.edge.from));
    alert_hash.AddI64(static_cast<int>(edge.edge.to));
    alert_hash.AddDouble(edge.edge.value);
  }
  report_.alert_fingerprint = alert_hash.value();

  for (const double busy : room_busy_seconds_)
    report_.lane_busy_seconds += busy;
  const double total_wall =
      report_.step_wall_seconds + report_.merge_wall_seconds;
  if (total_wall > 0.0)
    report_.merge_overhead_pct = 100.0 * report_.merge_wall_seconds /
                                 total_wall;
  if (report_.lanes > 0 && report_.step_wall_seconds > 0.0) {
    report_.lane_utilization =
        report_.lane_busy_seconds /
        (static_cast<double>(report_.lanes) * report_.step_wall_seconds);
  }
  report_.rollup = rollup_;
  return std::move(report_);
}

}  // namespace flex::emulation
