/**
 * @file
 * Allocation gates for the steady-state hot paths and the per-rack
 * memory footprint: the event kernel's periodic timers and the
 * telemetry pipeline's poll ticks must not allocate, and a room must
 * cost at most a fixed number of live heap bytes per rack.
 *
 * The binary replaces the global operator new / delete with counting
 * versions (as benchmark/alloc_counter.cpp does for flexbench), so a
 * test can count the heap allocations one window of simulated time
 * makes after warm-up, and the live bytes a room holds. Each block
 * carries a small header with its requested size, so the byte count is
 * the same under any malloc, sanitizer allocators included. It is its
 * own binary because the replacement is process-wide.
 */
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "actuation/rack_manager.hpp"
#include "emulation/room_emulation.hpp"
#include "fault/fault_run.hpp"
#include "fault/invariant_monitor.hpp"
#include "online/controller.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/pipeline.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

/** Header before each block: its requested size, padded to keep alignment. */
constexpr std::size_t kHeader = alignof(std::max_align_t);

void*
CountedAlloc(std::size_t size)
{
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* raw = std::malloc(size + kHeader)) {
    *static_cast<std::size_t*>(raw) = size;
    g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                           std::memory_order_relaxed);
    return static_cast<char*>(raw) + kHeader;
  }
  throw std::bad_alloc();
}

void
CountedFree(void* ptr) noexcept
{
  if (ptr == nullptr)
    return;
  void* raw = static_cast<char*>(ptr) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(*static_cast<std::size_t*>(raw)),
      std::memory_order_relaxed);
  std::free(raw);
}

void*
CountedAllocNothrow(std::size_t size) noexcept
{
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

// Every non-aligned form is replaced, so a block from any of them can be
// freed by any delete (as the standard allows). The over-aligned forms
// keep their library defaults: those pair only with each other.
void*
operator new(std::size_t size)
{
  return CountedAlloc(size);
}

void*
operator new[](std::size_t size)
{
  return CountedAlloc(size);
}

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
  return CountedAllocNothrow(size);
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
  return CountedAllocNothrow(size);
}

void
operator delete(void* ptr) noexcept
{
  CountedFree(ptr);
}

void
operator delete[](void* ptr) noexcept
{
  CountedFree(ptr);
}

void
operator delete(void* ptr, std::size_t) noexcept
{
  CountedFree(ptr);
}

void
operator delete[](void* ptr, std::size_t) noexcept
{
  CountedFree(ptr);
}

void
operator delete(void* ptr, const std::nothrow_t&) noexcept
{
  CountedFree(ptr);
}

void
operator delete[](void* ptr, const std::nothrow_t&) noexcept
{
  CountedFree(ptr);
}

namespace flex {
namespace {

/** Heap allocations made while @p run runs. */
template <typename Run>
std::uint64_t
AllocationsDuring(Run run)
{
  g_allocations.store(0);
  g_counting.store(true);
  run();
  g_counting.store(false);
  return g_allocations.load();
}

/**
 * Reallocations of a capacity-doubling std::vector (libstdc++, libc++)
 * grown by push_back from @p from to @p to elements: one each time the
 * size reaches a power of two.
 */
std::uint64_t
DoublingGrowths(std::size_t from, std::size_t to)
{
  std::uint64_t growths = 0;
  for (std::size_t size = from; size < to; ++size)
    growths += (size & (size - 1)) == 0 ? 1 : 0;
  return growths;
}

TEST(AllocationGateTest, PeriodicTicksDoNotAllocate)
{
  sim::EventQueue queue;
  std::uint64_t ticks = 0;
  // 1/256 s is exact in binary, so tick times do not drift.
  queue.SchedulePeriodic(Seconds(1.0 / 256.0), [&ticks] {
    ++ticks;
    return true;
  });
  // Warm-up: past one 51.2 s wheel revolution, every bucket the timer
  // visits and the far heap it crosses at each rebase have capacity.
  queue.RunUntil(Seconds(60.0));
  const std::uint64_t warm = ticks;
  const std::uint64_t allocations = AllocationsDuring(
      [&queue] { queue.RunUntil(Seconds(60.0 + 10000.0 / 256.0)); });
  EXPECT_EQ(ticks - warm, 10000u);
  EXPECT_EQ(allocations, 0u);
}

/** Constant truth power for every device. */
class SteadySource : public telemetry::PowerSource {
 public:
  Watts
  CurrentPower(telemetry::DeviceId device) const override
  {
    return KiloWatts(10.0 + device.index);
  }
};

TEST(AllocationGateTest, SteadyStatePollTicksAllocateOnlyForLatencyRuns)
{
  // Rack and UPS poll ticks through two pollers and two buses, racks in
  // poll groups. Batches, scratch buffers, delivery closures and queue
  // entries are all recycled; only the latency summary grows, by one
  // run per delivered batch latency it has not seen last, in a vector
  // that doubles. Every batch holds 8 readings, so a recycled batch
  // never has to regrow.
  const int num_ups = 8;
  const int num_racks = 32;
  sim::EventQueue queue;
  const SteadySource source;
  const telemetry::PipelineConfig config;
  ASSERT_EQ(config.num_pollers, 2);
  ASSERT_EQ(config.num_buses, 2);
  telemetry::TelemetryPipeline pipeline(queue, source, num_ups, num_racks,
                                        config, 7);
  std::vector<std::vector<int>> groups(4);
  for (int rack = 0; rack < num_racks; ++rack)
    groups[static_cast<std::size_t>(rack % 4)].push_back(rack);
  pipeline.SetRackPollGroups(groups);
  std::uint64_t ups_readings = 0;
  std::uint64_t rack_readings = 0;
  pipeline.Subscribe(
      [&ups_readings, &rack_readings](const telemetry::ReadingBatch& batch) {
        (batch.kind == telemetry::DeviceKind::kUps ? ups_readings
                                                   : rack_readings) +=
            batch.readings.size();
      });
  pipeline.Start();
  queue.RunUntil(Seconds(120.0));  // warm-up, past one wheel revolution

  const std::uint64_t ups_before = ups_readings;
  const std::uint64_t rack_before = rack_readings;
  const std::size_t runs_before = pipeline.latency().run_count();
  const std::uint64_t allocations =
      AllocationsDuring([&queue] { queue.RunUntil(Seconds(220.0)); });
  const std::size_t runs_after = pipeline.latency().run_count();

  // 100 s: 100 rack ticks (2 s period) and 133 UPS ticks (1.5 s) over
  // the two pollers, each delivered on both buses.
  EXPECT_GE(rack_readings - rack_before, 100u * num_racks * 2);
  EXPECT_GE(ups_readings - ups_before, 100u * num_ups * 2);
  EXPECT_GT(runs_after, runs_before);
  EXPECT_LE(allocations, DoublingGrowths(runs_before, runs_after))
      << "runs " << runs_before << " -> " << runs_after;
}

/** Allocations over one steady-state window of a fuzz room. */
struct MonitoredWindow {
  std::uint64_t allocations = 0;
  std::uint64_t checks = 0;  ///< invariant checks run in the window
};

/**
 * Runs the fuzz room for seed 21 to 60 s, then counts the allocations
 * of the next 50 s, with an invariant monitor attached as
 * fault::RunPlan attaches one when @p monitored.
 */
MonitoredWindow
FuzzRoomWindow(bool monitored)
{
  emulation::EmulationConfig config = fault::FuzzRoomConfig();
  config.seed = 21;
  emulation::RoomEmulation room(config);
  std::unique_ptr<fault::InvariantMonitor> monitor;
  if (monitored) {
    monitor = std::make_unique<fault::InvariantMonitor>(
        room.queue(), room.topology(), room.rack_categories(), room.plane(),
        room.ups_loads());
    for (const auto& controller : room.controllers())
      monitor->AddController(controller.get());
    monitor->Attach();
  }
  room.StartTimeline();
  room.AdvanceTo(Seconds(60.0));
  MonitoredWindow window;
  const std::uint64_t checks_before = monitored ? monitor->checks_run() : 0;
  window.allocations =
      AllocationsDuring([&room] { room.AdvanceTo(Seconds(110.0)); });
  if (monitored)
    window.checks = monitor->checks_run() - checks_before;
  return window;
}

TEST(AllocationGateTest, AttachedInvariantMonitorAddsNoAllocations)
{
  // The monitor checks after every event. It reads the room's running
  // UPS loads in place, so once warm a check allocates nothing: the
  // monitored room allocates exactly what the same room does bare.
  const MonitoredWindow bare = FuzzRoomWindow(false);
  const MonitoredWindow monitored = FuzzRoomWindow(true);
  EXPECT_GT(monitored.checks, 250u);
  EXPECT_EQ(monitored.allocations, bare.allocations)
      << monitored.checks << " checks";
}

// --- Live heap bytes per rack ------------------------------------------------

/** Live heap bytes (requested sizes) right now. */
std::int64_t
LiveBytes()
{
  return g_live_bytes.load();
}

/**
 * The 2,240-rack N+1 room of the fleet workload (8 UPSes, 28 PDU
 * pairs) with @p rows_per_pdu_pair rows under each pair: 4 gives 2,240
 * racks, 8 its 4,480-rack double on the same UPSes and PDU pairs.
 */
emulation::EmulationConfig
FleetRoom(int rows_per_pdu_pair)
{
  emulation::EmulationConfig config;
  power::RoomConfig& room = config.room;
  room.num_ups = 8;
  room.redundancy_y = 7;
  room.ups_capacity = MegaWatts(4.0);
  room.pdu_pairs_per_ups_pair = 1;
  room.rows_per_pdu_pair = rows_per_pdu_pair;
  room.racks_per_row = 20;
  room.pdu_rating = MegaWatts(2.5);
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(60.0);
  config.restore_at = Seconds(100.0);
  config.end_at = Seconds(1000.0);
  config.pipeline.rack_poll_period = Seconds(30.0);
  config.alerts.enabled = true;
  config.placement_solve_seconds = 1e9;
  config.placement_max_nodes = 1;
  return config;
}

/** Where 150 s of the fleet room leaves rack-poll batches in flight. */
constexpr double kHorizonSeconds = 150.0;

/** Live bytes a room holds once built and advanced to the horizon. */
struct RoomBytes {
  int racks = 0;
  std::int64_t room = 0;
  // The same layers built standalone at the room's size.
  std::int64_t telemetry = 0;
  std::int64_t actuation = 0;
  std::int64_t online = 0;
};

/** Constant truth power for every device. */
class FlatSource : public telemetry::PowerSource {
 public:
  Watts
  CurrentPower(telemetry::DeviceId device) const override
  {
    return KiloWatts(10.0 + device.index % 7);
  }
};

RoomBytes
MeasureRoom(int rows_per_pdu_pair)
{
  RoomBytes bytes;
  const emulation::EmulationConfig config = FleetRoom(rows_per_pdu_pair);
  const std::int64_t before = LiveBytes();
  auto room = std::make_unique<emulation::RoomEmulation>(config);
  room->StartTimeline();
  room->AdvanceTo(Seconds(kHorizonSeconds));
  bytes.room = LiveBytes() - before;
  bytes.racks = room->total_racks();

  // The per-layer split: each layer's per-rack objects built on their
  // own at the same size, wired the way the room wires them.
  const power::RoomTopology& topology = room->topology();
  const int n = bytes.racks;
  {
    const std::int64_t start = LiveBytes();
    sim::EventQueue queue;
    const FlatSource source;
    telemetry::TelemetryPipeline pipeline(queue, source, topology.NumUpses(),
                                          n, config.pipeline, 1);
    std::vector<std::vector<int>> groups(
        static_cast<std::size_t>(topology.NumUpses()));
    for (int rack = 0; rack < n; ++rack)
      groups[static_cast<std::size_t>(rack % topology.NumUpses())].push_back(
          rack);
    pipeline.SetRackPollGroups(std::move(groups));
    pipeline.Subscribe([](const telemetry::ReadingBatch&) {});
    pipeline.Start();
    queue.RunUntil(Seconds(kHorizonSeconds));
    bytes.telemetry = LiveBytes() - start;
  }
  sim::EventQueue queue;
  {
    const std::int64_t start = LiveBytes();
    actuation::ActuationPlane plane(queue, n, config.rack_manager, 1);
    plane.SetStateListener([](int) {});
    bytes.actuation = LiveBytes() - start;
  }
  {
    actuation::ActuationPlane plane(queue, 1, config.rack_manager, 1);
    const std::int64_t start = LiveBytes();
    std::vector<online::ManagedRack> racks(static_cast<std::size_t>(n));
    for (online::ManagedRack& rack : racks)
      rack.workload = "tpce-capable";
    const online::RackTable table =
        std::make_shared<const std::vector<online::ManagedRack>>(
            std::move(racks));
    std::vector<std::unique_ptr<online::FlexController>> replicas;
    for (int c = 0; c < config.num_controllers; ++c) {
      replicas.push_back(std::make_unique<online::FlexController>(
          queue, topology, table, plane, online::ImpactRegistry{},
          config.controller, c));
    }
    bytes.online = LiveBytes() - start;
  }
  return bytes;
}

/** Most live heap bytes one more rack may add to a room. */
constexpr double kMaxBytesPerRack = 700.0;

TEST(BytesPerRackGateTest, MarginalRoomBytesPerRackStayUnderBudget)
{
  // Room-wide state is stored once per room, so a room's live heap
  // grows with racks by only the per-rack state. Two rooms of one shape
  // (same UPSes and PDU pairs, double the rows) cancel every room-wide
  // byte; what remains, divided by the extra racks, is the marginal
  // cost of one rack: its meters, rack manager, controller-replica
  // state, emulation state and in-flight telemetry.
  MeasureRoom(4);  // warm-up: process-wide lazies are not the room's
  const RoomBytes small = MeasureRoom(4);
  const RoomBytes large = MeasureRoom(8);
  ASSERT_EQ(small.racks, 2240);
  ASSERT_EQ(large.racks, 4480);

  const double racks = large.racks - small.racks;
  const auto per_rack = [racks](std::int64_t a, std::int64_t b) {
    return static_cast<double>(b - a) / racks;
  };
  const double total = per_rack(small.room, large.room);
  const double telemetry = per_rack(small.telemetry, large.telemetry);
  const double actuation = per_rack(small.actuation, large.actuation);
  const double online = per_rack(small.online, large.online);
  std::printf("marginal live heap bytes per rack: %.1f\n"
              "  telemetry %.1f\n  actuation %.1f\n  online %.1f\n"
              "  emulation and the rest %.1f\n",
              total, telemetry, actuation, online,
              total - telemetry - actuation - online);
  EXPECT_LE(total, kMaxBytesPerRack) << "per-layer split printed above";
}

}  // namespace
}  // namespace flex
