/**
 * @file
 * Allocation gate for the steady-state hot paths: the event kernel's
 * periodic timers and the telemetry pipeline's poll ticks.
 *
 * The binary replaces the global operator new / delete with counting
 * versions (as benchmark/alloc_counter.cpp does for flexbench), so a
 * test can count the heap allocations one window of simulated time
 * makes after warm-up. It is its own binary because the replacement is
 * process-wide.
 */
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "telemetry/pipeline.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void*
CountedAlloc(std::size_t size)
{
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size))
    return ptr;
  throw std::bad_alloc();
}

}  // namespace

// Over-aligned and nothrow forms keep their library defaults: those pair
// with each other, and the nothrow forms forward to the ones below.
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

void
operator delete(void* ptr) noexcept
{
  std::free(ptr);
}

void
operator delete[](void* ptr) noexcept
{
  std::free(ptr);
}

void
operator delete(void* ptr, std::size_t) noexcept
{
  std::free(ptr);
}

void
operator delete[](void* ptr, std::size_t) noexcept
{
  std::free(ptr);
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
      [&ups_readings, &rack_readings](const telemetry::DeviceReading& r) {
        ++(r.device.kind == telemetry::DeviceKind::kUps ? ups_readings
                                                        : rack_readings);
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

}  // namespace
}  // namespace flex
