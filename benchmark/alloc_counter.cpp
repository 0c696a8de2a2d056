#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace flexbench {
namespace {

std::atomic<int> g_phase{0};
std::atomic<std::uint64_t> g_count[3];
std::atomic<std::uint64_t> g_bytes[3];

void*
CountedAlloc(std::size_t size)
{
  if (const int phase = g_phase.load(std::memory_order_relaxed); phase != 0) {
    g_count[phase].fetch_add(1, std::memory_order_relaxed);
    g_bytes[phase].fetch_add(size, std::memory_order_relaxed);
  }
  if (void* ptr = std::malloc(size == 0 ? 1 : size))
    return ptr;
  throw std::bad_alloc();
}

}  // namespace

void
SetAllocPhase(AllocPhase phase)
{
  g_phase.store(static_cast<int>(phase), std::memory_order_relaxed);
}

AllocCounts
TakeAllocCounts(AllocPhase phase)
{
  const auto i = static_cast<int>(phase);
  return {g_count[i].exchange(0, std::memory_order_relaxed),
          g_bytes[i].exchange(0, std::memory_order_relaxed)};
}

}  // namespace flexbench

// Over-aligned and nothrow forms keep their library defaults: those pair
// with each other, and the nothrow forms forward to the ones below.
void*
operator new(std::size_t size)
{
  return flexbench::CountedAlloc(size);
}

void*
operator new[](std::size_t size)
{
  return flexbench::CountedAlloc(size);
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
