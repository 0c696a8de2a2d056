/**
 * @file
 * Bench-only allocation counter.
 *
 * alloc_counter.cpp replaces the global operator new / delete of the
 * flexbench binary (never of the libraries' own tests or tools). While
 * the phase is kOff, which is the whole of every untraced run, an
 * allocation costs one relaxed atomic load and a branch on top of
 * malloc. In kSetup or kRun it also counts the allocation and its
 * requested bytes into that phase's bucket. The counters are atomics
 * because fleet lanes and solver waves allocate on pool threads.
 */
#ifndef FLEXBENCH_ALLOC_COUNTER_HPP_
#define FLEXBENCH_ALLOC_COUNTER_HPP_

#include <cstdint>

namespace flexbench {

enum class AllocPhase { kOff = 0, kSetup = 1, kRun = 2 };

struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/** Routes subsequent allocations, on every thread, into @p phase. */
void SetAllocPhase(AllocPhase phase);

/** Returns the counts gathered in @p phase and zeroes them. */
AllocCounts TakeAllocCounts(AllocPhase phase);

}  // namespace flexbench

#endif  // FLEXBENCH_ALLOC_COUNTER_HPP_
