/**
 * @file
 * The emulation report fingerprint.
 *
 * Trace-variant sweeps run on FleetEmulation (a fleet with the
 * substation off); this header keeps only the per-report hash, which
 * fleet results, tests and the flexbench harness all compare. It keeps
 * its name because benchmark/flexbench.cpp includes it.
 */
#ifndef FLEX_EMULATION_SWEEP_HPP_
#define FLEX_EMULATION_SWEEP_HPP_

#include <cstdint>

#include "emulation/room_emulation.hpp"

namespace flex::emulation {

/** Deterministic fingerprint of one report's full time series. */
std::uint64_t HashEmulationReport(const EmulationReport& report);

}  // namespace flex::emulation

#endif  // FLEX_EMULATION_SWEEP_HPP_
