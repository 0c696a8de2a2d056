/**
 * @file
 * Statistical rack power-draw model.
 *
 * Substitutes for the paper's historical per-rack power telemetry: racks
 * draw a random fraction of their allocated power (truncated normal),
 * then the snapshot is rescaled so the room-wide aggregate hits an exact
 * target utilization — matching how the paper drives Fig. 12's X-axis.
 */
#ifndef FLEX_WORKLOAD_RACK_POWER_HPP_
#define FLEX_WORKLOAD_RACK_POWER_HPP_

#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace flex::workload {

/** Distributional knobs for per-rack utilization. */
struct RackPowerModelConfig {
  /** Mean utilization of allocated rack power. */
  double mean_utilization = 0.72;
  /** Truncation bounds. */
  double min_utilization = 0.30;
  double max_utilization = 1.00;
};

/**
 * Draws rack power snapshots from the configured distribution.
 */
class RackPowerModel {
 public:
  explicit RackPowerModel(RackPowerModelConfig config = {});

  /**
   * A snapshot of per-rack draws for racks with the given allocations.
   * No rescaling: each rack draws an independent utilization.
   */
  std::vector<Watts> Sample(const std::vector<Watts>& allocations,
                            Rng& rng) const;

  /**
   * A snapshot whose aggregate equals @p target_utilization of the total
   * allocation exactly (per-rack draws keep their relative shape but are
   * scaled, respecting the per-rack allocation ceiling).
   */
  std::vector<Watts> SampleAtUtilization(const std::vector<Watts>& allocations,
                                         double target_utilization,
                                         Rng& rng) const;

  const RackPowerModelConfig& config() const { return config_; }

 private:
  RackPowerModelConfig config_;
};

}  // namespace flex::workload

#endif  // FLEX_WORKLOAD_RACK_POWER_HPP_
