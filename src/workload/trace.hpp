/**
 * @file
 * Short-term demand trace generation.
 *
 * Substitutes for Microsoft's historical deployment traces with a
 * parameterized synthetic generator matching every statistic the paper
 * publishes (Section V-A): deployment sizes dominated by 20 racks with
 * some 10s and 5s, rack power of 14.4/17.2 kW, a 13%/56%/31% category
 * mix, flex power fractions of 0.75-0.85, and total demand equal to 115%
 * of the room's provisioned power. Shuffled variants study order
 * sensitivity, as the paper's 10 trace variations do.
 */
#ifndef FLEX_WORKLOAD_TRACE_HPP_
#define FLEX_WORKLOAD_TRACE_HPP_

#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "workload/deployment.hpp"

namespace flex::workload {

/** Knobs for the synthetic demand generator. */
struct TraceConfig {
  /** Demand as a multiple of provisioned power (paper: 1.15). */
  double demand_multiple = 1.15;

  /** Category mix (paper Fig. 3 average: 13% / 56% / 31%). */
  double software_redundant_fraction = 0.13;
  double capable_fraction = 0.56;
  // non-capable = remainder

  /** Flex power fraction range for cap-able deployments (paper: .75-.85). */
  double flex_power_min = 0.75;
  double flex_power_max = 0.85;

  /**
   * Optional cap on deployment size; larger requests are split (the
   * paper's deployment-size ablation breaks 20-rack deployments into
   * 10s). 0 disables the cap.
   */
  int max_deployment_racks = 0;

  /** Validates ranges; throws ConfigError on nonsense. */
  void Validate() const;
};

/**
 * Generates one short-term demand trace totalling approximately
 * @p provisioned_power * config.demand_multiple of allocated power.
 *
 * Category assignment is quota-driven: deployments draw from the three
 * category budgets so the realized power mix tracks the configured
 * fractions closely even for small traces.
 */
std::vector<Deployment> GenerateTrace(const TraceConfig& config,
                                      Watts provisioned_power, Rng& rng);

/**
 * Produces @p count order-shuffled variants of @p trace (the first
 * variant is the original order), re-numbering deployment ids so each
 * variant is self-consistent.
 */
std::vector<std::vector<Deployment>> ShuffledVariants(
    const std::vector<Deployment>& trace, int count, Rng& rng);

/**
 * Splits deployments larger than @p max_racks into equal chunks no
 * larger than the cap (the paper's deployment-size study).
 */
std::vector<Deployment> CapDeploymentSizes(
    const std::vector<Deployment>& trace, int max_racks);

/** Fraction of total allocated power per category, for sanity checks. */
struct CategoryMix {
  double software_redundant = 0.0;
  double capable = 0.0;
  double non_capable = 0.0;
};
CategoryMix MixOf(const std::vector<Deployment>& trace);

}  // namespace flex::workload

#endif  // FLEX_WORKLOAD_TRACE_HPP_
