/**
 * @file
 * Flex power estimation for external cap-able workloads.
 *
 * Paper Section IV-B: for provider-owned workloads the flex power value
 * comes from benchmarking, but for external workloads (e.g. customer
 * VMs) Flex "leverages historical power utilization coupled with
 * statistical multiplexing to bound the average power reduction to an
 * acceptable threshold (e.g. 10-15%) at high utilization" — without any
 * knowledge of individual workloads, only historical rack power
 * profiles. This module implements that estimator.
 */
#ifndef FLEX_WORKLOAD_FLEX_POWER_ESTIMATOR_HPP_
#define FLEX_WORKLOAD_FLEX_POWER_ESTIMATOR_HPP_

#include <vector>

#include "common/units.hpp"

namespace flex::workload {

/** Tuning for the flex power estimator. */
struct FlexPowerEstimatorConfig {
  /** Search bounds for the resulting flex power fraction. */
  double min_fraction = 0.50;
  double max_fraction = 1.00;
};

/**
 * Estimates the lowest safe flex power fraction from historical rack
 * utilization samples.
 */
class FlexPowerEstimator {
 public:
  explicit FlexPowerEstimator(FlexPowerEstimatorConfig config = {});

  /**
   * Given historical per-rack utilization samples (fractions of rack
   * allocation, pooled across the deployment's racks and time), returns
   * the smallest flex power fraction whose expected reduction at high
   * utilization stays within a 10% average reduction.
   *
   * Statistical multiplexing is what makes this work: capping a rack at
   * c only removes max(0, u - c) from samples above c, and averaging
   * across many racks bounds the aggregate impact even though any one
   * rack may occasionally be deep-throttled.
   */
  double EstimateFraction(const std::vector<double>& utilization_samples)
      const;

  /**
   * Average power reduction (fraction of draw) that capping at
   * @p fraction would have caused over the high-utilization samples.
   */
  double AverageReductionAt(const std::vector<double>& utilization_samples,
                            double fraction) const;

  const FlexPowerEstimatorConfig& config() const { return config_; }

 private:
  /** High-utilization subset of the samples. */
  std::vector<double> HighSamples(
      const std::vector<double>& utilization_samples) const;

  FlexPowerEstimatorConfig config_;
};

}  // namespace flex::workload

#endif  // FLEX_WORKLOAD_FLEX_POWER_ESTIMATOR_HPP_
