#include "flex_power_estimator.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flex::workload {

namespace {

/**
 * Maximum acceptable *average* power reduction across the racks, as a
 * fraction of their draw, evaluated at high utilization (when
 * Flex-Online may actually engage). Paper: 10-15%.
 */
constexpr double kMaxAverageReduction = 0.10;
/**
 * "High utilization" filter: only historical samples above this
 * fraction of the rack allocation enter the estimate (capping only
 * matters when racks are actually drawing).
 */
constexpr double kHighUtilizationThreshold = 0.70;

}  // namespace

FlexPowerEstimator::FlexPowerEstimator(FlexPowerEstimatorConfig config)
    : config_(config)
{
  FLEX_REQUIRE(config_.min_fraction >= 0.0 &&
                   config_.min_fraction <= config_.max_fraction &&
                   config_.max_fraction <= 1.0,
               "flex fraction search bounds must satisfy 0 <= min <= max <= 1");
}

std::vector<double>
FlexPowerEstimator::HighSamples(
    const std::vector<double>& utilization_samples) const
{
  std::vector<double> high;
  for (const double u : utilization_samples) {
    FLEX_REQUIRE(u >= 0.0 && u <= 1.5,
                 "utilization samples must be sane fractions");
    if (u >= kHighUtilizationThreshold)
      high.push_back(u);
  }
  return high;
}

double
FlexPowerEstimator::AverageReductionAt(
    const std::vector<double>& utilization_samples, double fraction) const
{
  const std::vector<double> high = HighSamples(utilization_samples);
  if (high.empty())
    return 0.0;  // the rack never runs hot: capping costs nothing
  double total_draw = 0.0;
  double total_cut = 0.0;
  for (const double u : high) {
    total_draw += u;
    total_cut += std::max(0.0, u - fraction);
  }
  return total_draw > 0.0 ? total_cut / total_draw : 0.0;
}

double
FlexPowerEstimator::EstimateFraction(
    const std::vector<double>& utilization_samples) const
{
  FLEX_REQUIRE(!utilization_samples.empty(),
               "need historical samples to estimate flex power");
  // Reduction is monotonically non-increasing in the cap fraction, so
  // bisect for the smallest acceptable fraction.
  if (AverageReductionAt(utilization_samples, config_.min_fraction) <=
      kMaxAverageReduction)
    return config_.min_fraction;
  double lo = config_.min_fraction;   // too much reduction
  double hi = config_.max_fraction;   // no reduction (cap at allocation)
  for (int i = 0; i < 50; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (AverageReductionAt(utilization_samples, mid) <= kMaxAverageReduction)
      hi = mid;
    else
      lo = mid;
  }
  return hi;
}

}  // namespace flex::workload
