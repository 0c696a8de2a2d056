#include "rack_power.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flex::workload {

namespace {

/** Standard deviation of utilization across racks. */
constexpr double kUtilizationStddev = 0.10;

}  // namespace

RackPowerModel::RackPowerModel(RackPowerModelConfig config) : config_(config)
{
  FLEX_REQUIRE(config_.min_utilization >= 0.0 &&
                   config_.max_utilization <= 1.0 &&
                   config_.min_utilization <= config_.max_utilization,
               "utilization bounds must satisfy 0 <= min <= max <= 1");
}

std::vector<Watts>
RackPowerModel::Sample(const std::vector<Watts>& allocations, Rng& rng) const
{
  std::vector<Watts> draws;
  draws.reserve(allocations.size());
  for (const Watts allocation : allocations) {
    FLEX_REQUIRE(allocation >= Watts(0.0), "negative rack allocation");
    const double util = rng.TruncatedNormal(
        config_.mean_utilization, kUtilizationStddev, config_.min_utilization,
        config_.max_utilization);
    draws.push_back(allocation * util);
  }
  return draws;
}

std::vector<Watts>
RackPowerModel::SampleAtUtilization(const std::vector<Watts>& allocations,
                                    double target_utilization, Rng& rng) const
{
  FLEX_REQUIRE(target_utilization >= 0.0 && target_utilization <= 1.0,
               "target utilization must be in [0, 1]");
  std::vector<Watts> draws = Sample(allocations, rng);

  Watts total_allocation(0.0);
  for (const Watts a : allocations)
    total_allocation += a;
  if (total_allocation <= Watts(0.0))
    return draws;
  const Watts target = total_allocation * target_utilization;

  // Iteratively scale toward the target; clamping at per-rack allocation
  // means one pass may undershoot, so repeat on the unclamped headroom.
  for (int iteration = 0; iteration < 16; ++iteration) {
    Watts current(0.0);
    for (const Watts d : draws)
      current += d;
    if (current.ApproxEquals(target, 1.0) || current <= Watts(0.0))
      break;
    const double scale = target / current;
    Watts clamped_total(0.0);
    for (std::size_t i = 0; i < draws.size(); ++i) {
      draws[i] = draws[i] * scale;
      if (draws[i] > allocations[i])
        draws[i] = allocations[i];
      clamped_total += draws[i];
    }
    if (clamped_total.ApproxEquals(target, 1.0))
      break;
  }
  return draws;
}

}  // namespace flex::workload
