#include "trace.hpp"

#include <algorithm>
#include <iterator>
#include <span>
#include <string>

#include "common/error.hpp"

namespace flex::workload {

void
TraceConfig::Validate() const
{
  FLEX_REQUIRE(demand_multiple > 0.0, "demand multiple must be positive");
  FLEX_REQUIRE(software_redundant_fraction >= 0.0 && capable_fraction >= 0.0,
               "category fractions must be non-negative");
  FLEX_REQUIRE(software_redundant_fraction + capable_fraction <= 1.0 + 1e-9,
               "category fractions exceed 1");
  FLEX_REQUIRE(flex_power_min >= 0.0 && flex_power_max <= 1.0 &&
                   flex_power_min <= flex_power_max,
               "flex power range must be within [0, 1] and ordered");
  FLEX_REQUIRE(max_deployment_racks >= 0, "negative deployment cap");
}

namespace {

/** Deployment rack-count choices and their weights (paper: mostly 20). */
constexpr int kDeploymentSizes[] = {20, 10, 5};
constexpr double kSizeWeights[] = {0.7, 0.2, 0.1};

/** Per-rack power choices (paper: 14.4 kW and 17.2 kW). */
constexpr Watts kRackPowers[] = {KiloWatts(14.4), KiloWatts(17.2)};

/** Workload names per category; cycled to create multiple workloads. */
const char* const kSoftwareRedundantNames[] = {"websearch", "analytics",
                                               "messaging"};
const char* const kCapableNames[] = {"iaas-vm", "paas-web", "internal-batch"};
const char* const kNonCapableNames[] = {"gpu-train", "storage", "net-app"};

int
PickWeighted(std::span<const double> weights, Rng& rng)
{
  double total = 0.0;
  for (const double w : weights)
    total += w;
  double draw = rng.Uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    draw -= weights[i];
    if (draw <= 0.0)
      return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

}  // namespace

std::vector<Deployment>
GenerateTrace(const TraceConfig& config, Watts provisioned_power, Rng& rng)
{
  config.Validate();
  FLEX_REQUIRE(provisioned_power > Watts(0.0),
               "provisioned power must be positive");

  const Watts target = provisioned_power * config.demand_multiple;

  // Remaining power budget per category; deployments are drawn against
  // the categories with budget left so the realized mix tracks the
  // configured fractions.
  const double non_capable_fraction = std::max(
      0.0, 1.0 - config.software_redundant_fraction - config.capable_fraction);
  Watts budget[3] = {target * config.software_redundant_fraction,
                     target * config.capable_fraction,
                     target * non_capable_fraction};
  int name_counter[3] = {0, 0, 0};

  std::vector<Deployment> trace;
  Watts total(0.0);
  while (total < target) {
    // Pick the category with the largest remaining budget, with a random
    // tie-break to avoid deterministic striping.
    int category = 0;
    for (int c = 1; c < 3; ++c) {
      if (budget[c] > budget[category] ||
          (budget[c].ApproxEquals(budget[category]) && rng.Bernoulli(0.5)))
        category = c;
    }
    if (budget[category] <= Watts(0.0))
      break;  // every category budget exhausted

    Deployment d;
    d.id = static_cast<DeploymentId>(trace.size());
    const int size_index = PickWeighted(kSizeWeights, rng);
    d.num_racks = kDeploymentSizes[static_cast<std::size_t>(size_index)];
    d.power_per_rack = kRackPowers[static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(std::size(kRackPowers)) - 1))];
    switch (category) {
      case 0:
        d.category = Category::kSoftwareRedundant;
        d.workload = kSoftwareRedundantNames[name_counter[0]++ % 3];
        d.flex_power_fraction = 0.0;  // shut down entirely
        break;
      case 1:
        d.category = Category::kNonRedundantCapable;
        d.workload = kCapableNames[name_counter[1]++ % 3];
        d.flex_power_fraction =
            rng.Uniform(config.flex_power_min, config.flex_power_max);
        break;
      default:
        d.category = Category::kNonRedundantNonCapable;
        d.workload = kNonCapableNames[name_counter[2]++ % 3];
        d.flex_power_fraction = 1.0;
        break;
    }
    d.Validate();
    budget[category] -= d.AllocatedPower();
    total += d.AllocatedPower();
    trace.push_back(std::move(d));
  }

  if (config.max_deployment_racks > 0)
    return CapDeploymentSizes(trace, config.max_deployment_racks);
  return trace;
}

std::vector<std::vector<Deployment>>
ShuffledVariants(const std::vector<Deployment>& trace, int count, Rng& rng)
{
  FLEX_REQUIRE(count >= 1, "need at least one variant");
  std::vector<std::vector<Deployment>> variants;
  variants.reserve(static_cast<std::size_t>(count));
  variants.push_back(trace);
  for (int i = 1; i < count; ++i) {
    std::vector<Deployment> shuffled = trace;
    rng.Shuffle(shuffled);
    for (std::size_t j = 0; j < shuffled.size(); ++j)
      shuffled[j].id = static_cast<DeploymentId>(j);
    variants.push_back(std::move(shuffled));
  }
  return variants;
}

std::vector<Deployment>
CapDeploymentSizes(const std::vector<Deployment>& trace, int max_racks)
{
  FLEX_REQUIRE(max_racks > 0, "deployment size cap must be positive");
  std::vector<Deployment> capped;
  for (const Deployment& d : trace) {
    int remaining = d.num_racks;
    while (remaining > 0) {
      Deployment piece = d;
      piece.id = static_cast<DeploymentId>(capped.size());
      piece.num_racks = std::min(remaining, max_racks);
      remaining -= piece.num_racks;
      capped.push_back(std::move(piece));
    }
  }
  return capped;
}

CategoryMix
MixOf(const std::vector<Deployment>& trace)
{
  CategoryMix mix;
  Watts total(0.0);
  Watts per_category[3] = {Watts(0.0), Watts(0.0), Watts(0.0)};
  for (const Deployment& d : trace) {
    total += d.AllocatedPower();
    switch (d.category) {
      case Category::kSoftwareRedundant:
        per_category[0] += d.AllocatedPower();
        break;
      case Category::kNonRedundantCapable:
        per_category[1] += d.AllocatedPower();
        break;
      case Category::kNonRedundantNonCapable:
        per_category[2] += d.AllocatedPower();
        break;
    }
  }
  if (total > Watts(0.0)) {
    mix.software_redundant = per_category[0] / total;
    mix.capable = per_category[1] / total;
    mix.non_capable = per_category[2] / total;
  }
  return mix;
}

}  // namespace flex::workload
