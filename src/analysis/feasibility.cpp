#include "feasibility.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace flex::analysis {

namespace {

double
NormalCdf(double z)
{
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double
NormalPdf(double z)
{
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
}

/** E[max(0, X - k)] for X ~ N(mean, stddev): the expected excess. */
double
ExpectedExcess(double mean, double stddev, double k)
{
  if (stddev <= 0.0)
    return std::max(0.0, mean - k);
  const double z = (mean - k) / stddev;
  return (mean - k) * NormalCdf(z) + stddev * NormalPdf(z);
}

}  // namespace

FeasibilityModel::FeasibilityModel(FeasibilityParams params)
    : params_(params)
{
  FLEX_REQUIRE(params_.peak_stddev > 0.0 && params_.offpeak_stddev > 0.0,
               "utilization stddevs must be positive");
  FLEX_REQUIRE(params_.offpeak_time_fraction >= 0.0 &&
                   params_.offpeak_time_fraction <= 1.0,
               "off-peak time fraction must be in [0, 1]");
  FLEX_REQUIRE(params_.failover_budget_fraction > 0.0 &&
                   params_.failover_budget_fraction < 1.0,
               "failover budget fraction must be in (0, 1)");
  FLEX_REQUIRE(params_.capable_power_fraction >= 0.0 &&
                   params_.capable_power_fraction <= 1.0,
               "capable power fraction must be in [0, 1]");
}

double
FeasibilityModel::FractionOfTimeAbove(double threshold) const
{
  const double p_peak =
      1.0 - NormalCdf((threshold - params_.peak_mean_utilization) /
                      params_.peak_stddev);
  const double offpeak_mean =
      params_.peak_mean_utilization - params_.offpeak_dip;
  const double p_offpeak =
      1.0 - NormalCdf((threshold - offpeak_mean) / params_.offpeak_stddev);
  return (1.0 - params_.offpeak_time_fraction) * p_peak +
         params_.offpeak_time_fraction * p_offpeak;
}

double
FeasibilityModel::ShutdownThresholdUtilization() const
{
  // At room utilization u, a single-supply loss leaves an overload of
  // (u - b) x provisioned on the survivors. Throttling every cap-able
  // rack recovers c x E[max(0, rack draw - flex)] where rack draws
  // spread around u; shutdown becomes necessary once the overload
  // exceeds that recovery. Racks spread around the room mean with the
  // same stddev the rack-power model uses.
  const double rack_stddev = 0.10;
  const double b = params_.failover_budget_fraction;
  const double c = params_.capable_power_fraction;
  const double flex = params_.mean_flex_power_fraction;

  auto throttling_suffices = [&](double u) {
    const double overload = std::max(0.0, u - b);
    const double recovery = c * ExpectedExcess(u, rack_stddev, flex);
    return recovery >= overload;
  };

  // Bisection over u in [b, 1]; throttling suffices at u = b (overload
  // zero) and typically fails by u = 1.
  if (throttling_suffices(1.0))
    return 1.0;
  double lo = b;
  double hi = 1.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (throttling_suffices(mid))
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

FeasibilityResult
FeasibilityModel::Evaluate() const
{
  FeasibilityResult result;
  constexpr double kHoursPerYear = 24.0 * 365.0;

  result.p_high_utilization =
      FractionOfTimeAbove(params_.failover_budget_fraction);
  result.p_unplanned_active =
      params_.unplanned_hours_per_year / kHoursPerYear;

  // Planned maintenance is scheduled into the nightly/weekend dips, so
  // it (almost) never coincides with high utilization; unplanned events
  // strike at a random instant.
  double p_planned_coincides = 0.0;
  if (!params_.planned_in_low_utilization_windows) {
    p_planned_coincides = (params_.planned_hours_per_year / kHoursPerYear) *
                          result.p_high_utilization;
  }
  result.p_corrective_needed =
      result.p_unplanned_active * result.p_high_utilization +
      p_planned_coincides;
  result.room_availability = 1.0 - result.p_corrective_needed;
  result.room_availability_nines =
      -std::log10(result.p_corrective_needed);

  result.shutdown_threshold_utilization = ShutdownThresholdUtilization();
  result.p_shutdown_needed =
      result.p_unplanned_active *
      FractionOfTimeAbove(result.shutdown_threshold_utilization);
  // Conservative: while a shutdown event is active, assume every
  // software-redundant server is down.
  result.sr_availability = 1.0 - result.p_shutdown_needed;
  result.sr_availability_nines = -std::log10(result.p_shutdown_needed);
  return result;
}

MonteCarloResult
FeasibilityModel::MonteCarlo(std::uint64_t samples, std::uint64_t seed,
                             int threads) const
{
  FLEX_REQUIRE(samples > 0, "monte carlo needs at least one sample");
  constexpr std::uint64_t kChunkSamples = 65536;

  const double threshold_high = params_.failover_budget_fraction;
  const double threshold_shutdown = ShutdownThresholdUtilization();
  const double offpeak_mean =
      params_.peak_mean_utilization - params_.offpeak_dip;

  const std::uint64_t num_chunks =
      (samples + kChunkSamples - 1) / kChunkSamples;
  common::Lanes lanes(threads, static_cast<std::size_t>(num_chunks));
  struct ChunkCounts {
    std::uint64_t above_high = 0;
    std::uint64_t above_shutdown = 0;
  };
  std::vector<ChunkCounts> counts(static_cast<std::size_t>(num_chunks));

  // Chunk size and per-chunk RNG stream are fixed regardless of thread
  // count, so the merged counts (and the hash) never depend on lane
  // scheduling.
  const auto run_chunk = [&](std::uint64_t chunk) {
    const std::uint64_t chunk_samples =
        chunk + 1 == num_chunks ? samples - chunk * kChunkSamples
                                : kChunkSamples;
    Rng rng(seed ^ SplitMix64(chunk + 1).Next());
    ChunkCounts& c = counts[static_cast<std::size_t>(chunk)];
    for (std::uint64_t i = 0; i < chunk_samples; ++i) {
      const bool offpeak = rng.Bernoulli(params_.offpeak_time_fraction);
      const double u = offpeak
                           ? rng.Normal(offpeak_mean, params_.offpeak_stddev)
                           : rng.Normal(params_.peak_mean_utilization,
                                        params_.peak_stddev);
      if (u > threshold_high)
        ++c.above_high;
      if (u > threshold_shutdown)
        ++c.above_shutdown;
    }
  };

  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<std::size_t>(num_chunks));
  for (std::uint64_t chunk = 0; chunk < num_chunks; ++chunk)
    tasks.push_back([&run_chunk, chunk] { run_chunk(chunk); });
  lanes.Run(std::move(tasks));

  MonteCarloResult mc;
  mc.samples = samples;
  mc.lanes = lanes.size();

  Fnv1a hash;
  std::uint64_t above_high = 0;
  std::uint64_t above_shutdown = 0;
  for (const ChunkCounts& c : counts) {
    above_high += c.above_high;
    above_shutdown += c.above_shutdown;
    hash.AddU64(c.above_high);
    hash.AddU64(c.above_shutdown);
  }
  mc.sample_hash = hash.value();

  // Compose the sampled exceedance fractions with the same analytic
  // maintenance terms Evaluate() uses.
  constexpr double kHoursPerYear = 24.0 * 365.0;
  constexpr double kMinProbability = 1e-300;  // keep -log10 finite
  FeasibilityResult& r = mc.result;
  r.p_high_utilization =
      static_cast<double>(above_high) / static_cast<double>(samples);
  r.p_unplanned_active = params_.unplanned_hours_per_year / kHoursPerYear;
  double p_planned_coincides = 0.0;
  if (!params_.planned_in_low_utilization_windows) {
    p_planned_coincides = (params_.planned_hours_per_year / kHoursPerYear) *
                          r.p_high_utilization;
  }
  r.p_corrective_needed =
      r.p_unplanned_active * r.p_high_utilization + p_planned_coincides;
  r.room_availability = 1.0 - r.p_corrective_needed;
  r.room_availability_nines =
      -std::log10(std::max(r.p_corrective_needed, kMinProbability));
  r.shutdown_threshold_utilization = threshold_shutdown;
  r.p_shutdown_needed =
      r.p_unplanned_active *
      (static_cast<double>(above_shutdown) / static_cast<double>(samples));
  r.sr_availability = 1.0 - r.p_shutdown_needed;
  r.sr_availability_nines =
      -std::log10(std::max(r.p_shutdown_needed, kMinProbability));
  return mc;
}

}  // namespace flex::analysis
