/**
 * @file
 * Flex feasibility analysis (paper Section III).
 *
 * Estimates the joint probability that a maintenance event coincides
 * with power utilization high enough to need corrective actions, and
 * derives the resulting availability for software-redundant and
 * non-redundant workloads. Parameter defaults reproduce the paper's
 * dataset: peak utilizations of 65-80% of the non-reserve provisioned
 * power, ~1 h/yr of unplanned and ~40 h/yr of planned maintenance, and
 * night/weekend utilization dips of 15-19% lasting 6-12 hours.
 */
#ifndef FLEX_ANALYSIS_FEASIBILITY_HPP_
#define FLEX_ANALYSIS_FEASIBILITY_HPP_

#include <cstdint>

namespace flex::analysis {

/** Inputs of the feasibility model. */
struct FeasibilityParams {
  // --- Utilization model (fractions of total provisioned power) ----------
  /**
   * Mean peak-hours utilization. The paper reports peaks of 65-80% of the
   * *non-reserve* budget, i.e. 0.49-0.60 of total provisioned power in a
   * 4N/3 room; in a Flex room the extra servers push utilization up, so
   * the defaults describe a fully allocated zero-reserve room.
   */
  double peak_mean_utilization = 0.72;
  double peak_stddev = 0.05;
  /** Off-peak utilization dip relative to peak (paper: 15-19%). */
  double offpeak_dip = 0.17;
  double offpeak_stddev = 0.05;
  /** Fraction of time in the off-peak regime (nights + weekends). */
  double offpeak_time_fraction = 0.55;

  // --- Maintenance model --------------------------------------------------
  /** Unplanned downtime of a power supply, hours per year. */
  double unplanned_hours_per_year = 1.0;
  /** Planned maintenance downtime, hours per year. */
  double planned_hours_per_year = 40.0;
  /**
   * Whether planned maintenance is scheduled into low-utilization
   * windows (the paper argues the 6-12 h nightly dips always suffice).
   */
  bool planned_in_low_utilization_windows = true;

  // --- Room / workload model ----------------------------------------------
  /** Failover budget as a fraction of provisioned power (y/x). */
  double failover_budget_fraction = 0.75;
  /** Capable fraction of allocated power (paper Fig. 3: 56%). */
  double capable_power_fraction = 0.56;
  /** Software-redundant fraction of allocated power (13%). */
  double software_redundant_power_fraction = 0.13;
  /** Mean flex power fraction of cap-able racks (0.75-0.85). */
  double mean_flex_power_fraction = 0.80;
};

/** Outputs of the feasibility model. */
struct FeasibilityResult {
  /** P(utilization exceeds the corrective-action threshold). */
  double p_high_utilization = 0.0;
  /** P(an unplanned supply-loss event is active at a random instant). */
  double p_unplanned_active = 0.0;
  /** P(corrective actions needed at a random instant). */
  double p_corrective_needed = 0.0;
  /** Fraction of time the room needs no corrective action. */
  double room_availability = 0.0;
  /** Number of nines of room availability. */
  double room_availability_nines = 0.0;
  /** Utilization above which throttling alone cannot recover enough. */
  double shutdown_threshold_utilization = 0.0;
  /** P(any software-redundant rack must shut down at a random instant). */
  double p_shutdown_needed = 0.0;
  /** Availability of software-redundant servers (fraction of time up). */
  double sr_availability = 0.0;
  double sr_availability_nines = 0.0;
};

/** Monte Carlo cross-check of the closed-form model. */
struct MonteCarloResult {
  /** Evaluate()'s outputs with the sampled exceedance fractions. */
  FeasibilityResult result;
  std::uint64_t samples = 0;
  /** Thread-pool lanes the chunks ran on. */
  int lanes = 0;
  /** FNV-1a over per-chunk counts in chunk order (thread-invariant). */
  std::uint64_t sample_hash = 0;
};

/**
 * Analytic feasibility model: closed-form mixture-of-normals utilization
 * distribution crossed with maintenance event probabilities.
 */
class FeasibilityModel {
 public:
  explicit FeasibilityModel(FeasibilityParams params = {});

  /** Runs the full Section III analysis. */
  FeasibilityResult Evaluate() const;

  /**
   * Monte Carlo estimate of the utilization exceedance probabilities,
   * composed with the same analytic maintenance terms as Evaluate().
   * Sampling the maintenance coincidence directly would need ~1e9
   * samples to resolve the paper's five-nines tail, so only the
   * utilization mixture is sampled. Work fans out in fixed 65536-sample
   * chunks across common::Lanes(threads) with one RNG stream per chunk
   * and a serial chunk-order merge — bit-identical for any thread
   * count.
   */
  MonteCarloResult MonteCarlo(std::uint64_t samples, std::uint64_t seed,
                              int threads = 0) const;

  /** P(utilization > @p threshold) under the mixture model. */
  double FractionOfTimeAbove(double threshold) const;

  /**
   * Utilization above which the post-failover overload exceeds what
   * shutting down nothing and throttling every cap-able rack recovers.
   */
  double ShutdownThresholdUtilization() const;

  const FeasibilityParams& params() const { return params_; }

 private:
  FeasibilityParams params_;
};

}  // namespace flex::analysis

#endif  // FLEX_ANALYSIS_FEASIBILITY_HPP_
