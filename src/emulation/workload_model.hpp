/**
 * @file
 * Synthetic workload behaviour models for the room emulation.
 *
 * Substitutes for the paper's Section V-C benchmarks: an
 * Ornstein-Uhlenbeck utilization process stands in for the power draw of
 * TeraSort-like batch work and TPC-E-like transactional work, and an
 * M/M/1 tail-latency model maps a power cap to the p95 latency inflation
 * the paper measures on throttled racks.
 */
#ifndef FLEX_EMULATION_WORKLOAD_MODEL_HPP_
#define FLEX_EMULATION_WORKLOAD_MODEL_HPP_

#include <algorithm>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace flex::emulation {

/** Mean-reverting utilization process parameters. */
struct OuProcessConfig {
  double mean = 0.80;         ///< long-run utilization
  double reversion_rate = 0.05;  ///< pull toward the mean, per second
  double volatility = 0.02;   ///< diffusion per sqrt(second)
  double min = 0.40;
  double max = 0.98;
};

/**
 * The OU update for one fixed time step, its coefficients read once: a
 * caller that steps many values by the same dt (a room steps every rack
 * each second) builds one with OuProcess::StepOf and applies it to each.
 */
struct OuStep {
  double mean = 0.0;
  double reversion_rate = 0.0;
  double dt = 0.0;
  double diffusion = 0.0;  ///< volatility * sqrt(dt)
  double min = 0.0;
  double max = 0.0;

  /** Advances @p value by dt with one normal draw from @p rng. */
  double
  operator()(double value, Rng& rng) const
  {
    value += reversion_rate * (mean - value) * dt + diffusion * rng.Normal();
    return std::clamp(value, min, max);
  }
};

/**
 * Ornstein-Uhlenbeck process clipped to [min, max]; drives per-rack
 * utilization so power wanders realistically instead of stepping. The
 * object holds only the parameters and the caller owns the state (one
 * double), so a room keeps one process per rack category and one
 * utilization per rack.
 */
class OuProcess {
 public:
  /** Rejects unordered bounds and negative rates (ConfigError). */
  explicit OuProcess(OuProcessConfig config = {});

  /** @p value clipped to [min, max] (e.g. an initial utilization). */
  double Clamp(double value) const;

  /** The update for steps of @p dt; rejects a negative dt (ConfigError). */
  OuStep StepOf(Seconds dt) const;

  /** Advances @p value by @p dt and returns the new value. */
  double
  Step(double value, Seconds dt, Rng& rng) const
  {
    return StepOf(dt)(value, rng);
  }

  const OuProcessConfig& config() const { return config_; }

 private:
  OuProcessConfig config_;
};

/**
 * Latency response of a closed-loop transactional workload to CPU
 * throttling, as an M/M/1 sojourn-time model: with base server
 * utilization rho, slowing the server to a fraction `speed` of nominal
 * capacity inflates latency (and its percentiles, exponential sojourn)
 * by (1 - rho) / (speed - rho).
 */
class LatencyModel {
 public:
  explicit LatencyModel(double rho = 0.5);

  /**
   * p95 latency relative to the unthrottled baseline when the server
   * runs at @p speed (fraction of nominal, in (0, 1]). Saturates at a
   * large factor when speed approaches rho (queue blow-up).
   */
  double P95Factor(double speed) const;

  /**
   * Effective speed of a rack whose workload wants @p demand power but
   * is capped at @p cap: power scales roughly linearly with frequency in
   * the throttling range, so speed = cap / demand (clamped to 1).
   */
  static double SpeedUnderCap(Watts demand, Watts cap);

  double rho() const { return rho_; }

 private:
  double rho_;
};

}  // namespace flex::emulation

#endif  // FLEX_EMULATION_WORKLOAD_MODEL_HPP_
