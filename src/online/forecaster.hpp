/**
 * @file
 * Rack power forecasting for the Flex controllers.
 *
 * Paper Section IV-D: the decision policy needs an estimate of each
 * rack's current power; "a recent snapshot or an estimate based on time
 * series models can be used". This module provides both: a last-value
 * estimator and a Holt double-exponential (level + trend) forecaster
 * that projects the rack's draw to the decision instant, which matters
 * because rack telemetry is ~2 s old by the time a decision is made.
 */
#ifndef FLEX_ONLINE_FORECASTER_HPP_
#define FLEX_ONLINE_FORECASTER_HPP_

#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "obs/observability.hpp"
#include "telemetry/pipeline.hpp"

namespace flex::online {

/** Holt's smoothing constants; a forecaster bank holds one set. */
struct HoltParams {
  double level_alpha = 0.5;  ///< smoothing of the level (0..1], higher = reactive
  double trend_beta = 0.2;   ///< smoothing of the trend [0..1]
};

/**
 * Holt's linear (level + trend) exponential smoothing for one signal.
 * Holds only the signal's state; the smoothing constants are passed to
 * Observe, so a bank of thousands of racks stores them once.
 */
class HoltForecaster {
 public:
  /** What Observe returns when no prediction existed. */
  static constexpr double kNoPrediction = -1.0;

  /**
   * Feeds an observation taken at @p observed_at, smoothed with
   * @p params. Returns the absolute one-step-ahead forecast error in
   * watts — |observation - what the model predicted for this instant| —
   * or kNoPrediction (negative) when no prediction existed (first
   * observation, duplicate-bus redelivery). A plain double, because an
   * optional returned through the stack stalls the reload of its 16
   * bytes on every reading.
   */
  double Observe(const HoltParams& params, Seconds observed_at,
                 Watts value);

  /**
   * Forecast at @p when (>= last observation). Returns nullopt until at
   * least one observation has arrived. The trend is damped beyond a few
   * sampling intervals so stale extrapolations stay conservative, and
   * forecasts never go negative.
   */
  std::optional<Watts> Forecast(Seconds when) const;

  /** Number of observations consumed. */
  int observations() const { return observations_; }

 private:
  int observations_ = 0;
  double level_ = 0.0;
  double trend_per_second_ = 0.0;
  Seconds last_time_{0.0};
  Seconds typical_interval_{2.0};
};

/**
 * A bank of per-rack forecasters sharing one set of smoothing
 * constants, as the controller uses.
 */
class RackPowerForecasterBank {
 public:
  /** Rejects smoothing constants outside their ranges (ConfigError). */
  explicit RackPowerForecasterBank(int num_racks, HoltParams params = {});

  /**
   * Routes forecaster metrics (one-step-ahead absolute error, total
   * observations) into @p obs; null detaches. Survives bank
   * reassignment only if re-bound afterwards.
   */
  void Bind(obs::Observability* obs);

  void Observe(int rack_id, Seconds observed_at, Watts value);

  /**
   * Observe for every reading of one rack batch, in order: the readings
   * share @p observed_at, and their indices are rack ids.
   */
  void ObserveBatch(Seconds observed_at,
                    std::span<const telemetry::BatchReading> readings);

  /** Forecast for one rack; nullopt when that rack has no data yet. */
  std::optional<Watts> Forecast(int rack_id, Seconds when) const;

  int num_racks() const { return static_cast<int>(forecasters_.size()); }

 private:
  HoltParams params_;
  std::vector<HoltForecaster> forecasters_;
  obs::Histogram* abs_error_metric_ = nullptr;
  obs::Counter* observations_metric_ = nullptr;
};

}  // namespace flex::online

#endif  // FLEX_ONLINE_FORECASTER_HPP_
