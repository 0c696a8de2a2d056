#include "forecaster.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace flex::online {

double
HoltForecaster::Observe(const HoltParams& params, Seconds observed_at,
                        Watts value)
{
  FLEX_REQUIRE(value >= Watts(0.0), "negative power observation");
  double abs_error = kNoPrediction;
  if (observations_ == 0) {
    level_ = value.value();
    trend_per_second_ = 0.0;
  } else {
    const double dt = (observed_at - last_time_).value();
    if (dt > 1e-9) {
      typical_interval_ =
          Seconds(0.8 * typical_interval_.value() + 0.2 * dt);
      const double previous_level = level_;
      const double predicted = level_ + trend_per_second_ * dt;
      abs_error = std::fabs(value.value() - predicted);
      level_ = params.level_alpha * value.value() +
               (1.0 - params.level_alpha) * predicted;
      const double new_trend = (level_ - previous_level) / dt;
      trend_per_second_ = params.trend_beta * new_trend +
                          (1.0 - params.trend_beta) * trend_per_second_;
    } else {
      // Duplicate delivery (redundant buses): just refresh the level.
      level_ = params.level_alpha * value.value() +
               (1.0 - params.level_alpha) * level_;
    }
  }
  last_time_ = observed_at;
  ++observations_;
  return abs_error;
}

std::optional<Watts>
HoltForecaster::Forecast(Seconds when) const
{
  if (observations_ == 0)
    return std::nullopt;
  double horizon = std::max(0.0, (when - last_time_).value());
  // Damp the trend beyond a few sampling intervals: stale data should
  // decay toward the last level, not extrapolate off to infinity.
  const double max_extrapolation = 3.0 * typical_interval_.value();
  horizon = std::min(horizon, max_extrapolation);
  return Watts(std::max(0.0, level_ + trend_per_second_ * horizon));
}

RackPowerForecasterBank::RackPowerForecasterBank(int num_racks,
                                                 HoltParams params)
    : params_(params)
{
  FLEX_REQUIRE(num_racks >= 0, "negative rack count");
  FLEX_REQUIRE(params_.level_alpha > 0.0 && params_.level_alpha <= 1.0,
               "level_alpha must be in (0, 1]");
  FLEX_REQUIRE(params_.trend_beta >= 0.0 && params_.trend_beta <= 1.0,
               "trend_beta must be in [0, 1]");
  forecasters_.resize(static_cast<std::size_t>(num_racks));
}

void
RackPowerForecasterBank::Bind(obs::Observability* obs)
{
  if (obs == nullptr) {
    abs_error_metric_ = nullptr;
    observations_metric_ = nullptr;
    return;
  }
  obs::MetricsRegistry& metrics = obs->metrics();
  // Watt-scale exponential buckets: 1 W up to ~262 kW.
  abs_error_metric_ = &metrics.histogram(
      "forecaster.abs_error_w", obs::HistogramConfig::Exponential(1.0, 4.0, 10));
  observations_metric_ = &metrics.counter("forecaster.observations");
}

void
RackPowerForecasterBank::Observe(int rack_id, Seconds observed_at,
                                 Watts value)
{
  const telemetry::BatchReading reading{rack_id, value};
  ObserveBatch(observed_at, {&reading, 1});
}

void
RackPowerForecasterBank::ObserveBatch(
    Seconds observed_at, std::span<const telemetry::BatchReading> readings)
{
  const int racks = num_racks();
  for (const telemetry::BatchReading& reading : readings) {
    FLEX_REQUIRE(reading.index >= 0 && reading.index < racks,
                 "rack id out of range");
    const double abs_error =
        forecasters_[static_cast<std::size_t>(reading.index)].Observe(
            params_, observed_at, reading.value);
    if (abs_error_metric_ != nullptr &&
        abs_error != HoltForecaster::kNoPrediction)
      abs_error_metric_->Observe(abs_error);
  }
  if (observations_metric_ != nullptr)
    observations_metric_->Increment(static_cast<double>(readings.size()));
}

std::optional<Watts>
RackPowerForecasterBank::Forecast(int rack_id, Seconds when) const
{
  FLEX_REQUIRE(rack_id >= 0 && rack_id < num_racks(), "rack id out of range");
  return forecasters_[static_cast<std::size_t>(rack_id)].Forecast(when);
}

}  // namespace flex::online
