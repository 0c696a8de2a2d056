#include "meter.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace flex::telemetry {

void
ValidateMeterConfig(const MeterConfig& config)
{
  FLEX_REQUIRE(std::isfinite(config.noise_fraction) &&
                   config.noise_fraction >= 0.0,
               "meter noise_fraction must be finite and not negative");
  FLEX_REQUIRE(std::isfinite(config.refresh_interval.value()) &&
                   config.refresh_interval.value() >= 0.0,
               "meter refresh_interval must be finite and not negative");
  FLEX_REQUIRE(config.misread_probability >= 0.0 &&
                   config.misread_probability <= 1.0,
               "meter misread_probability must be in [0, 1]");
}

inline bool
PhysicalMeter::Output(const MeterConfig& config, Seconds now,
                      double true_value, const MeterDrift* drift,
                      double& out)
{
  if (failed_)
    return false;
  // A stuck meter's output freezes once its cache holds a value.
  if (!has_cache_ ||
      (!stuck_ &&
       (now - last_refresh_).value() >= config.refresh_interval.value())) {
    double value =
        true_value * (1.0 + config.noise_fraction * rng_.Normal());
    if (rng_.Bernoulli(config.misread_probability))
      value *= 3.0;  // gross misreading: corrupted scale factor
    if (drift != nullptr && drift->rate_per_second != 0.0)
      value *= 1.0 + drift->rate_per_second * (now - drift->since).value();
    // max returns +0 for -0 too, so an output is never -0 (nor NaN).
    cached_ = Watts(std::max(0.0, value));
    last_refresh_ = now;
    has_cache_ = true;
  }
  out = cached_.value();
  return true;
}

std::optional<Watts>
PhysicalMeter::Sample(const MeterConfig& config, Seconds now,
                      Watts true_value, const MeterDrift* drift)
{
  double value = 0.0;
  if (!Output(config, now, true_value.value(), drift, value))
    return std::nullopt;
  return Watts(value);
}

MeterArray::MeterArray(int devices, int redundancy, Rng& seed_rng)
    : redundancy_(redundancy)
{
  FLEX_REQUIRE(devices >= 0, "negative device count");
  FLEX_REQUIRE(redundancy >= 1 && redundancy <= kMaxMetersPerDevice,
               "meters_per_device must be in [1, 8]");
  const std::size_t n = static_cast<std::size_t>(devices) *
                        static_cast<std::size_t>(redundancy);
  meters_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    meters_.emplace_back(seed_rng.Fork());
}

bool
MeterArray::Read(const MeterConfig& config, int device, Seconds now,
                 Watts true_value, Watts& consensus)
{
  const auto m = static_cast<std::size_t>(redundancy_);
  const std::size_t first = static_cast<std::size_t>(device) * m;
  FLEX_REQUIRE(device >= 0 && first + m <= meters_.size(),
               "device out of range");
  double readings[kMaxMetersPerDevice];
  std::size_t n = 0;
  for (std::size_t i = first; i < first + m; ++i) {
    if (meters_[i].Output(config, now, true_value.value(), DriftOf(i),
                          readings[n]))
      ++n;
  }
  // Quorum rule: a single meter cannot be trusted when the design calls
  // for redundancy — except in the degenerate single-meter configuration.
  const std::size_t quorum = m >= 2 ? 2 : 1;
  if (n < quorum)
    return false;
  double value = readings[0];
  if (n == 2) {
    // A sum is symmetric, so the mean of two needs no sort.
    value = 0.5 * (readings[0] + readings[1]);
  } else if (n == 3) {
    // Branch-free median of three. Outputs are never -0 or NaN, so tied
    // readings are bitwise equal and this is the element a sort picks.
    const double low = std::min(readings[0], readings[1]);
    const double high = std::max(readings[0], readings[1]);
    value = std::max(low, std::min(high, readings[2]));
  } else if (n > 3) {
    // Insertion sort: at most kMaxMetersPerDevice readings.
    for (std::size_t i = 1; i < n; ++i) {
      const double reading = readings[i];
      std::size_t j = i;
      for (; j > 0 && readings[j - 1] > reading; --j)
        readings[j] = readings[j - 1];
      readings[j] = reading;
    }
    value = n % 2 == 1 ? readings[n / 2]
                       : 0.5 * (readings[n / 2 - 1] + readings[n / 2]);
  }
  consensus = Watts(value);
  return true;
}

std::size_t
MeterArray::FlatIndex(int device, int index) const
{
  FLEX_REQUIRE(device >= 0 && device < devices(), "device out of range");
  FLEX_REQUIRE(index >= 0 && index < redundancy_,
               "meter index out of range");
  return static_cast<std::size_t>(device) *
             static_cast<std::size_t>(redundancy_) +
         static_cast<std::size_t>(index);
}

PhysicalMeter&
MeterArray::meter(int device, int index)
{
  return meters_[FlatIndex(device, index)];
}

const MeterDrift*
MeterArray::DriftOf(std::size_t meter) const
{
  for (const auto& [drifting, drift] : drifts_) {
    if (drifting == meter)
      return &drift;
  }
  return nullptr;
}

void
MeterArray::SetDrift(int device, int index, double rate_per_second,
                     Seconds now)
{
  const std::size_t meter = FlatIndex(device, index);
  const MeterDrift drift{rate_per_second, now};
  for (auto& [drifting, existing] : drifts_) {
    if (drifting == meter) {
      existing = drift;
      return;
    }
  }
  drifts_.emplace_back(meter, drift);
}

void
MeterArray::ClearDrift(int device, int index)
{
  const std::size_t meter = FlatIndex(device, index);
  drifts_.erase(std::remove_if(drifts_.begin(), drifts_.end(),
                               [meter](const auto& entry) {
                                 return entry.first == meter;
                               }),
                drifts_.end());
}

}  // namespace flex::telemetry
