#include "workload_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace flex::emulation {

OuProcess::OuProcess(OuProcessConfig config) : config_(config)
{
  FLEX_REQUIRE(config_.min <= config_.max, "OU bounds must be ordered");
  FLEX_REQUIRE(config_.reversion_rate >= 0.0 && config_.volatility >= 0.0,
               "OU rates must be non-negative");
}

double
OuProcess::Clamp(double value) const
{
  return std::clamp(value, config_.min, config_.max);
}

OuStep
OuProcess::StepOf(Seconds dt) const
{
  FLEX_REQUIRE(dt.value() >= 0.0, "negative time step");
  OuStep step;
  step.mean = config_.mean;
  step.reversion_rate = config_.reversion_rate;
  step.dt = dt.value();
  // volatility * sqrt(dt) * z multiplies left to right, so the first
  // product can be taken once without changing a bit.
  step.diffusion = config_.volatility * std::sqrt(dt.value());
  step.min = config_.min;
  step.max = config_.max;
  return step;
}

LatencyModel::LatencyModel(double rho) : rho_(rho)
{
  FLEX_REQUIRE(rho > 0.0 && rho < 1.0, "rho must be in (0, 1)");
}

double
LatencyModel::P95Factor(double speed) const
{
  FLEX_REQUIRE(speed > 0.0 && speed <= 1.0 + 1e-9,
               "speed must be in (0, 1]");
  constexpr double kSaturation = 50.0;  // queue collapse: bounded for math
  if (speed <= rho_)
    return kSaturation;
  return std::min(kSaturation, (1.0 - rho_) / (speed - rho_));
}

double
LatencyModel::SpeedUnderCap(Watts demand, Watts cap)
{
  if (demand <= Watts(0.0) || cap >= demand)
    return 1.0;
  return std::max(0.05, cap / demand);
}

}  // namespace flex::emulation
