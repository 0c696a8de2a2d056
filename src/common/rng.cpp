#include "rng.hpp"

#include <cmath>

#include "error.hpp"
#include "portable_math.hpp"
#include "ziggurat.hpp"

namespace flex {

namespace {

inline std::uint64_t
Rotl(std::uint64_t x, int k)
{
  return (x << k) | (x >> (64 - k));
}

/**
 * exp(-x^2/2) to within 2 ULP for the tables: x^2 is split exactly into
 * sq + err (Dekker), since rounding x^2 alone would cost up to 3 ULP of
 * the result near the tail.
 */
double
ExpNegHalfSquare(double x)
{
  const double split = 134217729.0 * x;  // 2^27 + 1
  const double hi = split - (split - x);
  const double lo = x - hi;
  const double sq = x * x;
  const double err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo;
  const double e = PortableExp(-0.5 * sq);
  return e - e * (0.5 * err);
}

NormalZiggurat
BuildNormalZiggurat()
{
  using Z = NormalZiggurat;
  Z z{};
  z.x[1] = Z::kR;
  z.f[1] = ExpNegHalfSquare(Z::kR);
  z.x[0] = Z::kArea / z.f[1];
  z.f[0] = ExpNegHalfSquare(z.x[0]);
  // Stack each layer on the one below: x[i] (f[i+1] - f[i]) = v.
  for (int i = 1; i < Z::kLayers - 1; ++i) {
    z.x[i + 1] = std::sqrt(-2.0 * PortableLog(Z::kArea / z.x[i] + z.f[i]));
    z.f[i + 1] = ExpNegHalfSquare(z.x[i + 1]);
  }
  z.x[Z::kLayers] = 0.0;
  z.f[Z::kLayers] = 1.0;
  for (int i = 0; i < Z::kLayers; ++i) {
    z.scale[i] = z.x[i] * 0x1p-52;
    z.inner[i] = static_cast<std::uint64_t>(z.x[i + 1] / z.x[i] * 0x1p52);
  }
  return z;
}

}  // namespace

const NormalZiggurat&
NormalZigguratTables()
{
  // Built on first use, so no static initializer can draw before it exists.
  static const NormalZiggurat tables = BuildNormalZiggurat();
  return tables;
}

std::uint64_t
SplitMix64::Next()
{
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
  SplitMix64 sm(seed);
  for (auto& word : state_)
    word = sm.Next();
}

std::uint64_t
Rng::NextU64()
{
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double
Rng::NextDouble()
{
  // 53 bits of mantissa: uniform in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double
Rng::Uniform(double lo, double hi)
{
  return lo + (hi - lo) * NextDouble();
}

std::int64_t
Rng::UniformInt(std::int64_t lo, std::int64_t hi)
{
  FLEX_CHECK_MSG(lo <= hi, "UniformInt requires lo <= hi");
  // Unsigned: the span of [INT64_MIN, INT64_MAX] does not fit in int64_t.
  const auto base = static_cast<std::uint64_t>(lo);
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - base + 1;
  if (range == 0)  // full 64-bit range
    return static_cast<std::int64_t>(NextU64());
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t draw;
  do {
    draw = NextU64();
  } while (draw >= limit);
  return static_cast<std::int64_t>(base + draw % range);
}

double
Rng::Normal()
{
  const NormalZiggurat& zig = NormalZigguratTables();
  for (;;) {
    // One draw: 8 bits pick the layer, 1 the sign, 52 the magnitude.
    const std::uint64_t bits = NextU64();
    const auto layer = static_cast<std::size_t>(bits & 0xff);
    const bool negative = ((bits >> 8) & 1) != 0;
    const std::uint64_t magnitude = bits >> 12;
    const double x = static_cast<double>(magnitude) * zig.scale[layer];
    if (magnitude < zig.inner[layer])  // about 98.5% of draws
      return negative ? -x : x;
    if (layer == 0) {
      // Beyond r (Marsaglia 1964): r + E1 / r, accepted when 2 E2 exceeds
      // (E1 / r)^2 for independent unit exponentials E1 and E2.
      double t;
      double e;
      do {
        t = -PortableLog(1.0 - NextDouble()) / NormalZiggurat::kR;
        e = -PortableLog(1.0 - NextDouble());
      } while (e + e <= t * t);
      return negative ? -(NormalZiggurat::kR + t) : NormalZiggurat::kR + t;
    }
    // The wedge between the layer's inner rectangle and the curve.
    const double y =
        zig.f[layer] + (zig.f[layer + 1] - zig.f[layer]) * NextDouble();
    if (y < PortableExp(-0.5 * x * x))
      return negative ? -x : x;
  }
}

double
Rng::Normal(double mean, double stddev)
{
  return mean + stddev * Normal();
}

double
Rng::TruncatedNormal(double mean, double stddev, double lo, double hi)
{
  FLEX_CHECK_MSG(lo <= hi, "TruncatedNormal requires lo <= hi");
  constexpr int kMaxAttempts = 64;
  for (int i = 0; i < kMaxAttempts; ++i) {
    const double draw = Normal(mean, stddev);
    if (draw >= lo && draw <= hi)
      return draw;
  }
  const double draw = Normal(mean, stddev);
  return draw < lo ? lo : (draw > hi ? hi : draw);
}

bool
Rng::Bernoulli(double p)
{
  return NextDouble() < p;
}

double
Rng::Exponential(double mean)
{
  FLEX_CHECK_MSG(mean > 0.0, "Exponential requires positive mean");
  double u = NextDouble();
  while (u <= 0.0)
    u = NextDouble();
  return -mean * PortableLog(u);
}

double
Rng::LogNormal(double mu, double sigma)
{
  return PortableExp(Normal(mu, sigma));
}

Rng
Rng::Fork()
{
  return Rng(NextU64());
}

}  // namespace flex
