#include "portable_math.hpp"

#include <bit>
#include <cfloat>
#include <cstdint>
#include <limits>

// The kernels rely on every double operation rounding once, to double.
static_assert(std::numeric_limits<double>::is_iec559,
              "PortableExp/PortableLog need IEEE-754 doubles");
static_assert(FLT_EVAL_METHOD == 0,
              "PortableExp/PortableLog need doubles evaluated in double");

namespace flex {

namespace {

// ln 2 split so that k * kLn2Hi is exact for |k| < 2000.
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kInvLn2 = 0x1.71547652b82fep+0;

// exp overflows above kExpMax and underflows to 0 below kExpMin.
constexpr double kExpMax = 0x1.62e42fefa39efp+9;   // 709.78...
constexpr double kExpMin = -0x1.74910d52d3051p+9;  // -745.13...

// Remez fit of r (e^r + 1) / (e^r - 1) on [0, ln2 / 2], error < 2^-59.
constexpr double kP1 = 0x1.555555555553ep-3;
constexpr double kP2 = -0x1.6c16c16bebd93p-9;
constexpr double kP3 = 0x1.1566aaf25de2cp-14;
constexpr double kP4 = -0x1.bbd41c5d26bf1p-20;
constexpr double kP5 = 0x1.6376972bea4d0p-25;

// Remez fit of (log(1 + s) - log(1 - s) - 2s) / s on s^2 in
// [0, 0.1716^2], error < 2^-58.45.
constexpr double kLg1 = 0x1.5555555555593p-1;
constexpr double kLg2 = 0x1.999999997fa04p-2;
constexpr double kLg3 = 0x1.2492494229359p-2;
constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
constexpr double kLg5 = 0x1.7466496cb03dep-3;
constexpr double kLg6 = 0x1.39a09d078c69fp-3;
constexpr double kLg7 = 0x1.2f112df3e5244p-3;

std::uint32_t
HighWord(double x)
{
  return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(x) >> 32);
}

std::uint32_t
LowWord(double x)
{
  return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(x));
}

double
WithHighWord(double x, std::uint32_t high)
{
  return std::bit_cast<double>((std::uint64_t{high} << 32) | LowWord(x));
}

}  // namespace

double
PortableExp(double x)
{
  const std::uint32_t high = HighWord(x);
  const bool negative = (high >> 31) != 0;
  const std::uint32_t abs_high = high & 0x7fffffffu;

  if (abs_high >= 0x40862e42u) {  // |x| >= 709.78..., inf or NaN
    if (abs_high >= 0x7ff00000u) {
      if (((abs_high & 0xfffffu) | LowWord(x)) != 0)
        return x + x;  // NaN
      return negative ? 0.0 : x;
    }
    if (x > kExpMax)
      return std::numeric_limits<double>::infinity();
    if (x < kExpMin)
      return 0.0;
  }

  // Reduce to x = k ln2 + r with |r| <= ln2 / 2, r held as hi - lo.
  double hi = 0.0;
  double lo = 0.0;
  int k = 0;
  if (abs_high > 0x3fd62e42u) {     // |x| > ln2 / 2
    if (abs_high < 0x3ff0a2b2u) {   // |x| < 3 ln2 / 2
      hi = negative ? x + kLn2Hi : x - kLn2Hi;
      lo = negative ? -kLn2Lo : kLn2Lo;
      k = negative ? -1 : 1;
    } else {
      k = static_cast<int>(kInvLn2 * x + (negative ? -0.5 : 0.5));
      const double t = k;
      hi = x - t * kLn2Hi;
      lo = t * kLn2Lo;
    }
    x = hi - lo;
  } else if (abs_high < 0x3e300000u) {  // |x| < 2^-28
    return 1.0 + x;
  }

  // e^r = 1 + r + r c / (2 - c), with c = r - r^2 P(r^2).
  const double t = x * x;
  const double c = x - t * (kP1 + t * (kP2 + t * (kP3 + t * (kP4 + t * kP5))));
  if (k == 0)
    return 1.0 - ((x * c) / (c - 2.0) - x);
  const double y = 1.0 - ((lo - (x * c) / (2.0 - c)) - hi);
  // Scale by 2^k through the exponent field; subnormal results go via
  // 2^-1000 so that they round once.
  if (k >= -1021)
    return WithHighWord(y, HighWord(y) + (static_cast<std::uint32_t>(k) << 20));
  const double scaled =
      WithHighWord(y, HighWord(y) + (static_cast<std::uint32_t>(k + 1000) << 20));
  return scaled * 0x1p-1000;
}

double
PortableLog(double x)
{
  auto hx = static_cast<std::int32_t>(HighWord(x));
  int k = 0;
  if (hx < 0x00100000) {  // x < 2^-1022: zero, negative or subnormal
    if (((hx & 0x7fffffff) | static_cast<std::int32_t>(LowWord(x))) == 0)
      return -std::numeric_limits<double>::infinity();
    if (hx < 0)
      return std::numeric_limits<double>::quiet_NaN();
    k -= 54;
    x *= 0x1p54;
    hx = static_cast<std::int32_t>(HighWord(x));
  }
  if (hx >= 0x7ff00000)
    return x + x;  // +inf or NaN

  // x = 2^k (1 + f) with sqrt(2)/2 < 1 + f < sqrt(2).
  k += (hx >> 20) - 1023;
  hx &= 0x000fffff;
  const std::int32_t half = (hx + 0x95f64) & 0x100000;
  x = WithHighWord(x, static_cast<std::uint32_t>(hx | (half ^ 0x3ff00000)));
  k += half >> 20;
  const double f = x - 1.0;
  const double dk = k;

  if ((0x000fffff & (2 + hx)) < 3) {  // |f| < 2^-20
    if (f == 0.0)
      return k == 0 ? 0.0 : dk * kLn2Hi + dk * kLn2Lo;
    const double r = f * f * (0.5 - 0.33333333333333333 * f);
    if (k == 0)
      return f - r;
    return dk * kLn2Hi - ((r - dk * kLn2Lo) - f);
  }

  // log(1 + f) = 2s + s R(s^2) with s = f / (2 + f).
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  // Away from 1 + f = 1, 2s = f - hfsq + s hfsq keeps the error under 1 ULP.
  if (((hx - 0x6147a) | (0x6b851 - hx)) > 0) {
    const double hfsq = 0.5 * f * f;
    if (k == 0)
      return f - (hfsq - s * (hfsq + r));
    return dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
  }
  if (k == 0)
    return f - s * (f - r);
  return dk * kLn2Hi - ((s * (f - r) - dk * kLn2Lo) - f);
}

}  // namespace flex
