/**
 * @file
 * The layer tables behind Rng::Normal, exposed so tests can check them.
 *
 * Marsaglia & Tsang's ziggurat (2000) covers the right half of the
 * unnormalized density f(x) = exp(-x^2/2) with 256 layers of equal area
 * v. Layer i in 1..255 is the rectangle [0, x[i]] x [f[i], f[i+1]]; layer
 * 0 is the base [0, x[0]] x [0, f[1]], whose part beyond x[1] = r stands
 * in for the tail. x falls from x[0] = v / f(r) to x[256] = 0, and
 * f[i] = f(x[i]).
 */
#ifndef FLEX_COMMON_ZIGGURAT_HPP_
#define FLEX_COMMON_ZIGGURAT_HPP_

#include <cstdint>

namespace flex {

struct NormalZiggurat {
  static constexpr int kLayers = 256;
  /** x[1], where the tail starts. */
  static constexpr double kR = 3.6541528853610088;
  /** v = r f(r) + the integral of f from r to infinity, to the last bit. */
  static constexpr double kArea = 0x1.43016a5a43731p-8;

  double x[kLayers + 1];
  double f[kLayers + 1];
  /** A 52-bit magnitude m maps to the point m * scale[i] in [0, x[i]). */
  double scale[kLayers];
  /** m < inner[i] puts that point left of x[i+1], under the curve. */
  std::uint64_t inner[kLayers];
};

/**
 * The tables, built on first use from PortableExp and PortableLog (and
 * IEEE-754 sqrt), so they hold the same bits on every host.
 */
const NormalZiggurat& NormalZigguratTables();

}  // namespace flex

#endif  // FLEX_COMMON_ZIGGURAT_HPP_
