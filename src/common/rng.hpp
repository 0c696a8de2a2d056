/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the library draws from a seeded Xoshiro256**
 * generator so that experiments are exactly reproducible across runs and
 * platforms. std::mt19937 distributions are not portable across standard
 * library implementations, and libm's exp/log/cos differ in the last bit
 * between hosts, so the transforms here are our own and call no libm
 * function: normals come from a ziggurat, and exp/log from PortableExp and
 * PortableLog (portable_math.hpp).
 */
#ifndef FLEX_COMMON_RNG_HPP_
#define FLEX_COMMON_RNG_HPP_

#include <cstdint>
#include <vector>

namespace flex {

/**
 * SplitMix64 generator, used to seed Xoshiro and for cheap hashing.
 */
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /** Next 64-bit value. */
  std::uint64_t Next();

 private:
  std::uint64_t state_;
};

/**
 * Xoshiro256** PRNG (Blackman & Vigna).
 *
 * Fast, high-quality, and with a portable, fully specified output sequence.
 * Also provides the uniform/normal/lognormal transforms the simulators use,
 * all implemented deterministically on top of the raw stream, so a seed
 * gives the same draws on every IEEE-754 host.
 */
class Rng {
 public:
  /** Seeds the four state words from SplitMix64(@p seed). */
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /** Raw 64-bit draw. */
  std::uint64_t NextU64();

  /** Uniform double in [0, 1). */
  double NextDouble();

  /** Uniform double in [lo, hi). */
  double Uniform(double lo, double hi);

  /** Uniform integer in [lo, hi] (inclusive); requires lo <= hi. */
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /**
   * Standard normal from a 256-layer ziggurat (Marsaglia & Tsang 2000;
   * tables in ziggurat.hpp). About 98.5% of draws take one NextU64(), one
   * multiply and one integer compare; the rest add a PortableExp wedge
   * test or, beyond r = 3.654, a tail loop on PortableLog. No state is
   * carried between calls.
   */
  double Normal();

  /** Normal with the given mean and standard deviation. */
  double Normal(double mean, double stddev);

  /**
   * Normal clamped to [lo, hi] by resampling (up to a bounded number of
   * attempts, then clamping); adequate for bounded power draws.
   */
  double TruncatedNormal(double mean, double stddev, double lo, double hi);

  /** Bernoulli draw with success probability @p p. */
  bool Bernoulli(double p);

  /** Exponential with the given mean (inter-arrival times). */
  double Exponential(double mean);

  /** Lognormal parameterized by the underlying normal's mu/sigma. */
  double LogNormal(double mu, double sigma);

  /** Fisher-Yates shuffle of @p items. */
  template <typename T>
  void
  Shuffle(std::vector<T>& items)
  {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j =
          static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  /** Derives an independent child generator (for per-component streams). */
  Rng Fork();

 private:
  std::uint64_t state_[4];
};

}  // namespace flex

#endif  // FLEX_COMMON_RNG_HPP_
