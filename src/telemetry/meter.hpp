/**
 * @file
 * Power meter models with realistic failure modes.
 *
 * The paper's production lessons (Section VI) call out exactly the
 * defects modeled here: meters that return a stale value for seconds at
 * a time ("repeated polling of the UPS meters would often return the
 * same value for up to 5 seconds"), reading noise, and outright meter
 * failure. A logical meter reaches consensus over three physical meters
 * so any single failure or misreading is tolerated (Section IV-C).
 *
 * Memory: a room has one logical meter per UPS and per rack, so the
 * meters store only what differs per meter. The MeterConfig is the
 * pipeline's (one per room), calibration drift sits in a side list
 * because only fault injection starts one, and all physical meters live
 * in one flat array (MeterArray) instead of a heap vector per device.
 */
#ifndef FLEX_TELEMETRY_METER_HPP_
#define FLEX_TELEMETRY_METER_HPP_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace flex::telemetry {

/** Behavioural knobs shared by every physical meter of a pipeline. */
struct MeterConfig {
  /** Multiplicative Gaussian reading noise (fraction of true value). */
  double noise_fraction = 0.005;
  /**
   * Minimum time between output refreshes: polls within this window see
   * the same cached value (the paper's ~5 s legacy UPS meters vs. the
   * ~1 s dedicated Flex meters).
   */
  Seconds refresh_interval = Seconds(1.0);
  /**
   * Probability that any given refresh produces a gross misreading
   * (modeled as a 3x over-report, i.e. corrupted scaling).
   */
  double misread_probability = 0.0;
};

/** Throws ConfigError, naming the field, if @p config is unusable. */
void ValidateMeterConfig(const MeterConfig& config);

/**
 * A calibration drift on one physical meter: refreshed readings are
 * scaled by (1 + rate * (now - since)), modeling a meter whose output
 * creeps away from the truth.
 */
struct MeterDrift {
  double rate_per_second = 0.0;
  Seconds since{0.0};
};

/**
 * One physical meter attached to a power signal.
 *
 * The meter holds a cached output that refreshes at most every
 * refresh_interval; Sample() never sees the true value directly once the
 * cache is warm. A failed meter returns no reading until restored.
 */
class PhysicalMeter {
 public:
  explicit PhysicalMeter(Rng rng) : rng_(rng) {}

  /**
   * Samples the meter at simulated time @p now given the instantaneous
   * true power @p true_value, under @p config. A non-null @p drift
   * scales refreshed readings. Returns nullopt while failed.
   */
  std::optional<Watts> Sample(const MeterConfig& config, Seconds now,
                              Watts true_value,
                              const MeterDrift* drift = nullptr);

  /** Marks the meter failed (no readings) or restores it. */
  void SetFailed(bool failed) { failed_ = failed; }
  bool failed() const { return failed_; }

  /**
   * Freezes the meter's output at its cached value (the paper's "same
   * value for up to 5 seconds" defect, taken to its pathological limit).
   * The first sample after sticking still populates an empty cache.
   */
  void SetStuck(bool stuck) { stuck_ = stuck; }
  bool stuck() const { return stuck_; }

 private:
  friend class MeterArray;

  /**
   * Sample's kernel: false while failed, else stores the output in
   * watts in @p out. Defined in meter.cpp, where MeterArray::Read
   * inlines it; a plain flag and double, because an optional returned
   * through the stack stalls the reload of its 16 bytes.
   */
  inline bool Output(const MeterConfig& config, Seconds now,
                     double true_value, const MeterDrift* drift,
                     double& out);

  Rng rng_;
  Seconds last_refresh_{-1e18};
  Watts cached_;
  bool failed_ = false;
  bool stuck_ = false;
  bool has_cache_ = false;
};

/** Most physical meters one logical meter may have. */
inline constexpr int kMaxMetersPerDevice = 8;

/**
 * The logical meters of a set of devices, as one flat, device-major
 * array of physical meters: device d reads through meters
 * [d * redundancy, (d + 1) * redundancy).
 *
 * A logical meter reports consensus over its survivors: with three
 * meters the median tolerates one failure or misreading; with two
 * survivors the average is used; with fewer than two, no consensus is
 * reached and the caller must treat data as missing.
 */
class MeterArray {
 public:
  MeterArray() = default;
  /**
   * Builds @p devices logical meters of @p redundancy physical meters
   * each (1..kMaxMetersPerDevice), forking one stream per physical
   * meter from @p seed_rng in device-major order.
   */
  MeterArray(int devices, int redundancy, Rng& seed_rng);

  /**
   * Consensus reading of @p device at @p now: samples each of its
   * physical meters once, in order, and stores the consensus in
   * @p consensus. Returns false, leaving @p consensus alone, when quorum
   * is lost.
   */
  bool Read(const MeterConfig& config, int device, Seconds now,
            Watts true_value, Watts& consensus);

  /** One physical meter, for failure injection in tests and faults. */
  PhysicalMeter& meter(int device, int index);

  /** Starts (or restarts) a drift on one meter, measured from @p now. */
  void SetDrift(int device, int index, double rate_per_second, Seconds now);
  /** Clears a drift started with SetDrift; a no-op without one. */
  void ClearDrift(int device, int index);

  int devices() const {
    return redundancy_ == 0 ? 0
                            : static_cast<int>(meters_.size()) / redundancy_;
  }
  int redundancy() const { return redundancy_; }

 private:
  std::size_t FlatIndex(int device, int index) const;
  const MeterDrift* DriftOf(std::size_t meter) const;

  std::vector<PhysicalMeter> meters_;
  /** Active drifts keyed by flat meter index; empty unless a fault set one. */
  std::vector<std::pair<std::size_t, MeterDrift>> drifts_;
  int redundancy_ = 0;
};

}  // namespace flex::telemetry

#endif  // FLEX_TELEMETRY_METER_HPP_
