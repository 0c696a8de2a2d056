/**
 * @file
 * Summary statistics used by the evaluation harness.
 *
 * The paper reports boxplots (Figs. 9, 10), mean +/- stdev whiskers
 * (Fig. 12), and high percentiles (99.9th data latency, 95th request
 * latency). These helpers compute all of those from raw samples.
 */
#ifndef FLEX_COMMON_STATS_HPP_
#define FLEX_COMMON_STATS_HPP_

#include <cstddef>
#include <string>
#include <vector>

namespace flex {

/** Streaming accumulator for mean / variance (Welford's algorithm). */
class RunningStats {
 public:
  /** Adds one sample. */
  void Add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /** Sample variance (n - 1 denominator); 0 for fewer than 2 samples. */
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/**
 * Percentile of @p samples using linear interpolation between closest
 * ranks; @p q in [0, 100]. The input need not be sorted.
 */
double Percentile(std::vector<double> samples, double q);

/**
 * Exact percentiles of a sample multiset that arrives in runs of equal
 * values. Add(x, n) records n copies of x and extends the last run in
 * O(1) when x equals its value, so a stream that repeats values in
 * bursts (every reading of a telemetry batch has the same latency)
 * costs memory per run, not per sample.
 */
class RunLengthSummary {
 public:
  /** Records @p n copies of @p value; n = 0 records nothing. */
  void Add(double value, std::size_t n = 1);

  /** Samples recorded. */
  std::size_t count() const { return count_; }

  /** Runs stored; the summary's memory is proportional to this. */
  std::size_t run_count() const { return runs_.size(); }

  /**
   * Exactly flex::Percentile() of the expanded samples: the same ranks
   * and the same interpolation, found by walking the value-sorted runs.
   */
  double Percentile(double q) const;

 private:
  struct Run {
    double value;
    std::size_t count;
  };

  std::vector<Run> runs_;  // in arrival order
  std::size_t count_ = 0;
};

/** Five-number summary backing a boxplot, as the paper's Figs. 9 and 10. */
struct BoxStats {
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;

  /** Computes the summary from raw samples. */
  static BoxStats FromSamples(std::vector<double> samples);

  /** Render as "min/p25/median/p75/max" with the given precision. */
  std::string ToString(int precision = 2) const;
};

}  // namespace flex

#endif  // FLEX_COMMON_STATS_HPP_
