/**
 * @file
 * Summary statistics used across characterization and evaluation code:
 * streaming mean/variance (Welford), percentiles, confidence intervals,
 * and fixed-bin histograms.
 */

#ifndef HDMR_UTIL_STATS_HH
#define HDMR_UTIL_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace hdmr::util
{

/**
 * Streaming sample statistics via Welford's online algorithm.
 * Numerically stable; O(1) memory.
 */
class RunningStats
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one (parallel Welford). */
    void merge(const RunningStats &other);

    std::size_t count() const { return count_; }
    double mean() const { return mean_; }
    double min() const;
    double max() const;

    /** Unbiased sample variance (n-1 denominator); 0 for n < 2. */
    double variance() const;

    /** Sample standard deviation. */
    double stdev() const;

    /**
     * Half-width of the two-sided normal-approximation confidence
     * interval at the given confidence (e.g. 0.99), matching the
     * paper's use of the normal distribution for its 99 % CIs.
     */
    double confidenceHalfWidth(double confidence) const;

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Arithmetic mean of a vector; 0 for an empty vector. */
double mean(const std::vector<double> &xs);

/** Sample standard deviation of a vector; 0 for n < 2. */
double stdev(const std::vector<double> &xs);

/** Geometric mean; all inputs must be positive. */
double geomean(const std::vector<double> &xs);

/**
 * Linear-interpolated percentile, p in [0, 100].
 * The input is copied and sorted.
 */
double percentile(std::vector<double> xs, double p);

/**
 * Inverse standard-normal CDF (Acklam's rational approximation,
 * relative error < 1.2e-9).  Used for confidence intervals.
 */
double inverseNormalCdf(double p);

/**
 * Fixed-width-bin histogram over [lo, hi); samples outside the range
 * are clamped into the first/last bin so totals are preserved.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x, double weight = 1.0);

    double binLow(std::size_t i) const;
    double binHigh(std::size_t i) const;
    double binCount(std::size_t i) const { return counts_[i]; }
    double total() const { return total_; }

    /** Fraction of total weight in bin i (0 if empty histogram). */
    double fraction(std::size_t i) const;

    /** Fraction of total weight at or above x. */
    double fractionAtLeast(double x) const;

    /** Render as an ASCII bar chart, one bin per line. */
    std::string toAscii(std::size_t width = 50) const;

  private:
    double lo_, hi_, binWidth_;
    std::vector<double> counts_;
    double total_ = 0.0;
    std::vector<double> raw_; // retained for exact fractionAtLeast()
};

} // namespace hdmr::util

#endif // HDMR_UTIL_STATS_HH
