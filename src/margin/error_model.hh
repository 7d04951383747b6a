/**
 * @file
 * Error-rate model for memory operated beyond its specification.
 *
 * Encodes the empirical regularities of Section II-C:
 *  - below a module's latent stable rate, errors are essentially absent
 *    (99.999%+ of accesses correct);
 *  - at/above it, the hourly error rate grows steeply with overshoot
 *    and varies by orders of magnitude across modules (log-normal
 *    intensity);
 *  - 45 degC ambient multiplies the frequency-margin error rate by ~4x
 *    (and the freq+latency rate by ~2x relative to its own 23 degC
 *    rate), and shaves one 200 MT/s step off a small subset of modules;
 *  - most errors are ECC-correctable (CEs), a substantial minority are
 *    not (UEs);
 *  - a fully-populated system sees roughly half the naive per-module
 *    sum because each module is accessed half as often.
 */

#ifndef HDMR_MARGIN_ERROR_MODEL_HH
#define HDMR_MARGIN_ERROR_MODEL_HH

#include <vector>

#include "margin/module.hh"

namespace hdmr::margin
{

/** Conditions a module is operated under. */
struct OperatingPoint
{
    unsigned dataRateMts = 3200;
    double ambientC = 23.0;
    bool latencyMarginsExploited = false;
    double voltage = 1.2;
    /**
     * Relative per-module access intensity; 1.0 = the single-module
     * stress-test setup, 0.5 = two modules sharing a channel.
     */
    double accessIntensity = 1.0;
};

/** One bounded window of elevated ambient temperature. */
struct TemperatureExcursion
{
    double startHour = 0.0;
    double durationHours = 0.0;
    /** Ambient during the window (cooling failure: 45 degC). */
    double ambientC = 45.0;

    bool
    covers(double hour) const
    {
        return hour >= startHour && hour < startHour + durationHours;
    }
};

/**
 * Time-varying operating conditions: a base OperatingPoint plus the
 * two slow processes the fault model injects - monotonic margin drift
 * (aging erodes the latent stable rate) and scheduled temperature
 * excursions.  With zero drift and no excursions, at(h) == base for
 * every h, so the time-varying oracle degenerates to the stateless one.
 */
struct TimeVaryingConditions
{
    OperatingPoint base;
    /** Stable-rate erosion, MT/s per operating hour (aging). */
    double marginDriftMtsPerHour = 0.0;
    std::vector<TemperatureExcursion> excursions;

    /** The operating point in effect `hour` hours into the run. */
    OperatingPoint
    at(double hour) const
    {
        OperatingPoint op = base;
        for (const TemperatureExcursion &window : excursions) {
            if (window.covers(hour) && window.ambientC > op.ambientC)
                op.ambientC = window.ambientC;
        }
        return op;
    }

    /** Accumulated stable-rate erosion after `hour` hours. */
    double
    erosionMts(double hour) const
    {
        return marginDriftMtsPerHour * (hour > 0.0 ? hour : 0.0);
    }
};

/** Model constants (defaults calibrated to Fig. 6). */
struct ErrorModelParams
{
    /** Mean errors/hour one step past the stable rate, unit intensity. */
    double baseErrorsPerHour = 200.0;
    /** Multiplicative growth per additional 200 MT/s of overshoot. */
    double growthPerStep = 30.0;
    /** 45 degC multiplier when exploiting frequency margin only. */
    double hotFactorFreq = 4.0;
    /** 45 degC multiplier when also exploiting latency margins. */
    double hotFactorFreqLat = 2.0;
    /** 23 degC multiplier for adding latency-margin exploitation. */
    double latencyFactor = 2.0;
    /** Fraction of errors the conventional ECC cannot correct. */
    double uncorrectableFraction = 0.3;
    /** Step size used for margin-loss corner cases. */
    unsigned stepMts = 200;
};

/**
 * How the errors of one operating point split across the corruption
 * shapes of ecc::ErrorPattern (Section III: bit flips, whole-IO-pin
 * byte errors, multi-pin bursts, command/address "8B+" mishaps).
 * Fractions sum to 1.
 */
struct ErrorPatternMix
{
    double singleBit = 0.0;
    double singleByte = 0.0;
    double multiByte = 0.0;
    double wideBlock = 0.0;
};

/**
 * Deterministic error-rate oracle.  Stateless; randomness (Poisson
 * sampling of actual counts) lives in the stress-test driver.
 */
class ErrorRateModel
{
  public:
    explicit ErrorRateModel(ErrorModelParams params = {});

    /**
     * Highest data rate at which 99.999%+ of accesses are error-free
     * under the given conditions (ambient/latency corner cases and
     * overvolting applied to the module's latent stable rate).
     */
    unsigned stableRateAt(const MemoryModule &module,
                          const OperatingPoint &op) const;

    /** Highest data rate at which the system boots under `op`. */
    unsigned bootableRateAt(const MemoryModule &module,
                            const OperatingPoint &op) const;

    /** Expected total errors per hour of stress testing at `op`. */
    double errorsPerHour(const MemoryModule &module,
                         const OperatingPoint &op) const;

    /**
     * Probability that one 64-byte read performed at `op` returns a
     * detectably corrupted block.  Used by the Hetero-DMR node model to
     * drive its correction flow; derived from errorsPerHour() assuming
     * the stress test's access volume.
     */
    double errorProbabilityPerRead(const MemoryModule &module,
                                   const OperatingPoint &op) const;

    /**
     * Corruption-shape mix of the errors at `op`.  Mild overshoot is
     * dominated by single-bit/single-byte (signal-integrity) errors;
     * each additional overshoot step shifts weight toward multi-pin
     * bursts and command/address mishaps, so the dangerous wide-block
     * ("8B+") tail grows with aggressiveness.  Exploiting latency
     * margins stresses command timing and doubles the wide share.
     */
    ErrorPatternMix patternMix(const MemoryModule &module,
                               const OperatingPoint &op) const;

    // ---- Time-varying oracle (fault-campaign conditions). ----
    //
    // Each *At() overload evaluates the stateless oracle against a
    // "worn" copy of the module - its latent stable rate reduced by the
    // drift accumulated up to `hour` - under the operating point in
    // effect at `hour` (excursions applied).  With default conditions
    // these are exactly the stateless results.

    /** Stable rate `hour` hours into a run under drifting conditions. */
    unsigned stableRateAt(const MemoryModule &module,
                          const TimeVaryingConditions &conditions,
                          double hour) const;

    /** Expected errors/hour at time `hour` under drifting conditions. */
    double errorsPerHourAt(const MemoryModule &module,
                           const TimeVaryingConditions &conditions,
                           double hour) const;

    /** Per-read error probability at time `hour`. */
    double errorProbabilityPerReadAt(
        const MemoryModule &module,
        const TimeVaryingConditions &conditions, double hour) const;

    const ErrorModelParams &params() const { return params_; }

    /** Accesses/hour the single-module stress test performs. */
    static constexpr double kStressAccessesPerHour = 1.0e9;

  private:
    ErrorModelParams params_;
};

} // namespace hdmr::margin

#endif // HDMR_MARGIN_ERROR_MODEL_HH
