/**
 * @file
 * Deterministic, seeded time-varying margin-drift model.
 *
 * The paper measures margins once, at qualification time; a production
 * fleet then watches those margins *move*.  This model generates the
 * three processes that move them, per module, from one seed:
 *
 *  - *Aging*: each module erodes its latent stable rate along a
 *    power-law curve erosion(h) = r_m * (h/1000)^q.  The per-module
 *    rate r_m is log-normal across the fleet, with a configurable
 *    fraction of the log-variance shared within same-brand/same-batch
 *    cohorts, so modules bought together drift together (the
 *    correlated-failure mode AL-DRAM warns about).
 *  - *Diurnal temperature*: a deterministic sinusoidal ambient rise
 *    peaking once per 24 h (machine-room load cycle), shared by every
 *    module in the fleet.
 *  - *Voltage-noise spikes*: per-module Poisson-scheduled transient
 *    windows during which the error rate is multiplied, modelling
 *    supply noise that raises the error floor without eroding margin.
 *
 * All curves are derived from DriftConfig at construction - the model
 * is stateless after that - so snapshot/resume persists only an
 * FNV-1a digest of the realized curves (the ScheduleCursor pattern):
 * a resumed run proves it is re-deriving the *same* drift realization,
 * and a snapshot taken under a different drift config is rejected.
 */

#ifndef HDMR_MARGIN_DRIFT_HH
#define HDMR_MARGIN_DRIFT_HH

#include <cstdint>
#include <vector>

#include "margin/error_model.hh"
#include "margin/module.hh"
#include "util/status.hh"

namespace hdmr::snapshot
{
class Serializer;
class Deserializer;
} // namespace hdmr::snapshot

namespace hdmr::margin
{

/** Parameters of the fleet-wide drift realization. */
struct DriftConfig
{
    std::uint64_t seed = 0xd21f7u;
    /** Fleet size (independent drift streams). */
    unsigned modules = 1;
    /** Spike-schedule horizon; 0 disables voltage-noise spikes. */
    double horizonHours = 0.0;

    // ---- aging ----
    /** Median stable-rate erosion per 1000 operating hours; 0
     *  disables aging entirely (no RNG touched for it). */
    double agingMtsPerKiloHour = 0.0;
    /** Log-normal sigma of the per-module aging rate. */
    double agingSigma = 0.5;
    /** Power-law exponent: erosion(h) = r * (h/1000)^agingExponent. */
    double agingExponent = 1.0;
    /** Modules per same-brand/same-batch cohort (>= 1). */
    unsigned cohortSize = 1;
    /** Fraction of the aging log-variance shared within a cohort. */
    double cohortCorrelation = 0.0;

    // ---- diurnal temperature ----
    /** Peak ambient rise over the base operating point, degC. */
    double diurnalAmplitudeC = 0.0;
    /** Hour-of-day at which the ambient rise peaks. */
    double diurnalPeakHour = 14.0;

    // ---- voltage-noise spikes ----
    /** Poisson spike rate per module per 1000 hours. */
    double spikesPerKiloHour = 0.0;
    /** Mean spike duration (exponential), hours. */
    double spikeMeanHours = 0.25;
    /** Error-rate multiplier while a spike is active. */
    double spikeErrorMultiplier = 4.0;

    /**
     * Reject impossible drift realizations (NaN/negative rates,
     * zero modules, correlation outside [0,1], ...) with
     * kInvalidArgument naming the offending field; one pass, first
     * offender wins.  MarginDriftModel's constructor checkOk()s it.
     */
    util::Status validate() const;

    bool
    enabled() const
    {
        return agingMtsPerKiloHour > 0.0 || diurnalAmplitudeC > 0.0 ||
               (spikesPerKiloHour > 0.0 && horizonHours > 0.0);
    }
};

/** One transient voltage-noise window. */
struct VoltageSpike
{
    double startHour = 0.0;
    double durationHours = 0.0;
    double errorMultiplier = 1.0;

    bool
    covers(double hour) const
    {
        return hour >= startHour && hour < startHour + durationHours;
    }
};

/**
 * The realized drift curves for one fleet.  Construction draws every
 * per-module curve from the seed; evaluation is pure.
 */
class MarginDriftModel
{
  public:
    explicit MarginDriftModel(DriftConfig config);

    const DriftConfig &config() const { return config_; }

    /** Realized aging rate of `module`, MT/s per 1000 h. */
    double agingRateMtsPerKiloHour(unsigned module) const;

    /** Realized spike schedule of `module`, sorted by start time. */
    const std::vector<VoltageSpike> &spikes(unsigned module) const;

    /** Accumulated erosion of `module` after `hour` hours. */
    double erosionMtsAt(unsigned module, double hour) const;

    /** Fleet-wide diurnal ambient rise at `hour`. */
    double ambientDeltaAt(double hour) const;

    /** Voltage-noise error multiplier of `module` at `hour`. */
    double errorMultiplierAt(unsigned module, double hour) const;

    // ---- drifted oracle (modulates margin::ErrorRateModel) ----

    /** `base` with the diurnal ambient rise applied at `hour`. */
    OperatingPoint operatingPointAt(const OperatingPoint &base,
                                    double hour) const;

    /** Stable rate of fleet slot `index` at `hour` (erosion applied). */
    unsigned stableRateAt(const ErrorRateModel &model,
                          const MemoryModule &module,
                          const OperatingPoint &base, unsigned index,
                          double hour) const;

    /** Expected errors/hour at `hour`, all three processes applied. */
    double errorsPerHourAt(const ErrorRateModel &model,
                           const MemoryModule &module,
                           const OperatingPoint &base, unsigned index,
                           double hour) const;

    /** Per-read error probability at `hour`, all processes applied. */
    double errorProbabilityPerReadAt(const ErrorRateModel &model,
                                     const MemoryModule &module,
                                     const OperatingPoint &base,
                                     unsigned index, double hour) const;

    /** Order- and content-sensitive digest of the realized curves. */
    std::uint64_t digest() const;

    /** Persist the realization fingerprint (digest only; the curves
     *  re-derive from config). */
    void save(snapshot::Serializer &out) const;

    /**
     * Verify a fingerprint persisted by save() against this model's
     * realization.  Fails the deserializer (and returns false) when
     * the digests disagree: the snapshot belongs to a different drift
     * realization and must not be resumed against this one.
     */
    bool restore(snapshot::Deserializer &in);

  private:
    MemoryModule wornModule(const MemoryModule &module, unsigned index,
                            double hour) const;

    DriftConfig config_;
    /** Realized per-module aging rates, MT/s per 1000 h. */
    std::vector<double> agingRates_;
    /** Realized per-module spike schedules, sorted by start. */
    std::vector<std::vector<VoltageSpike>> spikes_;
};

} // namespace hdmr::margin

#endif // HDMR_MARGIN_DRIFT_HH
