/**
 * @file
 * The end-to-end SDC containment audit.
 *
 * Drives billions of modeled unsafe-fast accesses against a sampled
 * module fleet: clean accesses are accounted analytically in bulk,
 * while every *erroneous* access (a Poisson draw against the
 * margin::ErrorRateModel hourly rate, plus any fault-campaign error
 * bursts) is pushed through the real Bamboo codec and classified by
 * the shadow-memory oracle.  Wide (8B+) errors go through the
 * importance sampler so the 2^-64 silent-escape tail is actually
 * observed, not just assumed.  Detected errors feed each module's
 * core::EpochGuard exactly like production traffic, so the audit also
 * measures how much detected-error pressure the fleet puts on the
 * guard's per-epoch budget.
 *
 * The audit is resumable: its complete mutable state (per-module
 * counters, guards and RNG streams, per-epoch counters, the campaign
 * cursor) round-trips through src/snapshot with a config fingerprint,
 * and a resumed audit finishes bit-identically to an uninterrupted one.
 */

#ifndef HDMR_VERIFY_AUDIT_HH
#define HDMR_VERIFY_AUDIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/epoch_guard.hh"
#include "ecc/bamboo.hh"
#include "fault/campaign.hh"
#include "margin/error_model.hh"
#include "margin/module.hh"
#include "telemetry/metrics.hh"
#include "verify/escape_sampler.hh"
#include "verify/sdc_oracle.hh"

namespace hdmr::verify
{

/** Campaign parameters for one audit run. */
struct SdcAuditConfig
{
    std::uint64_t seed = 0x5dc0417u;
    /** Fleet size (modules sampled from the population model). */
    unsigned modules = 4;
    /** Modeled operating hours per module. */
    unsigned hours = 24;
    /** Unsafe-fast accesses modeled per module-hour. */
    double accessesPerHour = margin::ErrorRateModel::kStressAccessesPerHour;
    /** Overshoot past each module's stable rate, in rate steps; this is
     *  what makes the fleet produce errors to classify. */
    unsigned overshootSteps = 2;
    /** Minimum proposal share of wide (8B+) draws among erroneous
     *  accesses (importance sampling of the dangerous tail; the
     *  natural share is used when it is already larger). */
    double wideOversample = 0.25;
    /** Mixture weight of the constructed null-space branch within wide
     *  draws (verify::EscapeSampler lambda). */
    double escapeLambda = 0.5;

    margin::ErrorModelParams errorModel;
    OracleConfig oracle;
    core::EpochGuardConfig epoch;
    /** Optional burst overlay; only kErrorBurst events are consumed
     *  (targets are folded onto modules by index). */
    fault::CampaignConfig bursts;
    /** Optional explicit event overlay (e.g. a DriftChaosCampaign's
     *  kErrorBurst view); only kErrorBurst events are consumed, folded
     *  onto modules exactly like the Poisson bursts.  The overlay is
     *  part of the config fingerprint, so snapshots taken under one
     *  drift realization refuse to resume under another. */
    std::vector<fault::FaultEvent> scheduleOverlay;

    /** Reject impossible campaigns with kInvalidArgument naming the
     *  field; SdcAudit's constructor checkOk()s it. */
    util::Status validate() const;
};

/** Aggregated results of a (possibly still running) audit. */
struct SdcAuditReport
{
    /** Fleet-wide counters (per-module counters merged). */
    OracleCounters total;
    /** Modeled module-hours completed so far. */
    double modeledHours = 0.0;
    /** Detected errors recorded into the epoch guards. */
    std::uint64_t detectedErrors = 0;
    /** Guard trips across the fleet. */
    std::uint64_t guardTrips = 0;
    /** Distinct epochs with at least one classified access. */
    unsigned epochsObserved = 0;

    /** Estimated nominal accesses represented by the audit. */
    double
    modeledAccesses() const
    {
        return total.weightTotal();
    }

    /**
     * Measured P(silent escape | wide error) - the audit's estimate of
     * the quantity BambooCodec::escapeProbability8BPlus() asserts.
     */
    double escapesPerWideError() const;

    /** Measured silent escapes per modeled access. */
    double measuredEscapeRate() const;

    /** MTT-SDC implied by the measured escape rate at this fleet's
     *  access volume, in years; +infinity when no escape weight. */
    double projectedMttSdcYears(double accesses_per_hour) const;

    /**
     * True when the measured per-wide-error escape probability lies
     * within a factor `tolerance` of `expected` (both directions).
     */
    bool escapeConsistentWith(double expected, double tolerance) const;
};

/** The resumable audit engine. */
class SdcAudit
{
  public:
    explicit SdcAudit(const SdcAuditConfig &config);

    /** Process one module-hour; false once the campaign is complete. */
    bool step();

    /** Run the remaining campaign to completion. */
    void run();

    bool done() const { return cursor_ >= totalSteps(); }

    /** Module-hours processed so far. */
    std::uint64_t stepsDone() const { return cursor_; }
    std::uint64_t
    totalSteps() const
    {
        return static_cast<std::uint64_t>(config_.modules) * config_.hours;
    }

    SdcAuditReport report() const;

    /**
     * Publish the audit's fleet-wide classification counts, sampler
     * tallies, and epoch-guard pressure as counters/gauges under
     * `prefix` (e.g. "verify").  Export-time enumeration, not a hot
     * path; values overwrite on repeated calls.
     */
    void publishTelemetry(telemetry::Registry &registry,
                          const std::string &prefix) const;

    const SdcAuditConfig &config() const { return config_; }
    /** Per-epoch counters, indexed by epoch number. */
    const std::vector<OracleCounters> &epochCounters() const
    {
        return epochs_;
    }

    // ---- snapshot/resume ----

    void saveState(snapshot::Serializer &out) const;
    /** False (with the deserializer failed) on any mismatch. */
    bool restoreState(snapshot::Deserializer &in);

    /** Write a resumable snapshot file (atomic .tmp + rename +
     *  directory fsync); kIoError on any write failure. */
    util::Status saveToFile(const std::string &path) const;
    /** Resume from a snapshot written by saveToFile; the audit must
     *  have been constructed with the same config.  kDataLoss on
     *  corruption, kFailedPrecondition on a config mismatch. */
    util::Status resumeFromFile(const std::string &path);

  private:
    struct ModuleState
    {
        OracleCounters counters;
        core::EpochGuard guard;
        util::Rng rng;

        ModuleState(const core::EpochGuardConfig &epoch, util::Rng stream)
            : guard(epoch), rng(stream)
        {
        }
    };

    void processModuleHour(unsigned module, std::uint64_t hour);
    OracleCounters &epochSlot(std::uint64_t epoch_index);
    std::uint64_t configFingerprint() const;

    SdcAuditConfig config_;
    ecc::BambooCodec codec_;
    margin::ErrorRateModel model_;
    ShadowMemoryOracle oracle_;
    EscapeSampler sampler_;
    std::vector<margin::MemoryModule> fleet_;
    std::vector<ModuleState> modules_;
    std::vector<OracleCounters> epochs_;
    /** burstErrors_[module][hour]: campaign burst errors to overlay. */
    std::vector<std::vector<double>> burstErrors_;
    /** Module-hours completed, time-major (hour outer, module inner). */
    std::uint64_t cursor_ = 0;
};

} // namespace hdmr::verify

#endif // HDMR_VERIFY_AUDIT_HH
