/**
 * @file
 * Fault taxonomy for the injection-campaign subsystem.
 *
 * The paper's architecture is only interesting while its reliability
 * assumptions hold: detected errors are recoverable from the original
 * module, a module's profiled stable rate stays stable, and nodes keep
 * the margin group they were binned into.  This subsystem models the
 * ways those assumptions break (related work: Heterogeneous-Reliability
 * Memory, AL-DRAM) so the rest of the repository can quantify graceful
 * degradation instead of only the happy path:
 *
 *  - transient uncorrectable errors (the recovery read of the original
 *    *also* returns corrupt data);
 *  - intermittent bursts of detected errors (a marginal module having
 *    a bad minute, pressure on the SDC epoch guard);
 *  - margin drift (aging erodes the profiled stable rate, so the
 *    "safe" fast setting slowly stops being safe);
 *  - temperature excursions (cooling failure; Section II-C measured a
 *    ~4x error-rate multiplier at 45 degC);
 *  - whole-node failures and margin-group demotions (cluster layer).
 */

#ifndef HDMR_FAULT_FAULT_HH
#define HDMR_FAULT_FAULT_HH

#include <cstdint>

namespace hdmr::fault
{

/** The kinds of injected fault the campaign engine schedules. */
enum class FaultKind : std::uint8_t
{
    kTransientUncorrectable, ///< detected error whose recovery fails too
    kErrorBurst,             ///< burst of detected-correctable errors
    kMarginDrift,            ///< permanent erosion of the stable rate
    kTemperatureExcursion,   ///< bounded 45 degC window
    kNodeFailure,            ///< whole node permanently lost (cluster)
    kGroupDemotion,          ///< node reclassified one margin group down
};

/** One scheduled fault. */
struct FaultEvent
{
    double atSeconds = 0.0;
    FaultKind kind = FaultKind::kErrorBurst;
    /** Channel index (node layer) or node index (cluster layer). */
    unsigned target = 0;
    /** Kind-specific size: burst error count, drift MT/s, 1 otherwise. */
    double magnitude = 1.0;
    /** Window length for bounded faults (temperature excursions). */
    double durationSeconds = 0.0;
};

/**
 * Bottom-up fault accounting.  Every layer that receives injected
 * faults keeps one of these; campaign runners merge them.
 */
struct FaultAccounting
{
    std::uint64_t injected = 0;        ///< fault events delivered
    std::uint64_t detectedErrors = 0;  ///< burst errors fed to the guard
    std::uint64_t uncorrectable = 0;   ///< UEs surfaced
    std::uint64_t marginDriftMts = 0;  ///< total MT/s of drift applied
    std::uint64_t excursions = 0;      ///< temperature windows opened
    std::uint64_t nodeFailures = 0;
    std::uint64_t groupDemotions = 0;

    void
    merge(const FaultAccounting &other)
    {
        injected += other.injected;
        detectedErrors += other.detectedErrors;
        uncorrectable += other.uncorrectable;
        marginDriftMts += other.marginDriftMts;
        excursions += other.excursions;
        nodeFailures += other.nodeFailures;
        groupDemotions += other.groupDemotions;
    }
};

} // namespace hdmr::fault

#endif // HDMR_FAULT_FAULT_HH
