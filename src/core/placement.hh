/**
 * @file
 * Heterogeneous-reliability placement policy (alongside
 * core::replication).
 *
 * Three ways to pay for margin exploitation:
 *
 *   Hetero-DMR        every page of a fast-read footprint carries a
 *                     full copy (the paper's design; 50 % capacity
 *                     tax, any UE kills the attempt);
 *   Het-Reliability   tolerant pages live *unreplicated* on the
 *                     margin-exploited fast modules while critical
 *                     pages keep the copy / at-spec protection (Luo
 *                     et al.'s HRM applied to margin exploitation);
 *   Hybrid            per-job choice - jobs whose tolerant fraction
 *                     clears a threshold run Het-Reliability, the
 *                     rest run full Hetero-DMR.
 *
 * The policy also carries the graceful-degradation semantics: a
 * detected UE (or injected fault) on a *tolerant* page downgrades the
 * page and lets the job continue with a recorded data-quality
 * penalty; a critical-page UE keeps the full kill + requeue +
 * quarantine behaviour of the resilience ladder.  The policy itself
 * is stateless and pure, so it folds into config fingerprints rather
 * than snapshots.
 */

#ifndef HDMR_CORE_PLACEMENT_HH
#define HDMR_CORE_PLACEMENT_HH

#include <array>
#include <cstdint>

#include "util/status.hh"

namespace hdmr::core
{

/** Placement architectures for margin-exploited memory. */
enum class PlacementMode : std::uint8_t
{
    kHeteroDmr,      ///< full copies for every fast page (existing)
    kHetReliability, ///< tolerant pages unreplicated, critical copied
    kHybrid,         ///< per-job: HRM above a tolerance threshold
};

const char *toString(PlacementMode mode);

/** The (stateless) placement policy. */
struct PlacementPolicy
{
    PlacementMode mode = PlacementMode::kHeteroDmr;
    /** Hybrid: minimum tolerant fraction for HRM placement. */
    double hybridTolerantThreshold = 0.5;
    /** Data-quality penalty recorded per degraded page (unitless;
     *  summed into the cluster metrics). */
    double degradePenalty = 1.0;
    /** Representative memory utilization per usage class (the
     *  midpoints of the Fig. 1/12 buckets <25 %, [25,50) %, >=50 %);
     *  drives the copy-capacity accounting and HRM eligibility. */
    std::array<double, 3> usageRepresentative = {0.15, 0.375, 0.75};

    /**
     * One-pass validation; returns kInvalidArgument naming the
     * offending field.  Construction sites checkOk() it.
     */
    util::Status validate() const;

    /**
     * True when a job with this tolerant fraction runs its tolerant
     * pages unreplicated (i.e. HRM semantics - and graceful
     * degradation - apply to it under this policy).
     */
    bool unreplicatedTolerant(double tolerant_fraction) const;

    /** Fraction of the job's footprint that still carries copies. */
    double replicatedShare(double tolerant_fraction) const;

    /**
     * Can a job of `usage_class` exploit margin?  Hetero-DMR needs
     * the *whole* footprint to fit beside its copy (<50 % usage);
     * HRM only needs the replicated (critical) share to fit, so
     * high-usage jobs with enough tolerant pages become eligible.
     */
    bool marginEligible(unsigned usage_class,
                        double tolerant_fraction) const;

    /**
     * Probability that a margin UE striking this job lands on a
     * tolerant (unreplicated) page; zero when the job runs full
     * Hetero-DMR, where every page has a copy to recover from.
     */
    double tolerantStrikeProbability(double tolerant_fraction) const;

    /** SplitMix64-chained fingerprint of every field. */
    std::uint64_t digest() const;
};

} // namespace hdmr::core

#endif // HDMR_CORE_PLACEMENT_HH
