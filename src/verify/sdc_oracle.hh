/**
 * @file
 * Shadow-memory SDC oracle: ground-truth classification of every
 * unsafe-fast read that the error model says went wrong.
 *
 * The production stack (dram::MemoryController -> core::ModeController)
 * models detection *statistically*: a read error is a Bernoulli draw and
 * the codec never sees real payloads.  That leaves the headline claim -
 * "silent escapes are bounded by 2^-64 per wide error, so MTT-SDC
 * exceeds 10^9 years" - resting on a constant nobody has measured.
 *
 * The oracle closes that loop.  For each modeled erroneous access it
 * carries a known payload end to end through the *real* codec:
 *
 *   1. encode the ground-truth block (derived deterministically from
 *      the access address, i.e. the "shadow memory") with ecc::Bamboo;
 *   2. inject the drawn error pattern with ecc::error_inject, or a
 *      sampled wide-error vector from verify::EscapeSampler;
 *   3. run the detection-only decode the unsafe-fast path uses;
 *   4. on detection, model a recovery ladder (re-read the original at
 *      spec, bounded retries, UE escalation) against the shadow copy.
 *      The retries are this audit's own assumption:
 *      core::ModeController escalates to a UE as soon as its one
 *      spec re-read fails;
 *   5. compare whatever the stack would have delivered against the
 *      ground truth.
 *
 * Every access lands in exactly one class of the taxonomy below; an
 * access the logic cannot place is counted as `unclassified`, and the
 * audit treats any non-zero unclassified count as a failure.
 */

#ifndef HDMR_VERIFY_SDC_ORACLE_HH
#define HDMR_VERIFY_SDC_ORACLE_HH

#include <cstdint>

#include "ecc/bamboo.hh"
#include "ecc/error_inject.hh"
#include "util/status.hh"
#include "verify/escape_sampler.hh"

namespace hdmr::snapshot
{
class Serializer;
class Deserializer;
} // namespace hdmr::snapshot

namespace hdmr::verify
{

/** Exhaustive classification of one unsafe-fast access. */
enum class AccessClass : std::uint8_t
{
    /** No stored byte differed from ground truth. */
    kClean = 0,
    /** Error detected; the recovery ladder delivered correct data. */
    kDetectedRecovered = 1,
    /** Error detected; every ladder rung failed -> reported UE. */
    kDetectedUe = 2,
    /** Delivered data differed from ground truth with no detection
     *  (detection-only decode saw zero syndromes, or a recovery rung
     *  miscorrected) - a silent data corruption. */
    kSilentEscape = 3,
};

inline constexpr unsigned kAccessClassCount = 4;

/** Printable name of an access class. */
const char *accessClassName(AccessClass cls);

/**
 * Per-scope (module, epoch, or campaign-total) oracle counters.
 *
 * Raw counts answer "what did the sampled campaign do"; weighted counts
 * undo the importance sampling and estimate what a *nominal* campaign
 * of the same size would have seen (clean bulk accesses enter with
 * weight 1 each, so `weightTotal()` tracks the modeled access count).
 */
struct OracleCounters
{
    std::uint64_t raw[kAccessClassCount] = {};
    double weighted[kAccessClassCount] = {};
    /** Accesses the classifier could not place; must stay zero. */
    std::uint64_t unclassified = 0;
    /** Wide (8B+) error draws pushed through the sampler. */
    std::uint64_t wideDraws = 0;
    /** Wide draws taken from the constructed null-space branch. */
    std::uint64_t nullSpaceDraws = 0;
    /** Importance-weighted count of wide errors (nominal estimate). */
    double wideWeight = 0.0;
    /** Total ladder retry attempts across detected errors. */
    std::uint64_t retryAttempts = 0;
    /** Recoveries that needed at least one retry rung. */
    std::uint64_t retriedRecoveries = 0;
    /** Escapes caused by a *miscorrecting* recovery decode (subset of
     *  weighted[kSilentEscape]'s raw counterpart). */
    std::uint64_t miscorrections = 0;
    /** Weight those miscorrection escapes carried: subtracting it from
     *  weighted[kSilentEscape] isolates pure *detection* escapes (the
     *  quantity the 2^-64 codec bound is about). */
    double miscorrectionWeight = 0.0;
    /** Silent escapes split by the criticality of the struck page
     *  (index 0: critical, 1: tolerant).  Heterogeneous-reliability
     *  placement only leaves *tolerant* pages exposed to unsafe-fast
     *  errors, so an audit of it must show the critical bucket empty:
     *  a critical-page escape is corrupted state the application
     *  cannot absorb. */
    std::uint64_t escapesByPageClass[2] = {};
    double escapeWeightByPageClass[2] = {};

    void count(AccessClass cls, double weight);

    /** Record the page-class split of one silent escape. */
    void countEscapePageClass(bool tolerant_page, double weight);

    /** Fold `count` analytically-clean accesses in (weight 1 each). */
    void addBulkClean(std::uint64_t count);

    void merge(const OracleCounters &other);

    std::uint64_t rawTotal() const;
    /** Estimated nominal access count represented by this scope. */
    double weightTotal() const;

    void save(snapshot::Serializer &out) const;
    /** Restore from `in`; latches an error in `in` on corruption. */
    void restore(snapshot::Deserializer &in);
};

/** Tuning for the oracle's model of the recovery ladder. */
struct OracleConfig
{
    /** Seed mixed with the address to derive ground-truth payloads. */
    std::uint64_t payloadSeed = 0x0ddba11;
    /** Retry rungs after the first failed spec re-read (ladder depth
     *  beyond the mandatory first attempt). */
    unsigned retryAttempts = 2;
    /** Probability a spec re-read of the original is itself hit by a
     *  (correctable-or-worse) error pattern during recovery. */
    double originalErrorProbability = 0.0;
    /** Fraction of audited pages treated as error-tolerant for the
     *  per-page-class escape split; 0 (the default, matching the
     *  seed) classifies every page critical. */
    double tolerantPageFraction = 0.0;
    /** Seed of the deterministic page-class draw (align with
     *  wl::CriticalityConfig.seed in placement-aware campaigns). */
    std::uint64_t criticalitySeed = 0xc2171ca1u;

    /** kInvalidArgument naming the offending field; checkOk()d at
     *  ShadowMemoryOracle construction. */
    util::Status validate() const;
};

/** Classifies single accesses against ground truth. */
class ShadowMemoryOracle
{
  public:
    /** Outcome of classifying one access. */
    struct Outcome
    {
        AccessClass cls = AccessClass::kClean;
        /** Importance weight the access carries into the counters. */
        double weight = 1.0;
        /** Ladder retries consumed (0 when recovery's first rung or
         *  the detection path settled it). */
        unsigned attemptsUsed = 0;
    };

    ShadowMemoryOracle(const ecc::BambooCodec &codec,
                       const OracleConfig &config);

    /** Ground-truth block contents for `address` (the shadow memory). */
    ecc::Block payloadFor(std::uint64_t address) const;

    /**
     * Classify one erroneous access whose corruption is an
     * ecc::ErrorPattern instance, carrying `weight` from the pattern
     * proposal.  Records into `counters`.
     */
    Outcome classifyPattern(std::uint64_t address,
                            ecc::ErrorPattern pattern, double weight,
                            OracleCounters &counters, util::Rng &rng);

    /**
     * Classify one erroneous access carrying a sampled wide-error
     * draw; the draw's importance weight multiplies `weight`.
     */
    Outcome classifyWide(std::uint64_t address,
                         const WideErrorDraw &draw, double weight,
                         OracleCounters &counters, util::Rng &rng);

    const OracleConfig &config() const { return config_; }

    /** Deterministic page-class draw for an access address. */
    bool pageTolerant(std::uint64_t address) const;

  private:
    /** `reference` is the clean encoded ground truth of `address`;
     *  `corrupted` is that block with the access's error applied. */
    Outcome classify(std::uint64_t address,
                     const ecc::CodedBlock &reference,
                     const ecc::CodedBlock &corrupted, double weight,
                     OracleCounters &counters, util::Rng &rng);

    /** One recovery-ladder rung: spec re-read of the original, whose
     *  stored contents are the clean `reference` (a valid codeword,
     *  so only a re-read that draws an error is decoded). */
    bool recoverOnce(std::uint64_t address,
                     const ecc::CodedBlock &reference,
                     bool &miscorrected, util::Rng &rng);

    const ecc::BambooCodec &codec_;
    OracleConfig config_;
};

} // namespace hdmr::verify

#endif // HDMR_VERIFY_SDC_ORACLE_HH
