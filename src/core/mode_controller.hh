/**
 * @file
 * The Hetero-DMR per-channel mode controller (Sections III-A, III-C,
 * III-E), which also serves as the generic write path for the
 * baseline designs.
 *
 * It owns the channel's 128 KB victim write-back cache, routes LLC
 * dirty evictions into it, triggers write-mode entry when the victim
 * cache fills, refills the (small) write buffer during write mode -
 * including Hetero-DMR's proactive cleaning of up to 12,800
 * least-recently-used dirty LLC lines per window - and manages the
 * heterogeneous operation itself: unsafely fast read-mode timing,
 * specification write-mode timing, 1 us JEDEC-compliant frequency
 * transitions (Figs. 9/10), self-refresh parking of the original
 * ranks during read mode (Fig. 8b), detected-error recovery costing,
 * and the SDC epoch guard.
 */

#ifndef HDMR_CORE_MODE_CONTROLLER_HH
#define HDMR_CORE_MODE_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>

#include "cache/cache.hh"
#include "cache/writeback_cache.hh"
#include "core/epoch_guard.hh"
#include "core/replication.hh"
#include "dram/controller.hh"
#include "sim/event_queue.hh"

namespace hdmr::core
{

/**
 * Module-quarantine / margin-demotion policy (fault-tolerance layer).
 *
 * A channel whose margin assumption turns out to be wrong - evidenced
 * by repeated recovery events - is *demoted*: its fast setting is
 * permanently lowered one 200 MT/s step (with a modelled re-profiling
 * downtime), and once the fast setting reaches specification the
 * channel is *quarantined*: it never runs fast again.  The trigger
 * defaults to disabled (0), in which case behaviour is identical to
 * the seed.
 */
struct QuarantinePolicy
{
    /** Demote after this many recovery/UE events; 0 disables. */
    unsigned demoteAfterRecoveries = 0;
    /** Fast-setting reduction per demotion. */
    unsigned demoteStepMts = 200;
    /**
     * Error-probability scale per demotion step: one step less
     * overshoot divides the error rate by roughly the margin model's
     * per-step growth factor (ErrorModelParams::growthPerStep).
     */
    double demotionErrorFactor = 1.0 / 30.0;
    /** Error-probability growth per 200 MT/s of margin *drift*. */
    double driftErrorGrowthPerStep = 30.0;
    /** Error probability a drifting but previously clean channel gets. */
    double driftFloorErrorProbability = 1.0e-8;
    /** Downtime modelling the re-profiling sweep after a demotion. */
    util::Tick reprofileDowntime = 100 * util::kTicksPerUs;
};

/** Mode-controller configuration. */
struct ModeControllerConfig
{
    /** Write-mode (always-safe) operating setting. */
    dram::MemorySetting specSetting;
    /** Read-mode setting; equals specSetting for non-Hetero designs. */
    dram::MemorySetting fastSetting;
    /**
     * Data rate the module qualified at during profiling; 0 means the
     * fastSetting rate.  When fastSetting starts below this - a static
     * guard band held back at deployment - promote() can re-earn the
     * difference in demoteStepMts steps at runtime (monitor scheme),
     * up to this rate and never beyond it.
     */
    unsigned qualifiedFastRateMts = 0;
    /** Channel replication plan. */
    ChannelPlan plan;
    /**
     * Latency of scaling channel frequency down or up (Figs. 9/10);
     * applied as the read<->write mode switch cost when the plan runs
     * fast reads.  Non-fast designs use the plain bus-turnaround.
     */
    util::Tick frequencyTransitionLatency = util::usToTicks(1.0);
    /** Plain bus turnaround for non-fast designs. */
    util::Tick busTurnaround = 7500;
    /** LLC lines proactively cleaned per write-mode window. */
    std::size_t cleanLinesPerWriteMode = 12800;
    /** Probability a fast read returns a detected-corrupt block. */
    double readErrorProbability = 0.0;
    /** Cost of the slow-down/read-original/overwrite recovery flow. */
    util::Tick errorRecoveryLatency = 2200000;
    /** Probability the recovery read of the original also fails (UE). */
    double recoveryFailureProbability = 0.0;
    /** Quarantine / margin-demotion policy. */
    QuarantinePolicy quarantine;
    /** Victim write-back cache geometry. */
    cache::WritebackCacheConfig writebackCacheConfig;
    /** Epoch-guard parameters. */
    EpochGuardConfig epochConfig;
    /** Victim-cache fill fraction that triggers write mode. */
    double writeModeTriggerFill = 0.9;
};

/** Mode-controller statistics. */
struct ModeControllerStats
{
    std::uint64_t cleanedLines = 0;
    std::uint64_t corrections = 0; ///< detected errors recovered
    std::uint64_t uncorrectedErrors = 0; ///< recoveries that failed (UEs)
    std::uint64_t epochTrips = 0;
    std::uint64_t demotions = 0;     ///< fast setting permanently lowered
    std::uint64_t quarantines = 0;   ///< demoted all the way to spec
    std::uint64_t marginDriftMts = 0; ///< injected drift absorbed
    std::uint64_t promotions = 0;    ///< guard-band steps re-earned
};

/** The per-channel mode controller / write path. */
class ModeController
{
  public:
    /**
     * @param events         simulation event queue
     * @param controller     the channel's memory controller
     * @param llc            the shared LLC (for proactive cleaning);
     *                       may be nullptr to disable cleaning
     * @param channel_filter true for addresses mapped to this channel
     * @param config         see above
     */
    ModeController(sim::EventQueue &events,
                   dram::MemoryController &controller,
                   cache::Cache *llc,
                   std::function<bool(std::uint64_t)> channel_filter,
                   ModeControllerConfig config);

    ~ModeController();

    /** Route one LLC dirty eviction into the write path. */
    void handleDirtyEviction(std::uint64_t address);

    /** Flush everything (end of run): force a final drain. */
    void flush();

    // ---- Monitoring surface (monitor::ActionSink bridge). ----

    /**
     * Additive boost on the write-mode trigger fill (clamped so the
     * effective trigger stays below 1): while a read-preference scheme
     * holds, the victim cache must fill `boost` further before an
     * eviction trickle can force a write-mode entry.  0 restores the
     * configured trigger; re-applying the current boost is a no-op.
     */
    void setWriteTriggerBoost(double boost);

    /**
     * Scale the SDC epoch length relative to its configured base
     * (guard threshold rescales with it, preserving the MTT-SDC
     * target); 1.0 restores the base length.  Idempotent like the
     * boost.
     */
    void setEpochLengthScale(double scale);

    /**
     * Scale the discretionary LLC-cleaning budget each write-mode
     * window earns (the most deferrable write-side work: cleaning
     * extends the stall now to shrink future batches); clamped to
     * [0, 1], 1.0 restores the configured budget.  Idempotent like
     * the boost.
     */
    void setCleanBudgetScale(double scale);

    const ModeControllerStats &stats() const { return stats_; }
    const cache::WritebackCache &writebackCache() const { return wbCache_; }
    bool fastOperationEnabled() const { return fastEnabled_; }
    bool quarantined() const { return quarantined_; }
    /** Current (possibly demoted) fast-setting data rate. */
    unsigned fastRateMts() const { return config_.fastSetting.dataRateMts; }

    // ---- Fault-injection surface (fault::NodeFaultInjector). ----

    /**
     * Deliver a burst of detected errors (an intermittent module
     * episode): each error is charged to the recovery flow and the SDC
     * epoch guard exactly like an organically detected one.  Ignored
     * while the channel is not running fast (no fast reads, no fast
     * read errors).
     */
    void injectDetectedErrors(std::uint64_t count);

    /** Deliver one uncorrectable error directly. */
    void injectUncorrectable();

    /**
     * Erode the channel's margin by `mts`: the same fast setting now
     * overshoots the (drifted) stable rate, so the error probability
     * grows per the margin model's per-step factor.
     */
    void applyMarginDrift(unsigned mts);

    /**
     * Scale the fast-read error probability by `factor` (45 degC
     * temperature excursion: ~4x; 1.0 restores nominal conditions).
     */
    void setAmbientErrorMultiplier(double factor);

    /** Demote one step now (external policy decision). */
    void demote();

    /**
     * Promote one step back toward the qualified fast rate (external
     * policy decision: the monitor's promote scheme).  No-op when the
     * channel is quarantined or already at its qualified rate.
     *
     * The retiming latches at the next natural mode transition:
     * forcing one mid-compute would cost more than the earned margin
     * returns.
     */
    void promote();

    /** The fast rate the channel was originally qualified at. */
    unsigned qualifiedFastRateMts() const { return qualifiedFastRateMts_; }

    /** The controller configuration this mode controller installs. */
    static dram::ControllerConfig
    buildControllerConfig(const ModeControllerConfig &config,
                          std::uint64_t seed);

  private:
    std::size_t refillWrites(std::size_t space);
    void onWriteModeEnter();
    void onWriteModeExit();
    void onReadError();
    void onUncorrectableError();
    void countRecoveryEvent();
    void disableFastOperation();
    void reenableFastOperation();
    void enqueueWriteNow(std::uint64_t address);

    /** config_ with transient (ambient) adjustments applied. */
    ModeControllerConfig activeConfig() const;

    /**
     * Drop to specification until `resume_at` (or forever when
     * `permanent`); extends but never shortens a pending suspension.
     */
    void suspendFastOperation(util::Tick resume_at, bool permanent);

    /** Push the current active config into the memory controller. */
    void applyReconfiguration();

    sim::EventQueue &events_;
    dram::MemoryController &controller_;
    cache::Cache *llc_;
    std::function<bool(std::uint64_t)> channelFilter_;
    ModeControllerConfig config_;

    cache::WritebackCache wbCache_;
    std::deque<std::uint64_t> overflow_; ///< victim-cache spill
    std::size_t cleanBudget_ = 0;
    bool fastEnabled_ = false;
    bool quarantined_ = false;
    /** Monitor-asserted additive write-trigger boost (0 = none). */
    double triggerBoost_ = 0.0;
    /** Monitor-asserted cleaning-budget scale (1 = full budget). */
    double cleanScale_ = 1.0;
    double ambientMultiplier_ = 1.0;
    std::uint64_t recoveryEventsSinceDemotion_ = 0;
    /** Construction-time fast rate: the promotion ceiling. */
    unsigned qualifiedFastRateMts_ = 0;

    sim::CallbackEvent reenableEvent_;
    EpochGuard guard_;
    ModeControllerStats stats_;
};

} // namespace hdmr::core

#endif // HDMR_CORE_MODE_CONTROLLER_HH
