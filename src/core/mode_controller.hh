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
#include "util/rng.hh"
#include "util/status.hh"

namespace hdmr::core
{

/**
 * Module-quarantine / margin-demotion policy (fault-tolerance layer).
 *
 * A channel whose margin assumption turns out to be wrong - evidenced
 * by repeated recovery events or by the SDC epoch guard tripping in
 * consecutive epochs - is *demoted*: its fast setting is permanently
 * lowered one 200 MT/s step (with a modelled re-profiling downtime),
 * and once the fast setting reaches specification the channel is
 * *quarantined*: it never runs fast again.  Both triggers default to
 * disabled (0), in which case behaviour is identical to the seed.
 */
struct QuarantinePolicy
{
    /** Demote after this many recovery/UE events; 0 disables. */
    unsigned demoteAfterRecoveries = 0;
    /** Demote after this many consecutive tripped epochs; 0 disables. */
    unsigned demoteAfterTripStreak = 0;
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

/**
 * The hardened recovery ladder (robustness layer over Section III-C's
 * recovery flow).
 *
 * The baseline recovery path is one rung: slow to specification, read
 * the original, overwrite the copy.  When that read *also* fails the
 * seed escalated straight to an uncorrectable error.  The ladder adds
 * bounded retries with exponential backoff - each retry re-reads the
 * original at specification, so the channel is held at spec for the
 * backoff window - and an explicit sliding-window error budget: a
 * channel whose *detected*-error arrivals exceed the budget gets fed
 * into the existing demotion/quarantine policy even if no single epoch
 * trips the SDC guard.  All knobs default to disabled (0), in which
 * case behaviour is bit-identical to the seed.
 */
struct RecoveryLadderConfig
{
    /** Retry rungs after the first failed recovery; 0 = escalate
     *  immediately (seed behaviour). */
    unsigned retryAttempts = 0;
    /** Probability an individual retry read also fails. */
    double retryFailureProbability = 0.5;
    /** Channel-at-spec window paid by the first retry. */
    util::Tick retryBackoff = 2200000;
    /** Backoff growth per further retry (exponential backoff). */
    double backoffFactor = 2.0;
    /** Seed of the ladder's private retry-outcome stream. */
    std::uint64_t seed = 0x1adde5u;
    /** Sliding error-budget window; 0 disables the budget. */
    util::Tick errorBudgetWindow = 0;
    /** Detected errors tolerated inside the window before the channel
     *  is demoted; only meaningful with a non-zero window. */
    std::uint64_t errorBudgetLimit = 0;
};

/**
 * Online guard-band recalibration policy (margin-drift resilience
 * layer).
 *
 * A channel's profiled margin is only as good as the day it was
 * measured; aging, temperature and voltage noise all move it.  The
 * recalibration loop watches the channel's *observed* detected-error
 * rate over fixed windows and walks the guard band after the evidence:
 * a channel persistently above its error budget is demoted one step
 * (through the existing quarantine policy), and a previously demoted
 * channel persistently below it earns a re-qualification probe that
 * can promote it one step back toward its qualified rate.  Hysteresis
 * (consecutive out-of-band windows required before acting, strict
 * threshold comparisons, and a promote band well below the demote
 * band) keeps an error rate oscillating at a threshold from flapping
 * the operating point.  `windowTicks = 0` disables the whole loop -
 * no events are scheduled and behaviour is bit-identical to the seed.
 */
struct RecalibrationPolicy
{
    /** Observation-window length; 0 disables recalibration. */
    util::Tick windowTicks = 0;
    /** Detected errors per window the margin classification budgets. */
    double targetErrorsPerWindow = 4.0;
    /** Demote evidence: observed > target * demoteBand (strict). */
    double demoteBand = 2.0;
    /** Promote evidence: observed < target * promoteBand (strict). */
    double promoteBand = 0.25;
    /** Consecutive out-of-band windows required before acting. */
    unsigned hysteresisWindows = 2;
    /** Downtime of one re-qualification probe sweep (channel held at
     *  specification while the candidate step is swept). */
    util::Tick probeDowntime = 100 * util::kTicksPerUs;
    /** Probability a probe finds the candidate step still unstable. */
    double probeFailureProbability = 0.0;
    /** Consecutive recalibration demotions (with no in-band window
     *  between them) after which drift is judged to be outrunning
     *  recalibration and the channel is escalated straight into
     *  quarantine.  0 disables escalation. */
    unsigned escalateAfterDemotions = 0;
    /** Seed of the private probe-outcome stream. */
    std::uint64_t seed = 0x2eca1u;

    /**
     * Reject impossible policies (NaN/negative budgets, inverted
     * hysteresis bands, zero hysteresis depth, out-of-range probe
     * probability) with kInvalidArgument naming the offending field;
     * one pass, first offender wins.  ModeController's constructor
     * checkOk()s it.
     */
    util::Status validate() const;
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
     * difference in demoteStepMts steps at runtime (monitor scheme or
     * recalibration evidence), up to this rate and never beyond it.
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
    /** Hardened recovery ladder (retries + error budget). */
    RecoveryLadderConfig ladder;
    /** Online guard-band recalibration loop. */
    RecalibrationPolicy recalibration;
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
    std::uint64_t dirtyEvictions = 0;
    std::uint64_t cleanedLines = 0;
    std::uint64_t corrections = 0; ///< detected errors recovered
    std::uint64_t uncorrectedErrors = 0; ///< recoveries that failed (UEs)
    std::uint64_t epochTrips = 0;
    std::uint64_t fastDisabledTicks = 0;
    std::uint64_t demotions = 0;     ///< fast setting permanently lowered
    std::uint64_t quarantines = 0;   ///< demoted all the way to spec
    std::uint64_t marginDriftMts = 0; ///< injected drift absorbed
    util::Tick reprofileTicks = 0;   ///< modelled re-profiling downtime
    std::uint64_t ladderRetries = 0; ///< retry rungs walked
    std::uint64_t ladderRecoveries = 0; ///< UEs averted by a retry rung
    util::Tick ladderRetryTicks = 0; ///< channel-at-spec backoff paid
    std::uint64_t budgetDemotions = 0; ///< demotions by the error budget
    std::uint64_t recalWindows = 0;  ///< observation windows evaluated
    std::uint64_t recalDemotions = 0; ///< demotions by recalibration
    std::uint64_t recalPromotions = 0; ///< guard-band steps re-earned
    std::uint64_t recalProbeFailures = 0; ///< probes finding instability
    std::uint64_t recalEscalations = 0; ///< drift outran recalibration
    util::Tick probeTicks = 0;       ///< re-qualification downtime paid
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

    /** Trigger boost currently in effect. */
    double writeTriggerBoost() const { return triggerBoost_; }

    /** Cleaning-budget scale currently in effect. */
    double cleanBudgetScale() const { return cleanScale_; }

    const ModeControllerStats &stats() const { return stats_; }
    const cache::WritebackCache &writebackCache() const { return wbCache_; }
    const EpochGuard &epochGuard() const { return guard_; }
    bool fastOperationEnabled() const { return fastEnabled_; }
    bool quarantined() const { return quarantined_; }
    /** Current (possibly demoted) fast-setting data rate. */
    unsigned fastRateMts() const { return config_.fastSetting.dataRateMts; }

    /** Handler for uncorrectable errors (job kill at the node layer). */
    void
    setUncorrectableHandler(std::function<void()> handler)
    {
        onUncorrectable_ = std::move(handler);
    }

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
     * Promote one step back toward the qualified fast rate after a
     * successful re-qualification probe (external policy decision; the
     * recalibration loop calls this internally).  No-op when the
     * channel is quarantined or already at its qualified rate.
     *
     * With `immediate` the new operating point takes effect now by
     * forcing a mode transition (the recalibration probe already paid
     * for a quiesce).  Without it the retiming latches at the next
     * natural mode transition - the right choice for opportunistic
     * monitor-driven promotion, where forcing a transition mid-compute
     * would cost more than the earned margin returns.
     */
    void promote(bool immediate = true);

    /** The fast rate the channel was originally qualified at. */
    unsigned qualifiedFastRateMts() const { return qualifiedFastRateMts_; }

    /** Detected errors observed in the current recalibration window. */
    std::uint64_t recalWindowErrors() const { return windowErrors_; }

    /**
     * Bind observability metrics under `prefix` (e.g. "mode.ch0"):
     * recovery-ladder rung counts, correction/UE counters, the
     * demotion/quarantine policy counters, and the fast-operation
     * residency gauge.  Unbound, each update is one null check.
     */
    void bindTelemetry(telemetry::Registry &registry,
                       const std::string &prefix);

    /** Emit UE-escalation/demotion/quarantine instants on `trace`. */
    void bindTrace(telemetry::TraceRecorder *trace, std::uint32_t tid);

    /** The controller configuration this mode controller installs. */
    static dram::ControllerConfig
    buildControllerConfig(const ModeControllerConfig &config,
                          std::uint64_t seed);

    // ---- Snapshot/resume surface (src/snapshot). ----

    /**
     * Serialize the controller's durable quarantine/demotion state:
     * the (possibly demoted) fast setting, error probabilities, the
     * trip-streak and recovery counters, the epoch guard, and the
     * statistics block.  Transient write-path state (victim cache
     * contents, pending write-mode events) is deliberately *not*
     * serialized: snapshots are taken at quiescent points and the
     * write path refills organically after resume.
     */
    void saveState(snapshot::Serializer &out) const;

    /**
     * Restore a captured state into a freshly constructed controller
     * (same configuration, before simulation resumes).  Re-applies
     * the demoted operating point (or the permanent quarantine) to the
     * memory controller.  Fails the deserializer and returns false on
     * corrupt or incompatible images.
     */
    bool restoreState(snapshot::Deserializer &in);

  private:
    std::size_t refillWrites(std::size_t space);
    void onWriteModeEnter();
    void onWriteModeExit();
    void onReadError();
    void onUncorrectableError();
    void countRecoveryEvent();
    /** Sliding-window error budget; true when it demoted the channel. */
    bool chargeErrorBudget(util::Tick now);
    /** Evaluate one recalibration window and reschedule the next. */
    void onRecalibrationWindow();
    /** Schedule the next window boundary strictly after `now`. */
    void scheduleRecalWindow(util::Tick now);
    /** Pay the probe downtime and maybe promote; resets the streak. */
    void runPromotionProbe();
    /** Record detection-to-action latency; closes the drift span. */
    void recordRecalAction(const char *action);
    /** Walk the retry rungs; true when a retry recovered the data. */
    bool walkRetryLadder();
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
    util::Tick fastDisabledAt_ = 0;
    double ambientMultiplier_ = 1.0;
    std::uint64_t recoveryEventsSinceDemotion_ = 0;
    std::uint64_t lastTripEpoch_ = ~std::uint64_t(0);
    unsigned tripStreak_ = 0;
    std::function<void()> onUncorrectable_;
    /** Private stream deciding retry-rung outcomes. */
    util::Rng ladderRng_;
    /** Detected-error arrival ticks inside the budget window. */
    std::deque<util::Tick> budgetWindow_;

    // ---- Online recalibration state (all snapshot-serialized). ----

    /** Sentinel: no drift suspicion pending. */
    static constexpr util::Tick kNoDriftSuspected = ~util::Tick(0);
    /** Private stream deciding re-qualification probe outcomes. */
    util::Rng recalRng_;
    /** Detected errors observed since the current window opened. */
    std::uint64_t windowErrors_ = 0;
    /** Consecutive windows above the demote band. */
    unsigned demoteStreak_ = 0;
    /** Consecutive windows below the promote band. */
    unsigned promoteStreak_ = 0;
    /** Consecutive recalibration demotions with no in-band window. */
    unsigned recalDemotionRun_ = 0;
    /** First out-of-band window of the pending streak (latency t0). */
    util::Tick driftSuspectedAt_ = kNoDriftSuspected;
    /** Construction-time fast rate: the promotion ceiling. */
    unsigned qualifiedFastRateMts_ = 0;
    /** True while a drift trace span is open (trace-only, transient). */
    bool driftSpanOpen_ = false;
    sim::CallbackEvent recalEvent_;

    sim::CallbackEvent reenableEvent_;
    EpochGuard guard_;
    ModeControllerStats stats_;

    /** Registry-owned metric bindings; null until bindTelemetry(). */
    struct Telemetry
    {
        telemetry::Counter *corrections = nullptr;
        telemetry::Counter *uncorrectedErrors = nullptr;
        telemetry::Counter *epochTrips = nullptr;
        telemetry::Counter *demotions = nullptr;
        telemetry::Counter *quarantines = nullptr;
        telemetry::Counter *ladderRetries = nullptr;
        telemetry::Counter *ladderRecoveries = nullptr;
        telemetry::Counter *budgetDemotions = nullptr;
        telemetry::Counter *recalDemotions = nullptr;
        telemetry::Counter *recalPromotions = nullptr;
        telemetry::Gauge *fastDisabledSeconds = nullptr;
        telemetry::Gauge *marginHeadroomMts = nullptr;
        telemetry::Log2Histogram *recalLatencyUs = nullptr;
    };
    Telemetry tm_;
    telemetry::TraceRecorder *trace_ = nullptr;
    std::uint32_t traceTid_ = 0;

    /** Trace instant at the current simulated time. */
    void traceInstant(const char *name);
};

} // namespace hdmr::core

#endif // HDMR_CORE_MODE_CONTROLLER_HH
