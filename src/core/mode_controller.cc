#include "core/mode_controller.hh"

#include <algorithm>
#include <cmath>

#include "snapshot/serializer.hh"
#include "util/logging.hh"

namespace hdmr::core
{

using util::Tick;

util::Status
RecalibrationPolicy::validate() const
{
    if (std::isnan(targetErrorsPerWindow) || targetErrorsPerWindow < 0.0)
        return util::invalidArgument(
            "RecalibrationPolicy.targetErrorsPerWindow must be >= 0");
    if (std::isnan(demoteBand) || demoteBand <= 0.0)
        return util::invalidArgument(
            "RecalibrationPolicy.demoteBand must be > 0");
    if (std::isnan(promoteBand) || promoteBand < 0.0)
        return util::invalidArgument(
            "RecalibrationPolicy.promoteBand must be >= 0");
    if (promoteBand >= demoteBand)
        return util::invalidArgument(
            "RecalibrationPolicy.promoteBand must lie below "
            "demoteBand (the hysteresis dead band)");
    if (hysteresisWindows == 0)
        return util::invalidArgument(
            "RecalibrationPolicy.hysteresisWindows must be at least 1");
    if (std::isnan(probeFailureProbability) ||
        probeFailureProbability < 0.0 || probeFailureProbability > 1.0) {
        return util::invalidArgument(
            "RecalibrationPolicy.probeFailureProbability must lie in "
            "[0, 1]");
    }
    return util::Status{};
}

dram::ControllerConfig
ModeController::buildControllerConfig(const ModeControllerConfig &config,
                                      std::uint64_t seed)
{
    dram::ControllerConfig cc;
    cc.readModeTiming = dram::DramTiming::fromSetting(config.fastSetting);
    cc.writeModeTiming =
        dram::DramTiming::fromSetting(config.specSetting);
    cc.ranksPerChannel = 4;
    cc.addressRanks = config.plan.addressRanks;
    const Tick switch_cost = config.plan.fastReads
                                 ? config.frequencyTransitionLatency
                                 : config.busTurnaround;
    cc.enterWriteModeLatency = switch_cost;
    cc.exitWriteModeLatency = switch_cost;
    cc.selfRefreshRankMask = config.plan.selfRefreshMask;
    cc.rankPolicy = config.plan.rankPolicy;
    cc.readErrorProbability =
        config.plan.fastReads ? config.readErrorProbability : 0.0;
    cc.recoveryFailureProbability =
        config.plan.fastReads ? config.recoveryFailureProbability : 0.0;
    cc.errorRecoveryLatency = config.errorRecoveryLatency;
    // Hetero-DMR drains its whole batch once it pays the transition.
    cc.writeDrainLow = config.plan.fastReads ? 0 : 16;
    cc.seed = seed;
    return cc;
}

ModeController::ModeController(
    sim::EventQueue &events, dram::MemoryController &controller,
    cache::Cache *llc,
    std::function<bool(std::uint64_t)> channel_filter,
    ModeControllerConfig config)
    : events_(events), controller_(controller), llc_(llc),
      channelFilter_(std::move(channel_filter)), config_(config),
      wbCache_(config.writebackCacheConfig),
      ladderRng_(config.ladder.seed), recalRng_(config.recalibration.seed),
      guard_(config.epochConfig)
{
    util::checkOk(config_.recalibration.validate());
    fastEnabled_ = config_.plan.fastReads;
    qualifiedFastRateMts_ = std::max(config_.qualifiedFastRateMts,
                                     config_.fastSetting.dataRateMts);

    dram::ControllerHooks hooks;
    hooks.refillWrites = [this](std::size_t space) {
        return refillWrites(space);
    };
    hooks.onWriteModeEnter = [this] { onWriteModeEnter(); };
    hooks.onWriteModeExit = [this] { onWriteModeExit(); };
    hooks.onReadError = [this] { onReadError(); };
    hooks.onUncorrectableError = [this] { onUncorrectableError(); };
    controller_.setHooks(std::move(hooks));
    controller_.setSelfRefreshMask(config_.plan.selfRefreshMask);

    reenableEvent_.setCallback([this] { reenableFastOperation(); });
    recalEvent_.setCallback([this] { onRecalibrationWindow(); });
    if (config_.recalibration.windowTicks > 0 && config_.plan.fastReads)
        scheduleRecalWindow(events_.curTick());
}

ModeController::~ModeController()
{
    if (reenableEvent_.scheduled())
        events_.deschedule(&reenableEvent_);
    if (recalEvent_.scheduled())
        events_.deschedule(&recalEvent_);
}

void
ModeController::enqueueWriteNow(std::uint64_t address)
{
    dram::MemRequest req;
    req.address = address;
    req.arrival = events_.curTick();
    controller_.enqueueWrite(std::move(req));
}

void
ModeController::handleDirtyEviction(std::uint64_t address)
{
    ++stats_.dirtyEvictions;

    // In write mode the write buffer takes evictions directly while it
    // has room; everything else parks in the victim cache.
    if (controller_.mode() == dram::ChannelMode::kWrite &&
        !controller_.writeQueueFull()) {
        enqueueWriteNow(address);
        return;
    }
    if (!wbCache_.insert(address)) {
        // Set conflict: spill; this is the "write buffer otherwise"
        // path of Section III-E, modelled as an overflow list that
        // urgently forces a drain.
        overflow_.push_back(address);
    }

    const double trigger = std::min(
        0.999, config_.writeModeTriggerFill + triggerBoost_);
    const bool pressure =
        static_cast<double>(wbCache_.occupancy()) >
            trigger * static_cast<double>(wbCache_.capacity()) ||
        overflow_.size() > 64;
    if (pressure)
        controller_.requestWriteMode();
}

void
ModeController::setWriteTriggerBoost(double boost)
{
    if (boost < 0.0)
        boost = 0.0;
    triggerBoost_ = boost;
}

void
ModeController::setCleanBudgetScale(double scale)
{
    if (!(scale >= 0.0))
        scale = 1.0;
    cleanScale_ = std::min(1.0, scale);
}

void
ModeController::setEpochLengthScale(double scale)
{
    if (!(scale > 0.0))
        scale = 1.0;
    const double scaled =
        static_cast<double>(guard_.baseEpochLength()) * scale;
    guard_.setEpochLength(static_cast<Tick>(scaled),
                          events_.curTick());
}

std::size_t
ModeController::refillWrites(std::size_t space)
{
    std::size_t pushed = 0;

    while (pushed < space && !overflow_.empty()) {
        enqueueWriteNow(overflow_.front());
        overflow_.pop_front();
        ++pushed;
    }
    while (pushed < space) {
        const auto addr = wbCache_.pop();
        if (!addr)
            break;
        enqueueWriteNow(*addr);
        ++pushed;
    }
    if (pushed < space && cleanBudget_ > 0 && llc_ != nullptr) {
        const std::size_t want =
            std::min(space - pushed, cleanBudget_);
        // Only clean lines already near eviction (the LRU-most ways):
        // cleaning then *advances* writebacks that were about to
        // happen instead of adding traffic, which is what keeps the
        // Fig. 14 overhead near zero.
        const unsigned lru_depth =
            std::max(1u, llc_->config().ways / 4);
        const std::size_t cleaned = llc_->cleanLruDirtyLines(
            want, channelFilter_,
            [this, &pushed](std::uint64_t addr) {
                enqueueWriteNow(addr);
                ++pushed;
            },
            lru_depth);
        cleanBudget_ -= cleaned;
        stats_.cleanedLines += cleaned;
        if (cleaned == 0)
            cleanBudget_ = 0; // nothing dirty left on this channel
    }
    return pushed;
}

void
ModeController::onWriteModeEnter()
{
    if (config_.plan.fastReads) {
        // Wake the original ranks out of self-refresh so the broadcast
        // writes can update original + copy together (Fig. 8a).
        controller_.setSelfRefreshMask(0);
        // The monitor's prefer-reads hold caps the discretionary
        // cleaning this window may do; with no hold asserted the
        // scale is 1 and the window earns the full configured budget.
        cleanBudget_ = static_cast<std::size_t>(
            static_cast<double>(config_.cleanLinesPerWriteMode) *
            cleanScale_);
    }
}

void
ModeController::onWriteModeExit()
{
    if (config_.plan.fastReads && fastEnabled_) {
        // Back to read mode: park the originals again (Fig. 8b).
        controller_.setSelfRefreshMask(config_.plan.selfRefreshMask);
    }
    cleanBudget_ = 0;
}

ModeControllerConfig
ModeController::activeConfig() const
{
    ModeControllerConfig active = config_;
    active.readErrorProbability = std::min(
        1.0, active.readErrorProbability * ambientMultiplier_);
    return active;
}

void
ModeController::applyReconfiguration()
{
    controller_.reconfigure(buildControllerConfig(activeConfig(), 1));
    controller_.setSelfRefreshMask(config_.plan.selfRefreshMask);
    // Reconfiguration latches at a mode transition; force one so the
    // new operating point takes effect now, not at the next drain.
    controller_.requestWriteMode();
}

void
ModeController::countRecoveryEvent()
{
    ++recoveryEventsSinceDemotion_;
    const unsigned k = config_.quarantine.demoteAfterRecoveries;
    if (k > 0 && recoveryEventsSinceDemotion_ >= k)
        demote();
}

bool
ModeController::chargeErrorBudget(Tick now)
{
    const RecoveryLadderConfig &ladder = config_.ladder;
    if (ladder.errorBudgetWindow == 0)
        return false;

    budgetWindow_.push_back(now);
    const Tick horizon =
        now > ladder.errorBudgetWindow ? now - ladder.errorBudgetWindow
                                       : 0;
    while (!budgetWindow_.empty() && budgetWindow_.front() < horizon)
        budgetWindow_.pop_front();

    if (budgetWindow_.size() <= ladder.errorBudgetLimit)
        return false;
    // Budget blown: this channel is producing detected errors faster
    // than its margin classification allows, even if no single epoch
    // trips the SDC guard.  Feed the demotion policy and restart the
    // window so one burst cannot demote the channel repeatedly.
    budgetWindow_.clear();
    ++stats_.budgetDemotions;
    HDMR_TM_INC(tm_.budgetDemotions);
    demote();
    return true;
}

void
ModeController::scheduleRecalWindow(Tick now)
{
    const Tick window = config_.recalibration.windowTicks;
    // Windows close at deterministic multiples of the window length,
    // so a resumed controller re-derives the same boundary sequence a
    // straight-through run walks.
    const Tick next = (now / window + 1) * window;
    events_.reschedule(&recalEvent_, next);
}

void
ModeController::recordRecalAction(const char *action)
{
    if (driftSuspectedAt_ != kNoDriftSuspected) {
        const Tick latency = events_.curTick() - driftSuspectedAt_;
        HDMR_TM_RECORD(tm_.recalLatencyUs,
                       static_cast<std::uint64_t>(
                           util::ticksToNs(latency) / 1000.0));
        driftSuspectedAt_ = kNoDriftSuspected;
    }
    if (driftSpanOpen_) {
        trace_->endSpan(util::ticksToNs(events_.curTick()) / 1000.0,
                        traceTid_);
        driftSpanOpen_ = false;
    }
    traceInstant(action);
}

void
ModeController::runPromotionProbe()
{
    const RecalibrationPolicy &recal = config_.recalibration;
    // The probe sweeps the candidate step offline: the channel runs at
    // specification for the probe window whatever the outcome.
    stats_.probeTicks += recal.probeDowntime;
    if (!quarantined_) {
        suspendFastOperation(events_.curTick() + recal.probeDowntime,
                             /*permanent=*/false);
    }
    if (recalRng_.bernoulli(recal.probeFailureProbability)) {
        ++stats_.recalProbeFailures;
        traceInstant("recal_probe_failed");
        return;
    }
    recordRecalAction("recal_promotion");
    promote();
}

void
ModeController::onRecalibrationWindow()
{
    const RecalibrationPolicy &recal = config_.recalibration;
    ++stats_.recalWindows;
    const double observed = static_cast<double>(windowErrors_);
    windowErrors_ = 0;
    HDMR_TM_SET(tm_.marginHeadroomMts,
                static_cast<double>(config_.fastSetting.dataRateMts -
                                    config_.specSetting.dataRateMts));

    if (quarantined_) {
        scheduleRecalWindow(events_.curTick());
        return;
    }

    const double budget = recal.targetErrorsPerWindow;
    if (observed > budget * recal.demoteBand) {
        promoteStreak_ = 0;
        if (++demoteStreak_ == 1) {
            driftSuspectedAt_ = events_.curTick();
            if (trace_ != nullptr && !driftSpanOpen_) {
                trace_->beginSpan(
                    "margin_drift", "mode",
                    util::ticksToNs(events_.curTick()) / 1000.0,
                    traceTid_);
                driftSpanOpen_ = true;
            }
        }
        if (demoteStreak_ >= recal.hysteresisWindows) {
            demoteStreak_ = 0;
            ++stats_.recalDemotions;
            HDMR_TM_INC(tm_.recalDemotions);
            recordRecalAction("recal_demotion");
            demote();
            if (recal.escalateAfterDemotions > 0 &&
                ++recalDemotionRun_ >= recal.escalateAfterDemotions) {
                // Drift is outrunning recalibration: one step per
                // hysteresis period cannot catch a margin collapsing
                // faster than that.  Hand the channel to the
                // quarantine ladder for good.
                ++stats_.recalEscalations;
                traceInstant("recal_escalation");
                while (!quarantined_)
                    demote();
                recalDemotionRun_ = 0;
            }
        }
    } else if (observed < budget * recal.promoteBand &&
               config_.plan.fastReads &&
               config_.fastSetting.dataRateMts < qualifiedFastRateMts_) {
        demoteStreak_ = 0;
        recalDemotionRun_ = 0;
        if (++promoteStreak_ == 1)
            driftSuspectedAt_ = events_.curTick();
        if (promoteStreak_ >= recal.hysteresisWindows) {
            promoteStreak_ = 0;
            runPromotionProbe();
        }
    } else {
        // In-band (including exactly *at* either threshold): the
        // hysteresis state resets and any pending suspicion is
        // withdrawn - this is what keeps a rate oscillating at a
        // threshold from flapping the operating point.
        demoteStreak_ = 0;
        promoteStreak_ = 0;
        recalDemotionRun_ = 0;
        driftSuspectedAt_ = kNoDriftSuspected;
        if (driftSpanOpen_) {
            trace_->endSpan(
                util::ticksToNs(events_.curTick()) / 1000.0, traceTid_);
            driftSpanOpen_ = false;
        }
    }
    scheduleRecalWindow(events_.curTick());
}

void
ModeController::bindTelemetry(telemetry::Registry &registry,
                              const std::string &prefix)
{
    tm_.corrections = &registry.counter(prefix + ".corrections");
    tm_.uncorrectedErrors =
        &registry.counter(prefix + ".uncorrected_errors");
    tm_.epochTrips = &registry.counter(prefix + ".epoch_trips");
    tm_.demotions = &registry.counter(prefix + ".demotions");
    tm_.quarantines = &registry.counter(prefix + ".quarantines");
    tm_.ladderRetries = &registry.counter(prefix + ".ladder_retries");
    tm_.ladderRecoveries =
        &registry.counter(prefix + ".ladder_recoveries");
    tm_.budgetDemotions =
        &registry.counter(prefix + ".budget_demotions");
    tm_.recalDemotions =
        &registry.counter(prefix + ".recal_demotions");
    tm_.recalPromotions =
        &registry.counter(prefix + ".recal_promotions");
    tm_.fastDisabledSeconds =
        &registry.gauge(prefix + ".fast_disabled_seconds");
    tm_.marginHeadroomMts =
        &registry.gauge(prefix + ".margin_headroom_mts");
    tm_.recalLatencyUs =
        &registry.histogram(prefix + ".recal_latency_us");
}

void
ModeController::bindTrace(telemetry::TraceRecorder *trace,
                          std::uint32_t tid)
{
    trace_ = trace;
    traceTid_ = tid;
}

void
ModeController::traceInstant(const char *name)
{
    if (trace_ != nullptr) {
        trace_->instant(name, "mode",
                        util::ticksToNs(events_.curTick()) / 1000.0,
                        traceTid_);
    }
}

void
ModeController::onReadError()
{
    ++stats_.corrections;
    ++windowErrors_;
    HDMR_TM_INC(tm_.corrections);
    if (guard_.recordError(events_.curTick()))
        disableFastOperation();
    chargeErrorBudget(events_.curTick());
    countRecoveryEvent();
}

bool
ModeController::walkRetryLadder()
{
    const RecoveryLadderConfig &ladder = config_.ladder;
    Tick backoff = ladder.retryBackoff;
    for (unsigned attempt = 1; attempt <= ladder.retryAttempts;
         ++attempt) {
        ++stats_.ladderRetries;
        HDMR_TM_INC(tm_.ladderRetries);
        stats_.ladderRetryTicks += backoff;
        // A retry re-reads the original at specification: hold the
        // channel at spec for the backoff window (extends any pending
        // suspension; never shortens one).
        if (!quarantined_) {
            suspendFastOperation(events_.curTick() + backoff,
                                 /*permanent=*/false);
        }
        if (!ladderRng_.bernoulli(ladder.retryFailureProbability)) {
            ++stats_.ladderRecoveries;
            HDMR_TM_INC(tm_.ladderRecoveries);
            return true;
        }
        backoff = static_cast<Tick>(static_cast<double>(backoff) *
                                    ladder.backoffFactor);
    }
    return false;
}

void
ModeController::onUncorrectableError()
{
    // The first recovery rung (modelled inside the memory controller)
    // failed.  Walk the bounded retry rungs before escalating: only
    // when the original cannot be read back after every attempt does
    // the error become uncorrectable.
    if (walkRetryLadder()) {
        countRecoveryEvent();
        return;
    }
    ++stats_.uncorrectedErrors;
    HDMR_TM_INC(tm_.uncorrectedErrors);
    traceInstant("ue_escalation");
    if (onUncorrectable_)
        onUncorrectable_();
    countRecoveryEvent();
}

void
ModeController::injectDetectedErrors(std::uint64_t count)
{
    if (!fastEnabled_)
        return; // at specification: no fast reads, no fast-read errors
    for (std::uint64_t i = 0; i < count && fastEnabled_; ++i)
        onReadError();
}

void
ModeController::injectUncorrectable()
{
    onUncorrectableError();
}

void
ModeController::applyMarginDrift(unsigned mts)
{
    if (!config_.plan.fastReads || quarantined_ || mts == 0)
        return;
    stats_.marginDriftMts += mts;
    const double steps =
        static_cast<double>(mts) /
        static_cast<double>(config_.quarantine.demoteStepMts);
    const double floor = config_.quarantine.driftFloorErrorProbability;
    config_.readErrorProbability =
        std::min(1.0, std::max(config_.readErrorProbability, floor) *
                          std::pow(
                              config_.quarantine.driftErrorGrowthPerStep,
                              steps));
    if (fastEnabled_)
        applyReconfiguration();
}

void
ModeController::setAmbientErrorMultiplier(double factor)
{
    if (!config_.plan.fastReads || quarantined_)
        return;
    ambientMultiplier_ = factor;
    if (fastEnabled_)
        applyReconfiguration();
}

void
ModeController::demote()
{
    if (quarantined_ || !config_.plan.fastReads)
        return;
    ++stats_.demotions;
    HDMR_TM_INC(tm_.demotions);
    traceInstant("demotion");
    recoveryEventsSinceDemotion_ = 0;

    const unsigned spec = config_.specSetting.dataRateMts;
    const unsigned step = config_.quarantine.demoteStepMts;
    if (config_.fastSetting.dataRateMts <= spec + step) {
        // Out of exploitable margin: permanent quarantine at spec.
        ++stats_.quarantines;
        HDMR_TM_INC(tm_.quarantines);
        traceInstant("quarantine");
        config_.fastSetting = config_.specSetting;
        config_.readErrorProbability = 0.0;
        suspendFastOperation(0, /*permanent=*/true);
        return;
    }
    config_.fastSetting.dataRateMts -= step;
    // One step less overshoot: errors shrink by the margin model's
    // per-step growth factor.
    config_.readErrorProbability *=
        config_.quarantine.demotionErrorFactor;
    stats_.reprofileTicks += config_.quarantine.reprofileDowntime;
    suspendFastOperation(events_.curTick() +
                             config_.quarantine.reprofileDowntime,
                         /*permanent=*/false);
}

void
ModeController::promote(bool immediate)
{
    if (quarantined_ || !config_.plan.fastReads ||
        config_.fastSetting.dataRateMts >= qualifiedFastRateMts_)
        return;
    ++stats_.recalPromotions;
    HDMR_TM_INC(tm_.recalPromotions);
    const unsigned step = config_.quarantine.demoteStepMts;
    config_.fastSetting.dataRateMts =
        std::min(qualifiedFastRateMts_,
                 config_.fastSetting.dataRateMts + step);
    // One step more overshoot: the demotion error scaling reverses.
    config_.readErrorProbability =
        std::min(1.0, config_.readErrorProbability /
                          config_.quarantine.demotionErrorFactor);
    if (fastEnabled_) {
        if (immediate) {
            applyReconfiguration();
        } else {
            // Retiming needs a bus quiescence; the controller latches
            // a pending reconfiguration at its next mode transition,
            // so the promoted rate arrives with the next drain or
            // pressure flush for free instead of stealing one now.
            controller_.reconfigure(
                buildControllerConfig(activeConfig(), 1));
        }
    }
}

void
ModeController::suspendFastOperation(Tick resume_at, bool permanent)
{
    if (permanent)
        quarantined_ = true;

    if (fastEnabled_) {
        fastEnabled_ = false;
        fastDisabledAt_ = events_.curTick();

        // Fall back to specification: same timing in both modes, no
        // error injection, originals active.
        ModeControllerConfig safe = config_;
        safe.fastSetting = config_.specSetting;
        safe.readErrorProbability = 0.0;
        safe.recoveryFailureProbability = 0.0;
        safe.plan.fastReads = false;
        safe.plan.selfRefreshMask = 0;
        controller_.reconfigure(buildControllerConfig(safe, 1));
        controller_.setSelfRefreshMask(0);
        // Force a mode transition so the slow-down happens
        // immediately, not at the next write drain.
        controller_.requestWriteMode();
    }

    if (quarantined_) {
        if (reenableEvent_.scheduled())
            events_.deschedule(&reenableEvent_);
        return;
    }
    // Extend, never shorten, a pending suspension.
    if (!reenableEvent_.scheduled() || reenableEvent_.when() < resume_at)
        events_.reschedule(&reenableEvent_, resume_at);
}

void
ModeController::disableFastOperation()
{
    if (!fastEnabled_)
        return;
    ++stats_.epochTrips;
    HDMR_TM_INC(tm_.epochTrips);
    traceInstant("epoch_trip");

    // Trip-streak accounting for the quarantine policy: consecutive
    // tripped epochs mean the channel's profiled margin is wrong, not
    // merely unlucky.
    const std::uint64_t epoch =
        events_.curTick() / config_.epochConfig.epochLength;
    tripStreak_ =
        (lastTripEpoch_ != ~std::uint64_t(0) &&
         epoch == lastTripEpoch_ + 1)
            ? tripStreak_ + 1
            : 1;
    lastTripEpoch_ = epoch;

    suspendFastOperation(guard_.epochEnd(events_.curTick()),
                         /*permanent=*/false);

    const unsigned streak_limit = config_.quarantine.demoteAfterTripStreak;
    if (streak_limit > 0 && tripStreak_ >= streak_limit) {
        tripStreak_ = 0;
        demote();
    }
}

void
ModeController::reenableFastOperation()
{
    if (fastEnabled_ || !config_.plan.fastReads || quarantined_)
        return;
    fastEnabled_ = true;
    stats_.fastDisabledTicks += events_.curTick() - fastDisabledAt_;
    HDMR_TM_SET(tm_.fastDisabledSeconds,
                util::ticksToSeconds(stats_.fastDisabledTicks));
    controller_.reconfigure(buildControllerConfig(activeConfig(), 1));
    controller_.setSelfRefreshMask(config_.plan.selfRefreshMask);
}

void
ModeController::flush()
{
    if (!wbCache_.empty() || !overflow_.empty())
        controller_.requestWriteMode();
}

void
ModeController::saveState(snapshot::Serializer &out) const
{
    out.writeU32(config_.specSetting.dataRateMts);
    out.writeU32(config_.fastSetting.dataRateMts);
    out.writeDouble(config_.readErrorProbability);
    out.writeBool(quarantined_);
    out.writeBool(fastEnabled_);
    out.writeDouble(ambientMultiplier_);
    out.writeU64(recoveryEventsSinceDemotion_);
    out.writeU64(lastTripEpoch_);
    out.writeU32(tripStreak_);
    guard_.saveState(out);

    out.writeU64(stats_.dirtyEvictions);
    out.writeU64(stats_.cleanedLines);
    out.writeU64(stats_.corrections);
    out.writeU64(stats_.uncorrectedErrors);
    out.writeU64(stats_.epochTrips);
    out.writeU64(stats_.fastDisabledTicks);
    out.writeU64(stats_.demotions);
    out.writeU64(stats_.quarantines);
    out.writeU64(stats_.marginDriftMts);
    out.writeU64(stats_.reprofileTicks);

    // Recovery-ladder state: the private retry stream, the sliding
    // error-budget window, and the ladder statistics.
    const util::RngState rng = ladderRng_.state();
    for (std::uint64_t word : rng.s)
        out.writeU64(word);
    out.writeBool(rng.hasSpareNormal);
    out.writeDouble(rng.spareNormal);
    out.writeU32(static_cast<std::uint32_t>(budgetWindow_.size()));
    for (Tick tick : budgetWindow_)
        out.writeU64(tick);
    out.writeU64(stats_.ladderRetries);
    out.writeU64(stats_.ladderRecoveries);
    out.writeU64(stats_.ladderRetryTicks);
    out.writeU64(stats_.budgetDemotions);

    // Recalibration state: the window observation, hysteresis streaks,
    // the private probe stream, and the recalibration statistics.
    out.writeU64(windowErrors_);
    out.writeU32(demoteStreak_);
    out.writeU32(promoteStreak_);
    out.writeU32(recalDemotionRun_);
    out.writeU64(driftSuspectedAt_);
    out.writeU32(qualifiedFastRateMts_);
    const util::RngState recal_rng = recalRng_.state();
    for (std::uint64_t word : recal_rng.s)
        out.writeU64(word);
    out.writeBool(recal_rng.hasSpareNormal);
    out.writeDouble(recal_rng.spareNormal);
    out.writeU64(stats_.recalWindows);
    out.writeU64(stats_.recalDemotions);
    out.writeU64(stats_.recalPromotions);
    out.writeU64(stats_.recalProbeFailures);
    out.writeU64(stats_.recalEscalations);
    out.writeU64(stats_.probeTicks);

    // Monitor-asserted control levels (the epoch-length level lives in
    // the guard's own record above).
    out.writeDouble(triggerBoost_);
    out.writeDouble(cleanScale_);
}

bool
ModeController::restoreState(snapshot::Deserializer &in)
{
    const std::uint32_t spec_rate = in.readU32();
    const std::uint32_t fast_rate = in.readU32();
    const double read_error = in.readDouble();
    const bool quarantined = in.readBool();
    const bool fast_enabled = in.readBool();
    const double ambient = in.readDouble();
    const std::uint64_t recoveries = in.readU64();
    const std::uint64_t last_trip_epoch = in.readU64();
    const std::uint32_t trip_streak = in.readU32();
    if (!in.ok())
        return false;
    if (spec_rate != config_.specSetting.dataRateMts) {
        in.fail("mode-controller snapshot was taken under a different "
                "specification setting");
        return false;
    }
    if (fast_rate > config_.fastSetting.dataRateMts ||
        fast_rate < config_.specSetting.dataRateMts) {
        in.fail("mode-controller snapshot carries an impossible fast "
                "setting (demotions only ever move toward spec)");
        return false;
    }
    if (!(read_error >= 0.0 && read_error <= 1.0)) {
        in.fail("mode-controller snapshot carries an out-of-range read "
                "error probability");
        return false;
    }

    config_.fastSetting.dataRateMts = fast_rate;
    config_.readErrorProbability = read_error;
    quarantined_ = quarantined;
    ambientMultiplier_ = ambient;
    recoveryEventsSinceDemotion_ = recoveries;
    lastTripEpoch_ = last_trip_epoch;
    tripStreak_ = trip_streak;
    if (!guard_.restoreState(in))
        return false;

    stats_.dirtyEvictions = in.readU64();
    stats_.cleanedLines = in.readU64();
    stats_.corrections = in.readU64();
    stats_.uncorrectedErrors = in.readU64();
    stats_.epochTrips = in.readU64();
    stats_.fastDisabledTicks = in.readU64();
    stats_.demotions = in.readU64();
    stats_.quarantines = in.readU64();
    stats_.marginDriftMts = in.readU64();
    stats_.reprofileTicks = in.readU64();

    util::RngState rng;
    for (std::uint64_t &word : rng.s)
        word = in.readU64();
    rng.hasSpareNormal = in.readBool();
    rng.spareNormal = in.readDouble();
    const std::uint32_t window_size = in.readU32();
    if (in.ok() &&
        window_size > config_.ladder.errorBudgetLimit + 1) {
        in.fail("mode-controller snapshot carries an error-budget "
                "window larger than the budget allows");
        return false;
    }
    budgetWindow_.clear();
    for (std::uint32_t i = 0; i < window_size; ++i)
        budgetWindow_.push_back(in.readU64());
    stats_.ladderRetries = in.readU64();
    stats_.ladderRecoveries = in.readU64();
    stats_.ladderRetryTicks = in.readU64();
    stats_.budgetDemotions = in.readU64();

    const std::uint64_t window_errors = in.readU64();
    const std::uint32_t demote_streak = in.readU32();
    const std::uint32_t promote_streak = in.readU32();
    const std::uint32_t recal_run = in.readU32();
    const std::uint64_t drift_suspected_at = in.readU64();
    const std::uint32_t qualified_rate = in.readU32();
    util::RngState recal_rng;
    for (std::uint64_t &word : recal_rng.s)
        word = in.readU64();
    recal_rng.hasSpareNormal = in.readBool();
    recal_rng.spareNormal = in.readDouble();
    if (in.ok() && qualified_rate != qualifiedFastRateMts_) {
        in.fail("mode-controller snapshot was qualified at a different "
                "fast rate");
        return false;
    }
    windowErrors_ = window_errors;
    demoteStreak_ = demote_streak;
    promoteStreak_ = promote_streak;
    recalDemotionRun_ = recal_run;
    driftSuspectedAt_ = drift_suspected_at;
    stats_.recalWindows = in.readU64();
    stats_.recalDemotions = in.readU64();
    stats_.recalPromotions = in.readU64();
    stats_.recalProbeFailures = in.readU64();
    stats_.recalEscalations = in.readU64();
    stats_.probeTicks = in.readU64();
    const double trigger_boost = in.readDouble();
    if (in.ok() && !(trigger_boost >= 0.0 && trigger_boost < 1.0)) {
        in.fail("mode-controller snapshot carries an out-of-range "
                "write-trigger boost");
        return false;
    }
    const double clean_scale = in.readDouble();
    if (in.ok() && !(clean_scale >= 0.0 && clean_scale <= 1.0)) {
        in.fail("mode-controller snapshot carries an out-of-range "
                "cleaning-budget scale");
        return false;
    }
    if (!in.ok())
        return false;
    triggerBoost_ = trigger_boost;
    cleanScale_ = clean_scale;
    ladderRng_.setState(rng);
    recalRng_.setState(recal_rng);

    // The window boundaries are deterministic multiples of the window
    // length, so the next boundary re-derives from the current time.
    if (config_.recalibration.windowTicks > 0 && config_.plan.fastReads)
        scheduleRecalWindow(events_.curTick());

    // Re-apply the restored operating point.
    if (quarantined_) {
        config_.fastSetting = config_.specSetting;
        config_.readErrorProbability = 0.0;
        suspendFastOperation(0, /*permanent=*/true);
    } else if (config_.plan.fastReads) {
        if (fast_enabled) {
            applyReconfiguration();
        } else {
            // fastEnabled_ is still true from construction, so the
            // suspension path actually installs the safe config; fast
            // operation resumes at the next epoch boundary.
            suspendFastOperation(guard_.epochEnd(events_.curTick()),
                                 /*permanent=*/false);
        }
    }
    return true;
}

} // namespace hdmr::core
