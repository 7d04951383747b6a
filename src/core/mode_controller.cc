#include "core/mode_controller.hh"

#include <algorithm>
#include <cmath>

namespace hdmr::core
{

using util::Tick;

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
      wbCache_(config.writebackCacheConfig), guard_(config.epochConfig)
{
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
}

ModeController::~ModeController()
{
    if (reenableEvent_.scheduled())
        events_.deschedule(&reenableEvent_);
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

void
ModeController::onReadError()
{
    ++stats_.corrections;
    if (guard_.recordError(events_.curTick()))
        disableFastOperation();
    countRecoveryEvent();
}

void
ModeController::onUncorrectableError()
{
    // The recovery read of the original (modelled inside the memory
    // controller) failed too: the error is uncorrectable.
    ++stats_.uncorrectedErrors;
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
    recoveryEventsSinceDemotion_ = 0;

    const unsigned spec = config_.specSetting.dataRateMts;
    const unsigned step = config_.quarantine.demoteStepMts;
    if (config_.fastSetting.dataRateMts <= spec + step) {
        // Out of exploitable margin: permanent quarantine at spec.
        ++stats_.quarantines;
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
    suspendFastOperation(events_.curTick() +
                             config_.quarantine.reprofileDowntime,
                         /*permanent=*/false);
}

void
ModeController::promote()
{
    if (quarantined_ || !config_.plan.fastReads ||
        config_.fastSetting.dataRateMts >= qualifiedFastRateMts_)
        return;
    ++stats_.promotions;
    const unsigned step = config_.quarantine.demoteStepMts;
    config_.fastSetting.dataRateMts =
        std::min(qualifiedFastRateMts_,
                 config_.fastSetting.dataRateMts + step);
    // One step more overshoot: the demotion error scaling reverses.
    config_.readErrorProbability =
        std::min(1.0, config_.readErrorProbability /
                          config_.quarantine.demotionErrorFactor);
    if (fastEnabled_) {
        // Retiming needs a bus quiescence; the controller latches a
        // pending reconfiguration at its next mode transition, so the
        // promoted rate arrives with the next drain or pressure flush
        // for free instead of stealing one now.
        controller_.reconfigure(buildControllerConfig(activeConfig(), 1));
    }
}

void
ModeController::suspendFastOperation(Tick resume_at, bool permanent)
{
    if (permanent)
        quarantined_ = true;

    if (fastEnabled_) {
        fastEnabled_ = false;

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
    suspendFastOperation(guard_.epochEnd(events_.curTick()),
                         /*permanent=*/false);
}

void
ModeController::reenableFastOperation()
{
    if (fastEnabled_ || !config_.plan.fastReads || quarantined_)
        return;
    fastEnabled_ = true;
    controller_.reconfigure(buildControllerConfig(activeConfig(), 1));
    controller_.setSelfRefreshMask(config_.plan.selfRefreshMask);
}

void
ModeController::flush()
{
    if (!wbCache_.empty() || !overflow_.empty())
        controller_.requestWriteMode();
}

} // namespace hdmr::core
