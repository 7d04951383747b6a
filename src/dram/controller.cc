#include "dram/controller.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hdmr::dram
{

using util::Tick;

MemoryController::MemoryController(sim::EventQueue &events,
                                   ControllerConfig config,
                                   ReadCompletionSink *completions)
    : events_(events), config_(config), pendingConfig_(config),
      map_(AddressMapConfig{1, config.addressRanks, config.banksPerRank,
                            128, 64}),
      completionSink_(completions), tryIssueEvent_(this),
      completionEvent_(this), rng_(config.seed)
{
    hdmr_assert(config_.ranksPerChannel >= 1 &&
                config_.ranksPerChannel <= kMaxRanksPerChannel);
    hdmr_assert(config_.addressRanks >= 1 &&
                config_.addressRanks <= config_.ranksPerChannel);
    banks_.resize(config_.ranksPerChannel * config_.banksPerRank);
    rankBlockedUntil_.assign(config_.ranksPerChannel, 0);
    lastActivateAt_.assign(config_.ranksPerChannel, 0);
    // Stagger per-rank refreshes so the whole channel never stalls
    // at once (real controllers do the same).
    nextRefreshAt_.resize(config_.ranksPerChannel);
    for (unsigned r = 0; r < config_.ranksPerChannel; ++r) {
        nextRefreshAt_[r] = config_.readModeTiming.tREFI * (r + 1) /
                            config_.ranksPerChannel;
    }
}

MemoryController::~MemoryController()
{
    if (tryIssueEvent_.scheduled())
        events_.deschedule(&tryIssueEvent_);
    if (completionEvent_.scheduled())
        events_.deschedule(&completionEvent_);
}

const DramTiming &
MemoryController::activeTiming() const
{
    return mode_ == ChannelMode::kWrite ? config_.writeModeTiming
                                        : config_.readModeTiming;
}

MemoryController::BankState &
MemoryController::bank(unsigned rank, unsigned bank_index)
{
    return banks_[rank * config_.banksPerRank + bank_index];
}

bool
MemoryController::readQueueFull() const
{
    return readQueue_.size() >= config_.readQueueCapacity;
}

bool
MemoryController::writeQueueFull() const
{
    return writeQueue_.size() >= config_.writeQueueCapacity;
}

void
MemoryController::enqueueRead(MemRequest request)
{
    hdmr_assert(!readQueueFull(), "read queue overflow");
    QueuedRequest qr;
    qr.coord = map_.decode(request.address);
    qr.request = std::move(request);
    readQueue_.push_back(std::move(qr));
    scheduleTryIssue(std::max(events_.curTick(),
                              readQueue_.back().request.arrival));
}

void
MemoryController::enqueueWrite(MemRequest request)
{
    hdmr_assert(!writeQueueFull(), "write queue overflow");
    QueuedRequest qr;
    qr.coord = map_.decode(request.address);
    qr.request = std::move(request);
    writeQueue_.push_back(std::move(qr));
    scheduleTryIssue(std::max(events_.curTick(),
                              writeQueue_.back().request.arrival));
}

void
MemoryController::reconfigure(const ControllerConfig &config)
{
    pendingConfig_ = config;
    reconfigurePending_ = true;
    // The geometry must stay fixed; only timing/policy knobs may move.
    hdmr_assert(config.ranksPerChannel == config_.ranksPerChannel);
    hdmr_assert(config.banksPerRank == config_.banksPerRank);
    if (config.addressRanks != config_.addressRanks) {
        map_ = AddressMap(AddressMapConfig{1, config.addressRanks,
                                           config.banksPerRank, 128, 64});
    }
    scheduleTryIssue(events_.curTick());
}

void
MemoryController::finalizeStats()
{
    const Tick now = events_.curTick();
    stats_.selfRefreshRankTicks +=
        static_cast<util::Tick>(
            __builtin_popcount(config_.selfRefreshRankMask)) *
        (now - lastMaskChangeAt_);
    lastMaskChangeAt_ = now;
    if (mode_ == ChannelMode::kWrite) {
        stats_.writeModeTicks += now - writeModeEnteredAt_;
        writeModeEnteredAt_ = now;
    }
}

void
MemoryController::setSelfRefreshMask(std::uint32_t mask)
{
    const Tick now_tick = events_.curTick();
    stats_.selfRefreshRankTicks +=
        static_cast<util::Tick>(
            __builtin_popcount(config_.selfRefreshRankMask)) *
        (now_tick - lastMaskChangeAt_);
    lastMaskChangeAt_ = now_tick;

    const std::uint32_t woken = config_.selfRefreshRankMask & ~mask;
    config_.selfRefreshRankMask = mask;
    pendingConfig_.selfRefreshRankMask = mask;
    const Tick now = events_.curTick();
    for (unsigned r = 0; r < config_.ranksPerChannel; ++r) {
        if (woken & (1u << r)) {
            // Self-refresh exit time before the rank is usable again.
            rankBlockedUntil_[r] =
                std::max(rankBlockedUntil_[r],
                         now + config_.readModeTiming.tXS);
            nextRefreshAt_[r] = now + config_.readModeTiming.tREFI;
            for (unsigned b = 0; b < config_.banksPerRank; ++b)
                bank(r, b).openRow = -1;
        }
    }
}

void
MemoryController::requestWriteMode()
{
    writeModeRequested_ = true;
    scheduleTryIssue(events_.curTick());
}

void
MemoryController::agePagePolicy(BankState &bank_state, Tick now)
{
    // Hybrid page policy: a row left untouched past the timeout is
    // precharged in the background.  Model it lazily: when the bank is
    // next considered, fold the elapsed precharge in.
    if (bank_state.openRow < 0)
        return;
    const Tick deadline =
        bank_state.lastUseAt + config_.pagePolicyTimeout;
    if (now > deadline) {
        bank_state.openRow = -1;
        bank_state.cmdReadyAt = std::max(bank_state.cmdReadyAt,
                                         deadline + activeTiming().tRP);
    }
}

MemoryController::AccessPlan
MemoryController::planAccess(const BankState &bank_state, unsigned rank,
                             std::uint64_t row, Tick now,
                             bool is_write) const
{
    const DramTiming &t = activeTiming();
    const Tick cas = is_write ? t.tCWD : t.tCAS;
    Tick base = std::max({now, bank_state.cmdReadyAt,
                          rankBlockedUntil_[rank]});
    AccessPlan plan;

    Tick cmd_at;
    if (bank_state.openRow == static_cast<std::int64_t>(row)) {
        // Row hit: column commands pipeline at tCCD, so back-to-back
        // hits are bus-limited, not latency-limited.
        plan.rowHit = true;
        cmd_at = base;
    } else if (bank_state.openRow < 0) {
        plan.needsActivate = true;
        base = std::max(base, lastActivateAt_[rank] + t.tRRD);
        plan.actAt = base;
        cmd_at = base + t.tRCD;
    } else {
        // Row conflict.  FR-FCFS controllers with a visible queue
        // precharge a conflicting row speculatively as soon as the
        // bank idles (tRTP after the last read, tRAS after the ACT),
        // so tRP overlaps the idle gap instead of serializing behind
        // the new request.
        plan.needsActivate = true;
        const Tick pre_done =
            std::max(bank_state.activatedAt + t.tRAS,
                     bank_state.lastUseAt + t.tRTP) +
            t.tRP;
        base = std::max(base, pre_done);
        base = std::max(base, lastActivateAt_[rank] + t.tRRD);
        plan.actAt = base;
        cmd_at = plan.actAt + t.tRCD;
    }

    plan.dataStart = std::max(cmd_at + cas, busFreeAt_);
    return plan;
}

void
MemoryController::commitAccess(BankState &bank_state, unsigned rank,
                               std::uint64_t row, const AccessPlan &plan,
                               bool is_write)
{
    const DramTiming &t = activeTiming();
    const Tick cas = is_write ? t.tCWD : t.tCAS;
    const Tick cmd_at = plan.dataStart - cas;
    if (plan.needsActivate) {
        ++stats_.activates;
        bank_state.activatedAt = plan.actAt;
        lastActivateAt_[rank] =
            std::max(lastActivateAt_[rank], plan.actAt);
    }
    bank_state.openRow = static_cast<std::int64_t>(row);
    bank_state.lastUseAt = plan.dataStart;
    // Next column command to this bank may issue one tCCD later; tWR
    // (write to precharge) is folded into the row-conflict path via
    // activatedAt + tRAS, which dominates it at these parameters.
    bank_state.cmdReadyAt = cmd_at + t.tCCD;
}

void
MemoryController::scheduleTryIssue(Tick when)
{
    if (!tryIssueEvent_.scheduled()) {
        events_.schedule(&tryIssueEvent_, std::max(when,
                                                   events_.curTick()));
    } else if (tryIssueEvent_.when() > when) {
        events_.reschedule(&tryIssueEvent_,
                           std::max(when, events_.curTick()));
    }
}

void
MemoryController::maybeRefresh(Tick now)
{
    if (!config_.refreshEnabled)
        return;
    const DramTiming &t = activeTiming();
    for (unsigned r = 0; r < config_.ranksPerChannel; ++r) {
        if (config_.selfRefreshRankMask & (1u << r))
            continue; // refreshes internally
        if (now < nextRefreshAt_[r])
            continue;
        // Catch up on refreshes that elapsed while the channel was
        // idle (count them for energy) but block the rank only once.
        while (nextRefreshAt_[r] + t.tREFI <= now) {
            ++stats_.refreshes;
            nextRefreshAt_[r] += t.tREFI;
        }
        ++stats_.refreshes;
        Tick start = std::max(now, rankBlockedUntil_[r]);
        rankBlockedUntil_[r] = start + t.tRFC;
        for (unsigned b = 0; b < config_.banksPerRank; ++b) {
            BankState &bs = bank(r, b);
            bs.openRow = -1;
            bs.cmdReadyAt = std::max(bs.cmdReadyAt, rankBlockedUntil_[r]);
        }
        nextRefreshAt_[r] += t.tREFI;
    }
}

void
MemoryController::beginTransition(ChannelMode target)
{
    hdmr_assert(mode_ != ChannelMode::kTransition);
    const Tick latency = target == ChannelMode::kWrite
                             ? config_.enterWriteModeLatency
                             : config_.exitWriteModeLatency;
    if (mode_ == ChannelMode::kWrite) {
        stats_.writeModeTicks += events_.curTick() - writeModeEnteredAt_;
    }
    mode_ = ChannelMode::kTransition;
    transitionTarget_ = target;
    transitionEndsAt_ = events_.curTick() + latency;
    stats_.transitionTicks += latency;
    ++stats_.modeSwitches;
    // Entering write mode: wake any self-refresh-parked ranks *now* so
    // the tXS exit time overlaps the frequency-scaling transition
    // (Figs. 9-10 sequence the clock change and the self-refresh exit
    // together) instead of serializing after it.
    if (target == ChannelMode::kWrite && config_.selfRefreshRankMask)
        setSelfRefreshMask(0);
    scheduleTryIssue(transitionEndsAt_);
}

void
MemoryController::finishTransition()
{
    mode_ = transitionTarget_;
    busFreeAt_ = std::max(busFreeAt_, events_.curTick());
    if (reconfigurePending_) {
        const std::uint32_t live_mask = config_.selfRefreshRankMask;
        config_ = pendingConfig_;
        config_.selfRefreshRankMask = live_mask;
        reconfigurePending_ = false;
    }
    if (mode_ == ChannelMode::kWrite) {
        ++stats_.writeModeEntries;
        writeModeEnteredAt_ = events_.curTick();
        writeModeRequested_ = false;
        if (hooks_.onWriteModeEnter)
            hooks_.onWriteModeEnter();
    } else {
        if (hooks_.onWriteModeExit)
            hooks_.onWriteModeExit();
    }
}

MemoryController::Pick
MemoryController::pickFrFcfs(const std::deque<QueuedRequest> &queue,
                             Tick now)
{
    Pick pick;
    if (queue.empty())
        return pick;

    const std::size_t window = std::min(queue.size(), kSchedulerWindow);
    const bool is_write_queue = &queue == &writeQueue_;

    // Age-based starvation guard (the "bank fairness" knob): once the
    // oldest *read* has waited too long, it goes first regardless.
    // Writes are posted, so their service order never starves a core.
    const bool starving = !is_write_queue &&
                          now - queue.front().request.arrival >
                              config_.starvationThreshold;

    bool best_hit = false;
    Tick best_start = ~Tick(0);

    for (std::size_t i = 0; i < window; ++i) {
        const QueuedRequest &qr = queue[i];
        const std::uint32_t ranks =
            is_write_queue ? config_.rankPolicy.writeMask[qr.coord.rank]
                           : config_.rankPolicy.readMask[qr.coord.rank];
        for (std::uint32_t left = ranks; left != 0; left &= left - 1) {
            const unsigned rank = __builtin_ctz(left);
            BankState &bs = bank(rank, qr.coord.bank);
            agePagePolicy(bs, now);
            const AccessPlan plan =
                planAccess(bs, rank, qr.coord.row, now, is_write_queue);
            const bool better =
                (plan.rowHit && !best_hit) ||
                (plan.rowHit == best_hit && plan.dataStart < best_start);
            if (better) {
                pick.index = i;
                best_hit = plan.rowHit;
                best_start = plan.dataStart;
            }
            if (is_write_queue)
                break; // broadcast writes have no rank choice
        }
        if (starving)
            break; // only consider the oldest request
    }
    pick.plannedStart = best_start;
    return pick;
}

bool
MemoryController::issueRead(std::size_t queue_index)
{
    QueuedRequest qr = std::move(readQueue_[queue_index]);
    readQueue_.erase(readQueue_.begin() +
                     static_cast<std::ptrdiff_t>(queue_index));
    const Tick now = events_.curTick();
    const DramTiming &t = activeTiming();

    // Choose the best candidate rank for this read.
    const std::uint32_t candidates =
        config_.rankPolicy.readMask[qr.coord.rank];
    hdmr_assert(candidates != 0);
    unsigned best_rank = 0;
    AccessPlan best_plan;
    bool first = true;
    for (std::uint32_t left = candidates; left != 0; left &= left - 1) {
        const unsigned rank = __builtin_ctz(left);
        hdmr_assert((config_.selfRefreshRankMask & (1u << rank)) == 0,
                    "read targeting a self-refreshing rank %u", rank);
        BankState &bs = bank(rank, qr.coord.bank);
        agePagePolicy(bs, now);
        const AccessPlan plan =
            planAccess(bs, rank, qr.coord.row, now, false);
        if (first || plan.dataStart < best_plan.dataStart ||
            (plan.rowHit && !best_plan.rowHit &&
             plan.dataStart <= best_plan.dataStart)) {
            best_plan = plan;
            best_rank = rank;
            first = false;
        }
    }

    BankState &bs = bank(best_rank, qr.coord.bank);
    if (best_plan.rowHit)
        ++stats_.rowHits;
    else if (bs.openRow < 0)
        ++stats_.rowMisses;
    else
        ++stats_.rowConflicts;

    commitAccess(bs, best_rank, qr.coord.row, best_plan, false);

    Tick complete = best_plan.dataStart + t.tBURST;
    busFreeAt_ = best_plan.dataStart + t.tBURST;
    stats_.busBusyTicks += t.tBURST;

    // Error injection: reads in (unsafely fast) read mode may return a
    // detected-corrupt block; recovery blocks the channel while the
    // frequency is scaled down, the original is read, and the copy is
    // overwritten (Fig. 8c).
    if (config_.readErrorProbability > 0.0 &&
        rng_.bernoulli(config_.readErrorProbability)) {
        ++stats_.readErrors;
        if (hooks_.onReadError)
            hooks_.onReadError();
        complete += config_.errorRecoveryLatency;
        busFreeAt_ += config_.errorRecoveryLatency;
        // The recovery flow slowed the channel down and re-read the
        // original; with margin assumptions violated (drift, heat),
        // that read may itself be corrupt - an uncorrectable error.
        if (config_.recoveryFailureProbability > 0.0 &&
            rng_.bernoulli(config_.recoveryFailureProbability)) {
            ++stats_.uncorrectableErrors;
            if (hooks_.onUncorrectableError)
                hooks_.onUncorrectableError();
        }
    }

    ++stats_.reads;
    if (qr.request.isPrefetch)
        ++stats_.prefetchReads;
    stats_.readLatencySum += complete - qr.request.arrival;
    ++stats_.readLatencySamples;

    recordCompletion(complete, qr.request.address);
    scheduleTryIssue(best_plan.dataStart);
    return true;
}

bool
MemoryController::issueWrite(std::size_t queue_index)
{
    QueuedRequest qr = std::move(writeQueue_[queue_index]);
    writeQueue_.erase(writeQueue_.begin() +
                      static_cast<std::ptrdiff_t>(queue_index));
    const Tick now = events_.curTick();
    const DramTiming &t = activeTiming();

    // A broadcast write sends one command/data transaction that every
    // target rank latches simultaneously (FMR's broadcasting design),
    // so the start time obeys the *max* of the rank constraints but
    // the bus is used once.
    const std::uint32_t targets =
        config_.rankPolicy.writeMask[qr.coord.rank];
    hdmr_assert(targets != 0);
    AccessPlan merged;
    bool any_hit = true;
    for (std::uint32_t left = targets; left != 0; left &= left - 1) {
        const unsigned rank = __builtin_ctz(left);
        hdmr_assert((config_.selfRefreshRankMask & (1u << rank)) == 0,
                    "write targeting a self-refreshing rank %u", rank);
        BankState &bs = bank(rank, qr.coord.bank);
        agePagePolicy(bs, now);
        const AccessPlan plan =
            planAccess(bs, rank, qr.coord.row, now, true);
        merged.dataStart = std::max(merged.dataStart, plan.dataStart);
        merged.needsActivate |= plan.needsActivate;
        any_hit &= plan.rowHit;
    }
    merged.rowHit = any_hit;

    if (merged.rowHit)
        ++stats_.rowHits;
    else
        ++stats_.rowMisses;

    for (std::uint32_t left = targets; left != 0; left &= left - 1) {
        const unsigned rank = __builtin_ctz(left);
        BankState &bs = bank(rank, qr.coord.bank);
        // Re-plan per rank to classify activates, then force the
        // merged start so every rank commits the same transaction.
        AccessPlan plan = planAccess(bs, rank, qr.coord.row, now, true);
        plan.dataStart = merged.dataStart;
        commitAccess(bs, rank, qr.coord.row, plan, true);
    }

    busFreeAt_ = merged.dataStart + t.tBURST;
    stats_.busBusyTicks += t.tBURST;
    ++stats_.writes;
    stats_.writeRankOps += __builtin_popcount(targets);
    scheduleTryIssue(merged.dataStart);
    return true;
}

void
MemoryController::recordCompletion(Tick when, std::uint64_t address)
{
    hdmr_assert(completions_.empty() || completions_.back().when <= when,
                "read completion out of bus order");
    completions_.push_back(Completion{when, address});
    // The event always sits at the front's tick; only the first push
    // into an empty FIFO needs to schedule it.
    if (!completionEvent_.scheduled())
        events_.schedule(&completionEvent_, completions_.front().when);
}

void
MemoryController::processCompletions()
{
    const Tick now = events_.curTick();
    while (!completions_.empty() && completions_.front().when <= now) {
        const std::uint64_t address = completions_.front().address;
        completions_.pop_front();
        if (completionSink_ != nullptr)
            completionSink_->readComplete(address, now);
    }
    if (!completions_.empty())
        events_.schedule(&completionEvent_, completions_.front().when);
}

void
MemoryController::tryIssue()
{
    const Tick now = events_.curTick();

    if (mode_ == ChannelMode::kTransition) {
        if (now >= transitionEndsAt_) {
            finishTransition();
        } else {
            scheduleTryIssue(transitionEndsAt_);
            return;
        }
    }

    maybeRefresh(now);

    if (mode_ == ChannelMode::kRead) {
        const bool pressure =
            writeQueue_.size() >= config_.writeDrainHigh ||
            (readQueue_.empty() && writeQueue_.size() >=
                 std::max<std::size_t>(1, config_.writeDrainHigh / 4));
        if (writeModeRequested_ || pressure) {
            beginTransition(ChannelMode::kWrite);
            return;
        }
        for (unsigned n = 0; n < kIssuesPerEvent; ++n) {
            const Pick pick = pickFrFcfs(readQueue_, now);
            if (!pick.valid())
                return;
            if (pick.plannedStart > now + kIssueHorizon) {
                // Too early to commit: revisit near the start time so
                // later arrivals can still be reordered ahead of it.
                scheduleTryIssue(pick.plannedStart - kIssueHorizon);
                return;
            }
            issueRead(pick.index);
        }
        if (!readQueue_.empty())
            scheduleTryIssue(now + 1000);
        return;
    }

    // Write mode: keep the queue topped up from upstream drains.
    if (hooks_.refillWrites && !writeQueueFull()) {
        hooks_.refillWrites(config_.writeQueueCapacity -
                            writeQueue_.size());
    }
    if (writeQueue_.size() <= config_.writeDrainLow) {
        const bool more =
            hooks_.refillWrites &&
            hooks_.refillWrites(config_.writeQueueCapacity -
                                writeQueue_.size()) > 0;
        if (!more && writeQueue_.empty()) {
            beginTransition(ChannelMode::kRead);
            return;
        }
        if (!more && writeQueue_.size() <= config_.writeDrainLow &&
            !readQueue_.empty()) {
            // Enough drained and reads are waiting: switch back.
            beginTransition(ChannelMode::kRead);
            return;
        }
    }
    for (unsigned n = 0; n < kIssuesPerEvent; ++n) {
        const Pick pick = pickFrFcfs(writeQueue_, now);
        if (!pick.valid())
            break;
        if (pick.plannedStart > now + kIssueHorizon) {
            scheduleTryIssue(pick.plannedStart - kIssueHorizon);
            return;
        }
        issueWrite(pick.index);
    }
    if (!writeQueue_.empty() ||
        (hooks_.refillWrites && mode_ == ChannelMode::kWrite)) {
        scheduleTryIssue(now + 1000);
    }
}

} // namespace hdmr::dram
