#include "node/node_system.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hdmr::node
{

using util::Tick;

/**
 * The node-side monitor::ActionSink bridge: scheme actions fan out to
 * every channel's mode controller (the monitor library stays a leaf
 * and never sees core::).  Channel pointers are captured once at
 * construction - the channel set never changes over a node's life.
 */
class NodeActionSink : public monitor::ActionSink
{
  public:
    explicit NodeActionSink(std::vector<core::ModeController *> channels)
        : channels_(std::move(channels))
    {
    }

    void
    setWriteTriggerBoost(double boost) override
    {
        for (core::ModeController *mc : channels_)
            mc->setWriteTriggerBoost(boost);
    }

    void
    setEpochScale(double scale) override
    {
        for (core::ModeController *mc : channels_)
            mc->setEpochLengthScale(scale);
    }

    void
    setCleanFraction(double fraction) override
    {
        for (core::ModeController *mc : channels_)
            mc->setCleanBudgetScale(fraction);
    }

    void
    promoteMargin() override
    {
        for (core::ModeController *mc : channels_)
            mc->promote();
    }

    void
    demoteMargin() override
    {
        for (core::ModeController *mc : channels_)
            mc->demote();
    }

  private:
    std::vector<core::ModeController *> channels_;
};

NodeSystem::NodeSystem(NodeConfig config) : config_(std::move(config))
{
    const HierarchyConfig &h = config_.hierarchy;
    const core::ReplicationMode mode = config_.effectiveReplication();
    const core::ChannelPlan plan =
        core::ReplicationManager::planChannel(mode);

    // ---- Mode-controller configuration shared by all channels. ----
    core::ModeControllerConfig mc;
    mc.specSetting = config_.specSetting();
    mc.fastSetting =
        plan.fastReads ? config_.fastSetting() : config_.specSetting();
    mc.plan = plan;
    mc.readErrorProbability = config_.readErrorProbability;
    mc.recoveryFailureProbability = config_.recoveryFailureProbability;
    mc.quarantine = config_.quarantine;
    mc.cleanLinesPerWriteMode = config_.cleanLinesPerWriteMode;
    mc.frequencyTransitionLatency =
        util::usToTicks(config_.frequencyTransitionUs);

    // Static guard band: operate below the qualified fast rate, one
    // demotion step at a time (error probability scales down the same
    // way a runtime demotion would scale it).  promote() re-earns the
    // band later, never exceeding the qualified rate.
    if (plan.fastReads && config_.marginGuardBandMts > 0 &&
        mc.quarantine.demoteStepMts > 0) {
        mc.qualifiedFastRateMts = mc.fastSetting.dataRateMts;
        const unsigned step = mc.quarantine.demoteStepMts;
        unsigned band = config_.marginGuardBandMts;
        while (band >= step &&
               mc.fastSetting.dataRateMts >=
                   mc.specSetting.dataRateMts + step) {
            mc.fastSetting.dataRateMts -= step;
            mc.readErrorProbability *=
                mc.quarantine.demotionErrorFactor;
            band -= step;
        }
    }

    // ---- Caches. ----
    l1Latency_ = util::mhzToPeriod(config_.core.freqMhz) * 3;
    l2Latency_ = util::mhzToPeriod(config_.core.freqMhz) * 12;
    l3Latency_ = util::nsToTicks(22.0);
    storeCost_ = util::mhzToPeriod(config_.core.freqMhz);

    for (unsigned c = 0; c < h.cores; ++c) {
        cache::CacheConfig l1c;
        l1c.sizeBytes = 64 * 1024;
        l1c.ways = 8;
        l1c.latency = l1Latency_;
        l1_.push_back(std::make_unique<cache::Cache>(l1c));

        cache::CacheConfig l2c;
        l2c.sizeBytes = static_cast<std::uint64_t>(h.l2MiBPerCore *
                                                   1024.0 * 1024.0);
        l2c.ways = 16;
        l2c.latency = l2Latency_;
        l2_.push_back(std::make_unique<cache::Cache>(l2c));

        l1Stride_.emplace_back(4);
        l2Stride_.emplace_back(8);
        l2NextLine_.emplace_back();
    }

    cache::CacheConfig l3c;
    l3c.sizeBytes = static_cast<std::uint64_t>(
        h.l3MiBPerCore * h.cores * 1024.0 * 1024.0);
    l3c.ways = 16;
    l3c.latency = l3Latency_;
    l3_ = std::make_unique<cache::Cache>(l3c);

    // ---- Memory controllers + mode controllers, one per channel. ----
    for (unsigned ch = 0; ch < h.channels; ++ch) {
        auto cc = core::ModeController::buildControllerConfig(
            mc, config_.seed * 131 + ch);
        controllers_.push_back(
            std::make_unique<dram::MemoryController>(events_, cc, this));

        const unsigned channels = h.channels;
        auto filter = [this, ch, channels](std::uint64_t addr) {
            return (addr / 64) % channels == ch;
        };
        // Desynchronize write-mode triggers across channels so their
        // victim caches do not fill (and stall the node) in lockstep.
        core::ModeControllerConfig mc_ch = mc;
        mc_ch.writeModeTriggerFill =
            mc.writeModeTriggerFill - 0.03 * static_cast<double>(ch);
        modeControllers_.push_back(std::make_unique<core::ModeController>(
            events_, *controllers_.back(), l3_.get(), filter, mc_ch));
    }

    // ---- Access monitoring (disabled: everything stays null and the
    // access paths are bit-identical to the unmonitored node). ----
    if (config_.monitoring.enabled) {
        monitor::MonitorConfig mon = config_.monitoring;
        mon.cores = h.cores; // budget normalization
        sampler_ = std::make_unique<monitor::RegionSampler>(mon);
        sink_ = std::make_unique<NodeActionSink>(modeControllers());
        engine_ = std::make_unique<monitor::SchemeEngine>(
            config_.schemes, sink_.get());
        sampler_->setAggregationHook(
            [this](const std::vector<monitor::Region> &regions,
                   const monitor::AggregationInfo &info) {
                engine_->onAggregation(regions, info);
            });
    }

    // ---- Steady-state initial conditions. ----
    // A short measured window only produces representative eviction
    // (write) traffic if the LLC starts full, the way a long-running
    // job leaves it: prefill it with an aged footprint - a bounded
    // dirty backlog from the store regions (the eviction fodder whose
    // writeback both the baseline and Hetero-DMR must pay) plus clean
    // lines from the read regions.
    prefillCaches();

    // ---- Cores and their workload streams. ----
    // Each core's stream covers warm-up plus the measured window; the
    // warm-up prefix is consumed functionally in run().
    for (unsigned c = 0; c < h.cores; ++c) {
        auto stream = std::make_unique<wl::SyntheticHpcStream>(
            config_.workload, c,
            config_.warmupOpsPerCore + config_.memOpsPerCore,
            config_.seed);
        warming_ = true;
        warmUp(*stream, c, config_.warmupOpsPerCore);
        warming_ = false;
        cores_.push_back(std::make_unique<cpu::Core>(
            events_, c, config_.core, std::move(stream), *this,
            [this](unsigned id) { onCoreDone(id); }));
    }
    coresRunning_ = h.cores;

    // Prefill and warm-up are not part of the measured run.
    for (unsigned c = 0; c < h.cores; ++c) {
        l1_[c]->resetCounts();
        l2_[c]->resetCounts();
    }
    l3_->resetCounts();
}

void
NodeSystem::prefillCaches()
{
    const HierarchyConfig &h = config_.hierarchy;
    const std::uint64_t llc_lines = l3_->config().numLines();
    const std::uint64_t per_core = llc_lines / h.cores;

    const std::uint64_t ws_bytes = static_cast<std::uint64_t>(
        config_.workload.workingSetMiB * 1024.0 * 1024.0);
    const std::uint64_t region =
        std::max<std::uint64_t>(ws_bytes / 4, 1 << 20);

    // Dirty lines interleave in age with clean ones, like the
    // footprint a long-running job leaves: roughly one line in
    // sixteen is a not-yet-written-back store line (~write share of
    // traffic).  Under a conventional system dirt survives at every
    // recency depth; under a proactively-cleaning design (Hetero-DMR)
    // the old half of the LLC has already been cleaned in steady
    // state, so its dirt concentrates in the young half.
    const bool cleaning_design =
        core::ReplicationManager::planChannel(
            config_.effectiveReplication())
            .fastReads;
    for (unsigned c = 0; c < h.cores; ++c) {
        const std::uint64_t base =
            (static_cast<std::uint64_t>(c) + 1) << 34;

        std::uint64_t store_k = 0, read_k = 0;
        for (std::uint64_t j = 0; j < per_core; ++j) {
            std::uint64_t addr;
            bool dirty;
            // A proactively-cleaning design has already written back
            // everything old; its LLC starts clean.
            const bool dirty_slot = !cleaning_design && j % 16 == 0;
            if (dirty_slot) {
                addr = base + 3 * region + region - (++store_k) * 64;
                dirty = true;
            } else {
                const unsigned r = static_cast<unsigned>(read_k % 3);
                const std::uint64_t k = read_k / 3;
                ++read_k;
                addr = base + r * region + region - (k + 1) * 64;
                dirty = false;
            }
            l3_->fill(addr & ~63ull, dirty, false);
        }
    }
}

NodeSystem::~NodeSystem() = default;

unsigned
NodeSystem::channelOf(std::uint64_t address) const
{
    return static_cast<unsigned>((address / 64) %
                                 config_.hierarchy.channels);
}

void
NodeSystem::onCoreDone(unsigned)
{
    hdmr_assert(coresRunning_ > 0);
    --coresRunning_;
}

bool
NodeSystem::canAcceptMiss(unsigned)
{
    for (const auto &controller : controllers_) {
        if (controller->readQueueDepth() + 8 >=
            controller->config().readQueueCapacity) {
            return false;
        }
    }
    return true;
}

void
NodeSystem::routeDirtyEviction(std::uint64_t address)
{
    if (warming_)
        return;
    modeControllers_[channelOf(address)]->handleDirtyEviction(address);
}

void
NodeSystem::warmUp(wl::AccessStream &stream, unsigned core_id,
                   std::uint64_t ops)
{
    wl::Op op;
    std::uint64_t consumed = 0;
    while (consumed < ops && stream.next(op)) {
        switch (op.kind) {
          case wl::Op::Kind::kLoad:
            load(core_id, op.address, 0, /*miss_index=*/0);
            ++consumed;
            break;
          case wl::Op::Kind::kStore:
            store(core_id, op.address, 0);
            ++consumed;
            break;
          default:
            break;
        }
    }
}

NodeSystem::InFlightLine *
NodeSystem::issueDramRead(unsigned channel, std::uint64_t address,
                          Tick when, bool prefetch)
{
    if (warming_)
        return nullptr;
    dram::MemoryController &controller = *controllers_[channel];
    if (prefetch &&
        controller.readQueueDepth() * 2 >
            controller.config().readQueueCapacity) {
        return nullptr; // drop prefetches under load
    }

    // Open an MSHR entry; later demand touches join it.  A line
    // already in flight (demand merge) issues no second read.
    auto [it, inserted] = inFlight_.try_emplace(address & ~63ull);
    if (inserted) {
        dram::MemRequest req;
        req.address = address;
        req.arrival = when;
        req.isPrefetch = prefetch;
        controller.enqueueRead(req);
    }
    return &it->second;
}

void
NodeSystem::readComplete(std::uint64_t address, Tick when)
{
    auto node = inFlight_.extract(address & ~63ull);
    if (node.empty())
        return;
    for (const InFlightLine::Waiter &waiter : node.mapped().waiters)
        cores_[waiter.core]->onMissComplete(waiter.missIndex, when);
}

void
NodeSystem::handleL3Fill(std::uint64_t address, bool dirty,
                         bool prefetched, Tick)
{
    const auto result = l3_->fill(address, dirty, prefetched);
    if (result.evictedDirty) {
        routeDirtyEviction(result.victimAddress);
    }
}

void
NodeSystem::installLine(unsigned core_id, std::uint64_t address,
                        bool dirty, Tick now)
{
    // Fill upward: L3, L2, L1.  Dirty victims cascade down a level;
    // from L3 they enter the channel's write path.
    handleL3Fill(address, false, false, now);

    const auto l2r = l2_[core_id]->fill(address, false, false);
    if (l2r.evictedDirty)
        handleL3Fill(l2r.victimAddress, true, false, now);

    const auto l1r = l1_[core_id]->fill(address, dirty, false);
    if (l1r.evictedDirty) {
        const auto spill =
            l2_[core_id]->fill(l1r.victimAddress, true, false);
        if (spill.evictedDirty)
            handleL3Fill(spill.victimAddress, true, false, now);
    }
}

void
NodeSystem::runPrefetchers(unsigned core_id, std::uint64_t address,
                           bool l2_missed, Tick now)
{
    // L1 stride prefetcher fills into L2.
    prefetchScratch_.clear();
    l1Stride_[core_id].observeMiss(address, prefetchScratch_);
    if (l2_missed) {
        // L2 prefetchers fill into L3 (and DRAM when absent).
        l2Stride_[core_id].observeMiss(address, prefetchScratch_);
        l2NextLine_[core_id].observeMiss(address, prefetchScratch_);
    }

    for (const std::uint64_t pf : prefetchScratch_) {
        const std::uint64_t line = pf & ~63ull;
        if (l2_[core_id]->probe(line))
            continue;
        const bool in_l3 = l3_->probe(line);
        const auto l2r = l2_[core_id]->fill(line, false, true);
        if (l2r.evictedDirty)
            handleL3Fill(l2r.victimAddress, true, false, now);
        if (!in_l3) {
            handleL3Fill(line, false, true, now);
            issueDramRead(channelOf(line), line, now, true);
        }
    }
}

cpu::CacheOutcome
NodeSystem::load(unsigned core_id, std::uint64_t address, Tick now,
                 std::uint64_t miss_index)
{
    cpu::CacheOutcome outcome;
    const std::uint64_t line = address & ~63ull;

    // Monitoring observes every post-warm-up access; the modelled
    // check cost rides the cache-hit latency and is subsumed by the
    // DRAM round trip on miss paths.
    const Tick mon = (!warming_ && sampler_)
                         ? sampler_->onAccess(line, false, now)
                         : 0;

    // A line with a DRAM read still in flight (usually a prefetch)
    // is present in the tags but its data has not arrived: the load
    // joins the MSHR entry and waits like a miss.
    if (!warming_) {
        const auto it = inFlight_.find(line);
        if (it != inFlight_.end()) {
            l1_[core_id]->access(line, false); // recency update
            it->second.waiters.push_back({core_id, miss_index});
            // Keep the prefetchers training on the demand stream so
            // coverage extends ahead continuously (streaming).  Done
            // after the waiter registration: issuing prefetches can
            // rehash the MSHR table and invalidate `it`.
            runPrefetchers(core_id, line, true, now);
            outcome.needsDram = true;
            return outcome;
        }
    }

    if (l1_[core_id]->access(line, false).hit) {
        outcome.latency = l1Latency_ + mon;
        return outcome;
    }

    const auto l2r = l2_[core_id]->access(line, false);
    if (l2r.hit) {
        runPrefetchers(core_id, line, false, now);
        outcome.latency = l2Latency_ + mon;
        const auto l1r = l1_[core_id]->fill(line, false, false);
        if (l1r.evictedDirty) {
            const auto spill =
                l2_[core_id]->fill(l1r.victimAddress, true, false);
            if (spill.evictedDirty)
                handleL3Fill(spill.victimAddress, true, false, now);
        }
        return outcome;
    }

    const auto l3r = l3_->access(line, false);
    runPrefetchers(core_id, line, true, now);
    if (l3r.hit) {
        if (l3r.prefetchHit)
            l2NextLine_[core_id].creditUse();
        outcome.latency = l3Latency_ + mon;
        installLine(core_id, line, false, now);
        return outcome;
    }
    if (l3r.evictedDirty)
        routeDirtyEviction(l3r.victimAddress);

    // LLC miss: issue the DRAM read; the line is installed
    // functionally now (MSHR-merge approximation), timing completes
    // when the read does (readComplete).
    installLine(core_id, line, false, now);
    if (InFlightLine *entry =
            issueDramRead(channelOf(line), line, now, false))
        entry->waiters.push_back({core_id, miss_index});
    outcome.needsDram = true;
    return outcome;
}

Tick
NodeSystem::store(unsigned core_id, std::uint64_t address, Tick now)
{
    const std::uint64_t line = address & ~63ull;

    const Tick mon = (!warming_ && sampler_)
                         ? sampler_->onAccess(line, true, now)
                         : 0;

    if (l1_[core_id]->access(line, true).hit)
        return storeCost_ + mon;

    const auto l2r = l2_[core_id]->access(line, true);
    if (l2r.hit) {
        // Write-allocate into L1.
        const auto l1r = l1_[core_id]->fill(line, true, false);
        if (l1r.evictedDirty) {
            const auto spill =
                l2_[core_id]->fill(l1r.victimAddress, true, false);
            if (spill.evictedDirty)
                handleL3Fill(spill.victimAddress, true, false, now);
        }
        return storeCost_ + mon;
    }

    const auto l3r = l3_->access(line, true);
    if (l3r.evictedDirty)
        routeDirtyEviction(l3r.victimAddress);
    installLine(core_id, line, true, now);
    if (!l3r.hit) {
        // Write-allocate fetch: occupies read bandwidth but does not
        // stall the store (store-buffer semantics).
        issueDramRead(channelOf(line), line, now, false);
    }
    return storeCost_ + mon;
}

void
NodeSystem::bindTelemetry(telemetry::Registry &registry,
                          const std::string &prefix)
{
    registry_ = &registry;
    telemetryPrefix_ = prefix;
}

void
NodeSystem::publishTelemetry() const
{
    const auto publish = [this](const std::string &name,
                                const cache::Cache &cache) {
        const std::string base = telemetryPrefix_ + ".cache." + name;
        registry_->counter(base + ".hits").inc(cache.hits());
        registry_->counter(base + ".misses").inc(cache.misses());
        registry_->counter(base + ".writebacks").inc(cache.writebacks());
    };
    for (std::size_t c = 0; c < l1_.size(); ++c) {
        publish("l1.c" + std::to_string(c), *l1_[c]);
        publish("l2.c" + std::to_string(c), *l2_[c]);
    }
    publish("l3", *l3_);
    for (std::size_t ch = 0; ch < controllers_.size(); ++ch) {
        registry_
            ->counter(telemetryPrefix_ + ".dram.ch" + std::to_string(ch) +
                      ".mode_switches")
            .inc(controllers_[ch]->stats().modeSwitches);
    }
}

NodeStats
NodeSystem::collectStats() const
{
    NodeStats stats;
    Tick finish = 0;
    std::uint64_t comm = 0;
    for (const auto &core : cores_) {
        const cpu::CoreStats &cs = core->stats();
        stats.instructions += cs.instructions;
        stats.memOps += cs.loads + cs.stores;
        finish = std::max(finish, cs.finishTick);
        comm += cs.commTicks;
    }
    stats.execSeconds = util::ticksToSeconds(finish);
    stats.commFraction =
        finish == 0 ? 0.0
                    : static_cast<double>(comm) /
                          (static_cast<double>(finish) * cores_.size());

    EnergyInputs energy;
    energy.execSeconds = stats.execSeconds;
    energy.instructions = stats.instructions;
    energy.cores = config_.hierarchy.cores;
    energy.totalRanks = config_.hierarchy.channels *
                        config_.hierarchy.modulesPerChannel *
                        config_.hierarchy.ranksPerModule;

    double bus_busy = 0.0;
    double latency_weight = 0.0;
    for (const auto &controller : controllers_) {
        const dram::ControllerStats &cs = controller->stats();
        stats.dramReads += cs.reads;
        stats.dramDemandReads += cs.reads - cs.prefetchReads;
        stats.dramWrites += cs.writes;
        stats.dramWriteRankOps += cs.writeRankOps;
        stats.rowHits += cs.rowHits;
        stats.rowMissesPlusConflicts += cs.rowMisses + cs.rowConflicts;
        stats.writeModeEntries += cs.writeModeEntries;
        stats.writeModeSeconds += util::ticksToSeconds(cs.writeModeTicks);
        stats.transitionSeconds += util::ticksToSeconds(cs.transitionTicks);
        bus_busy += util::ticksToSeconds(cs.busBusyTicks);
        stats.avgReadLatencyNs +=
            cs.averageReadLatencyNs() *
            static_cast<double>(cs.readLatencySamples);
        latency_weight += static_cast<double>(cs.readLatencySamples);

        energy.activates += cs.activates;
        energy.readBursts += cs.reads;
        energy.writeRankBursts += cs.writeRankOps;
        energy.refreshes += cs.refreshes;
        energy.rankSelfRefreshSeconds +=
            util::ticksToSeconds(cs.selfRefreshRankTicks);
    }
    if (latency_weight > 0.0)
        stats.avgReadLatencyNs /= latency_weight;

    for (const auto &mc : modeControllers_) {
        stats.corrections += mc->stats().corrections;
        stats.uncorrectedErrors += mc->stats().uncorrectedErrors;
        stats.demotions += mc->stats().demotions;
        stats.quarantines += mc->stats().quarantines;
        stats.marginPromotions += mc->stats().promotions;
        stats.cleanedLines += mc->stats().cleanedLines;
    }

    // Bandwidth relative to peak at the *specified* data rate (how
    // Fig. 15 normalizes utilization).
    const double peak =
        util::channelPeakBandwidth(config_.specSetting().dataRateMts) *
        config_.hierarchy.channels;
    const double bytes =
        64.0 * static_cast<double>(stats.dramReads + stats.dramWrites);
    if (stats.execSeconds > 0.0) {
        stats.busUtilization = bytes / (peak * stats.execSeconds);
        stats.readBandwidthGBs = 64.0 *
                                 static_cast<double>(stats.dramReads) /
                                 stats.execSeconds / 1.0e9;
        stats.writeBandwidthGBs =
            64.0 * static_cast<double>(stats.dramWrites) /
            stats.execSeconds / 1.0e9;
    }
    stats.dramAccessesPerInstruction =
        stats.instructions == 0
            ? 0.0
            : static_cast<double>(stats.dramReads + stats.dramWrites) /
                  static_cast<double>(stats.instructions);

    if (sampler_) {
        const monitor::MonitorStats &ms = sampler_->stats();
        stats.monitorSamples = ms.sampledAccesses;
        stats.monitorAggregations = ms.aggregations;
        stats.monitorSplits = ms.splits;
        stats.monitorMerges = ms.merges;
        stats.monitorThrottles = ms.throttles;
        stats.monitorRegions = sampler_->regions().size();
        if (finish > 0) {
            stats.monitorOverheadFraction =
                static_cast<double>(ms.chargedTicks) /
                (static_cast<double>(finish) *
                 static_cast<double>(cores_.size()));
        }
    }
    if (engine_) {
        stats.schemeHits = engine_->totalHits();
        stats.schemeFires = engine_->totalFires();
    }

    stats.energy = computeEnergy(energy);
    return stats;
}

NodeStats
NodeSystem::run()
{
    for (auto &core : cores_)
        core->start(0);

    // Run until every core retires its stream; guard against hangs.
    const Tick limit = 60ull * util::kTicksPerSec;
    while (coresRunning_ > 0 && !events_.empty() &&
           events_.curTick() < limit) {
        events_.runOne();
    }
    hdmr_assert(coresRunning_ == 0,
                "node simulation did not converge (running=%u)",
                coresRunning_);

    // Flush outstanding writes so their bandwidth is accounted.
    for (auto &mc : modeControllers_)
        mc->flush();
    events_.run(events_.curTick() + 200 * util::kTicksPerUs);

    for (auto &controller : controllers_)
        controller->finalizeStats();
    if (registry_ != nullptr)
        publishTelemetry();
    return collectStats();
}

} // namespace hdmr::node
