/**
 * @file
 * The single-node simulator: cores + cache hierarchy + per-channel
 * memory controllers + mode controllers, assembled per a NodeConfig.
 *
 * This plays the role gem5 full-system + Ramulator play in the paper
 * (Section IV-A): it runs one benchmark across all cores (one MPI
 * rank per core) and reports execution time, DRAM traffic/bandwidth,
 * energy, and the Hetero-DMR-specific counters the figures need.
 */

#ifndef HDMR_NODE_NODE_SYSTEM_HH
#define HDMR_NODE_NODE_SYSTEM_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "cache/prefetcher.hh"
#include "core/mode_controller.hh"
#include "cpu/core.hh"
#include "dram/controller.hh"
#include "monitor/monitor.hh"
#include "monitor/scheme.hh"
#include "node/config.hh"
#include "node/energy.hh"
#include "sim/event_queue.hh"
#include "telemetry/metrics.hh"

namespace hdmr::node
{

class NodeActionSink;

/** Results of one node simulation. */
struct NodeStats
{
    double execSeconds = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t memOps = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramDemandReads = 0;
    std::uint64_t dramWrites = 0;        ///< bus transactions
    std::uint64_t dramWriteRankOps = 0;  ///< rank-level (broadcast)
    std::uint64_t rowHits = 0;
    std::uint64_t rowMissesPlusConflicts = 0;
    std::uint64_t corrections = 0;
    std::uint64_t uncorrectedErrors = 0; ///< recoveries that failed (UEs)
    std::uint64_t demotions = 0;         ///< fast setting lowered a step
    std::uint64_t quarantines = 0;       ///< channels retired to spec
    std::uint64_t marginPromotions = 0;  ///< guard-band steps re-earned
    /** Always 0: the mode controller's retry ladder and error budget
     *  were removed (a failed recovery escalates straight to a UE).
     *  Kept so digests over every NodeStats field stay unchanged. */
    std::uint64_t ladderRetries = 0;
    std::uint64_t ladderRecoveries = 0;
    std::uint64_t budgetDemotions = 0;
    std::uint64_t cleanedLines = 0;
    std::uint64_t writeModeEntries = 0;
    double avgReadLatencyNs = 0.0;
    /**
     * Bytes moved over peak bandwidth at the design's specSetting()
     * rate: 3200 MT/s for the replicating designs, whose fast reads
     * run above it, so Hetero-DMR designs can exceed 1, up to
     * (3200 + margin) / 3200.
     */
    double busUtilization = 0.0;
    double readBandwidthGBs = 0.0;
    double writeBandwidthGBs = 0.0;
    double commFraction = 0.0;        ///< MPI core-hours share
    double writeModeSeconds = 0.0;    ///< summed over channels
    double transitionSeconds = 0.0;   ///< summed over channels
    double dramAccessesPerInstruction = 0.0;
    EnergyBreakdown energy;

    // ---- Access monitoring (zero when monitoring is disabled). ----
    std::uint64_t monitorSamples = 0;      ///< inspected accesses
    std::uint64_t monitorAggregations = 0;
    std::uint64_t monitorSplits = 0;
    std::uint64_t monitorMerges = 0;
    std::uint64_t monitorThrottles = 0;    ///< budget halved the duty
    std::uint64_t monitorRegions = 0;      ///< final region count
    std::uint64_t schemeHits = 0;          ///< region-predicate matches
    std::uint64_t schemeFires = 0;         ///< actions applied
    /** Always 0: the monitor's drain action was removed.  Kept so
     *  digests over every NodeStats field stay unchanged. */
    std::uint64_t monitorDrains = 0;
    /** Charged monitoring ticks / (exec ticks x cores): the modelled
     *  monitoring overhead the budget bounds. */
    double monitorOverheadFraction = 0.0;

    /** Performance metric used throughout (1 / execution time). */
    double
    performance() const
    {
        return execSeconds > 0.0 ? 1.0 / execSeconds : 0.0;
    }
};

/** The node simulator. */
class NodeSystem : public cpu::MemoryInterface,
                   public dram::ReadCompletionSink
{
  public:
    explicit NodeSystem(NodeConfig config);
    ~NodeSystem() override;

    /**
     * Run the configured benchmark to completion.  With a registry
     * bound, the run's counts are then added to it.
     */
    NodeStats run();

    // cpu::MemoryInterface
    bool canAcceptMiss(unsigned core_id) override;
    cpu::CacheOutcome load(unsigned core_id, std::uint64_t address,
                           util::Tick now,
                           std::uint64_t miss_index) override;
    util::Tick store(unsigned core_id, std::uint64_t address,
                     util::Tick now) override;

    // dram::ReadCompletionSink: the line's waiting misses complete.
    void readComplete(std::uint64_t address, util::Tick when) override;

    const NodeConfig &config() const { return config_; }

    /** The node's event queue (fault-injection wiring). */
    sim::EventQueue &events() { return events_; }

    /**
     * When run() returns, add the measured run's counts to `registry`
     * under `prefix`: every cache's hits, misses and writebacks
     * ("<prefix>.cache.l1.c<i>.hits", ".l2.c<i>.", ".l3.") and each
     * channel's "<prefix>.dram.ch<i>.mode_switches".  Counters are
     * incremented, so nodes bound under one prefix sum; every other
     * count is in NodeStats.  The registry must outlive run().
     */
    void bindTelemetry(telemetry::Registry &registry,
                       const std::string &prefix);

    /**
     * The node's region sampler / scheme engine; nullptr while
     * monitoring is disabled.  Exposed for the monitoring bench and
     * tests (snapshot round-trips, digest trails, region inspection).
     */
    monitor::RegionSampler *regionSampler() { return sampler_.get(); }
    monitor::SchemeEngine *schemeEngine() { return engine_.get(); }

    /** Non-owning views of the per-channel mode controllers. */
    std::vector<core::ModeController *>
    modeControllers()
    {
        std::vector<core::ModeController *> channels;
        channels.reserve(modeControllers_.size());
        for (auto &mc : modeControllers_)
            channels.push_back(mc.get());
        return channels;
    }

  private:
    struct InFlightLine;

    unsigned channelOf(std::uint64_t address) const;
    void routeDirtyEviction(std::uint64_t address);
    /**
     * Open (or join) the MSHR entry of `address`'s line, issuing the
     * DRAM read when the entry is new.  nullptr when no read goes
     * out: during warm-up, or for a prefetch dropped under load.
     */
    InFlightLine *issueDramRead(unsigned channel, std::uint64_t address,
                                util::Tick when, bool prefetch);
    void installLine(unsigned core_id, std::uint64_t address,
                     bool dirty, util::Tick now);
    void handleL3Fill(std::uint64_t address, bool dirty, bool prefetched,
                      util::Tick now);
    void runPrefetchers(unsigned core_id, std::uint64_t address,
                        bool l2_missed, util::Tick now);
    void onCoreDone(unsigned core_id);
    NodeStats collectStats() const;
    void publishTelemetry() const;

    NodeConfig config_;
    sim::EventQueue events_;

    // Memory side.
    std::vector<std::unique_ptr<dram::MemoryController>> controllers_;
    std::vector<std::unique_ptr<core::ModeController>> modeControllers_;

    // Access monitoring (all null while monitoring is disabled).
    std::unique_ptr<NodeActionSink> sink_;
    std::unique_ptr<monitor::RegionSampler> sampler_;
    std::unique_ptr<monitor::SchemeEngine> engine_;

    // Cache hierarchy.
    std::vector<std::unique_ptr<cache::Cache>> l1_; ///< per core
    std::vector<std::unique_ptr<cache::Cache>> l2_; ///< per core
    std::unique_ptr<cache::Cache> l3_;              ///< shared

    // Prefetchers.
    std::vector<cache::StridePrefetcher> l1Stride_;
    std::vector<cache::StridePrefetcher> l2Stride_;
    std::vector<cache::NextLinePrefetcher> l2NextLine_;
    std::vector<std::uint64_t> prefetchScratch_;

    // Cores.
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    unsigned coresRunning_ = 0;
    bool warming_ = false;

    // Where run() publishes its counts; null while unbound.
    telemetry::Registry *registry_ = nullptr;
    std::string telemetryPrefix_;

    /**
     * MSHR table: lines with a DRAM read in flight (demand or
     * prefetch).  A demand load that touches an in-flight line joins
     * the entry and stalls until the data actually arrives - this is
     * what makes prefetch-covered streams bandwidth-bound instead of
     * free.
     */
    struct InFlightLine
    {
        /** Core misses stalled on the line, in arrival order. */
        struct Waiter
        {
            unsigned core;
            std::uint64_t missIndex;
        };
        std::vector<Waiter> waiters;
    };
    std::unordered_map<std::uint64_t, InFlightLine> inFlight_;

    /**
     * Functional cache warm-up (the paper fast-forwards with KVM and
     * warms caches before measuring): plays `ops` stream operations
     * through the cache hierarchy with no timing side effects.
     */
    void warmUp(wl::AccessStream &stream, unsigned core_id,
                std::uint64_t ops);

    /** Fill the LLC with an aged steady-state footprint. */
    void prefillCaches();

    // Cached latencies (ticks).
    util::Tick l1Latency_;
    util::Tick l2Latency_;
    util::Tick l3Latency_;
    util::Tick storeCost_;
};

} // namespace hdmr::node

#endif // HDMR_NODE_NODE_SYSTEM_HH
