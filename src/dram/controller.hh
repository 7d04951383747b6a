/**
 * @file
 * Per-channel DDR4 memory controller (Table IV parameters).
 *
 * Features: FR-FCFS scheduling with an age-based starvation guard
 * ("bank fairness"), hybrid open/closed page policy with a 200-cycle
 * timeout, separate read (256) and write (128) queues with write-drain
 * watermarks, per-rank refresh, rank self-refresh parking, a shared
 * data bus, rank-candidate read selection and broadcast writes (for
 * FMR/Hetero-DMR replication), swappable read-mode/write-mode timing
 * packages with a configurable mode-switch latency (Hetero-DMR's 1 us
 * frequency transition), and read error injection with a recovery
 * penalty (Hetero-DMR's slow-down/read-original/overwrite flow).
 *
 * The command model is transaction-level: a request's ACT/PRE/CAS
 * sequence is collapsed into a latency computed from bank/rank/bus
 * state, in the spirit of a simplified Ramulator.
 */

#ifndef HDMR_DRAM_CONTROLLER_HH
#define HDMR_DRAM_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "dram/address_map.hh"
#include "dram/request.hh"
#include "dram/timing.hh"
#include "sim/event_queue.hh"
#include "util/rng.hh"

namespace hdmr::dram
{

/** Channel operating mode. */
enum class ChannelMode : std::uint8_t
{
    kRead,            ///< serving reads (HDMR: unsafely fast)
    kWrite,           ///< draining writes (HDMR: at specification)
    kTransition,      ///< switching modes / scaling frequency
};

/** Most ranks one channel can hold (rank masks are 32-bit). */
inline constexpr unsigned kMaxRanksPerChannel = 32;

/**
 * Rank roles per home rank (the rank the address map decodes a block
 * to).  Bit r of readMask[home] lets rank r serve a read of such a
 * block (any one of them; the scheduler picks the fastest); bit r of
 * writeMask[home] makes rank r a target every write broadcasts to (all
 * of them, in one bus transaction).  The controller visits the set
 * bits in ascending rank order.  Identity by default; FMR and
 * Hetero-DMR channel plans fill replication-aware tables.
 */
struct RankPolicy
{
    std::array<std::uint32_t, kMaxRanksPerChannel> readMask;
    std::array<std::uint32_t, kMaxRanksPerChannel> writeMask;

    RankPolicy()
    {
        for (unsigned rank = 0; rank < kMaxRanksPerChannel; ++rank)
            readMask[rank] = writeMask[rank] = 1u << rank;
    }
};

/** Controller configuration. */
struct ControllerConfig
{
    DramTiming readModeTiming;   ///< timing while in read mode
    DramTiming writeModeTiming;  ///< timing while in write mode
    unsigned ranksPerChannel = 4; ///< physical ranks on the channel
    /**
     * Ranks the address map spreads software data over.  4 in a
     * conventional system; 2 when replication has compacted software
     * data into one module and freed the other (FMR / Hetero-DMR).
     */
    unsigned addressRanks = 4;
    unsigned banksPerRank = 16;
    std::size_t readQueueCapacity = 256;
    std::size_t writeQueueCapacity = 128;
    std::size_t writeDrainHigh = 112; ///< enter write mode at/above
    std::size_t writeDrainLow = 16;   ///< leave write mode at/below
    util::Tick enterWriteModeLatency = 7500; ///< read->write switch
    util::Tick exitWriteModeLatency = 7500;  ///< write->read switch
    util::Tick pagePolicyTimeout = 200000;   ///< hybrid open-page window
    util::Tick starvationThreshold = 2000000; ///< FR-FCFS age guard
    bool refreshEnabled = true;
    /** Ranks parked in self-refresh (not accessible, self-managed). */
    std::uint32_t selfRefreshRankMask = 0;
    /** Which ranks serve reads and take writes of each home rank. */
    RankPolicy rankPolicy;
    /** Probability a read in read mode returns a detected error. */
    double readErrorProbability = 0.0;
    /** Channel-blocking penalty of the error-correction flow. */
    util::Tick errorRecoveryLatency = 2200000; ///< ~2.2 us
    /**
     * Probability that the recovery flow *also* fails (the slowed-down
     * read of the original returns corrupt data): the detected error
     * becomes an uncorrectable error surfaced through the
     * onUncorrectableError hook instead of being silently absorbed as
     * recovery latency.
     */
    double recoveryFailureProbability = 0.0;
    std::uint64_t seed = 1;
};

/** Aggregate controller statistics. */
struct ControllerStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;          ///< write bus transactions
    std::uint64_t writeRankOps = 0;    ///< rank-level write ops (energy)
    std::uint64_t prefetchReads = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t activates = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t readErrors = 0;      ///< injected detected errors
    std::uint64_t uncorrectableErrors = 0; ///< failed recoveries (UEs)
    std::uint64_t writeModeEntries = 0;
    std::uint64_t modeSwitches = 0;    ///< transitions begun, both ways
    util::Tick busBusyTicks = 0;
    util::Tick writeModeTicks = 0;
    util::Tick transitionTicks = 0;
    /** Rank-time spent in self-refresh (sum over ranks), for energy. */
    util::Tick selfRefreshRankTicks = 0;
    util::Tick readLatencySum = 0;     ///< queue+service, reads only
    std::uint64_t readLatencySamples = 0;

    double
    averageReadLatencyNs() const
    {
        return readLatencySamples == 0
                   ? 0.0
                   : util::ticksToNs(readLatencySum) /
                         static_cast<double>(readLatencySamples);
    }
};

/** Hooks the Hetero-DMR mode controller installs. */
struct ControllerHooks
{
    /** Called when a write-mode drain completes (back in read mode). */
    std::function<void()> onWriteModeExit;
    /** Called right after entering write mode (e.g. clean the LLC). */
    std::function<void()> onWriteModeEnter;
    /** Called for every injected read error (epoch accounting). */
    std::function<void()> onReadError;
    /**
     * Called when the recovery read of the original also fails: the
     * data is lost as far as this channel is concerned and upstream
     * (mode controller, node, cluster) must degrade gracefully.
     */
    std::function<void()> onUncorrectableError;
    /**
     * While in write mode with queue space, the controller asks
     * upstream for more writes (victim-cache drain, LLC cleaning).
     * Returns the number of writes actually enqueued; 0 ends the
     * drain.  May call enqueueWrite() up to `space` times.
     */
    std::function<std::size_t(std::size_t space)> refillWrites;
};

/**
 * Where a memory controller reports finished reads: one sink per
 * controller, fixed at construction.  Reads complete in bus order.
 */
class ReadCompletionSink
{
  public:
    virtual ~ReadCompletionSink() = default;

    /** The read of block `address` delivered its data at `when`. */
    virtual void readComplete(std::uint64_t address, util::Tick when) = 0;
};

/**
 * One memory channel.  Requests arrive via enqueueRead()/
 * enqueueWrite(); finished reads are reported to `completions`
 * (nullptr: not reported).
 */
class MemoryController
{
  public:
    MemoryController(sim::EventQueue &events, ControllerConfig config,
                     ReadCompletionSink *completions = nullptr);

    ~MemoryController();

    /** True when the read queue cannot take another request. */
    bool readQueueFull() const;

    /** True when the write queue cannot take another request. */
    bool writeQueueFull() const;

    /** Submit a read; its completion goes to the completion sink. */
    void enqueueRead(MemRequest request);

    /**
     * Submit a write.  It broadcasts to the rank policy's write
     * targets; the transaction occupies the bus once regardless of
     * fan-out.
     */
    void enqueueWrite(MemRequest request);

    /** Read queue depth (for backpressure decisions upstream). */
    std::size_t readQueueDepth() const { return readQueue_.size(); }

    ChannelMode mode() const { return mode_; }

    /**
     * Re-program the controller's timing/mode parameters.  Takes
     * effect at the next mode transition (the Hetero-DMR controller
     * uses this to set fast read-mode timing once replication is up).
     */
    void reconfigure(const ControllerConfig &config);

    /** Install Hetero-DMR hooks. */
    void setHooks(ControllerHooks hooks) { hooks_ = std::move(hooks); }

    /** Park/unpark ranks in self-refresh (read-mode originals). */
    void setSelfRefreshMask(std::uint32_t mask);

    /** Force a write-mode entry as soon as possible. */
    void requestWriteMode();

    /** Every count the channel keeps; the owner publishes them. */
    const ControllerStats &stats() const { return stats_; }
    const ControllerConfig &config() const { return config_; }

    /** Close out time-integrated statistics at the end of a run. */
    void finalizeStats();

  private:
    struct BankState
    {
        std::int64_t openRow = -1;    ///< -1: closed
        util::Tick cmdReadyAt = 0;    ///< earliest next column/ACT cmd
        util::Tick activatedAt = 0;   ///< for tRAS accounting
        util::Tick lastUseAt = 0;     ///< for the page-policy timeout
    };

    struct QueuedRequest
    {
        MemRequest request;
        DramCoord coord;
    };

    const DramTiming &activeTiming() const;
    BankState &bank(unsigned rank, unsigned bank_index);

    /** Apply the page-policy timeout lazily to a bank. */
    void agePagePolicy(BankState &bank_state, util::Tick now);

    /** Outcome of planning one column access against a bank. */
    struct AccessPlan
    {
        util::Tick dataStart = 0; ///< first data beat on the bus
        util::Tick actAt = 0;     ///< when the ACT issues (if any)
        bool rowHit = false;
        bool needsActivate = false;
    };

    /** Plan the earliest access to `row` in a bank (no state change). */
    AccessPlan planAccess(const BankState &bank_state, unsigned rank,
                          std::uint64_t row, util::Tick now,
                          bool is_write) const;

    /** Commit a planned access: update bank/rank/bus state. */
    void commitAccess(BankState &bank_state, unsigned rank,
                      std::uint64_t row, const AccessPlan &plan,
                      bool is_write);

    void scheduleTryIssue(util::Tick when);
    void tryIssue();
    void maybeRefresh(util::Tick now);
    void beginTransition(ChannelMode target);
    void finishTransition();
    bool issueRead(std::size_t queue_index);
    bool issueWrite(std::size_t queue_index);
    void recordCompletion(util::Tick when, std::uint64_t address);
    void processCompletions();

    struct Pick
    {
        std::size_t index = static_cast<std::size_t>(-1);
        util::Tick plannedStart = 0;

        bool
        valid() const
        {
            return index != static_cast<std::size_t>(-1);
        }
    };

    /** Pick the FR-FCFS winner in a queue. */
    Pick pickFrFcfs(const std::deque<QueuedRequest> &queue,
                    util::Tick now);

    sim::EventQueue &events_;
    ControllerConfig config_;
    ControllerConfig pendingConfig_;
    bool reconfigurePending_ = false;

    AddressMap map_;

    std::deque<QueuedRequest> readQueue_;
    std::deque<QueuedRequest> writeQueue_;
    std::vector<BankState> banks_;
    std::vector<util::Tick> rankBlockedUntil_;
    std::vector<util::Tick> nextRefreshAt_;
    std::vector<util::Tick> lastActivateAt_;

    ChannelMode mode_ = ChannelMode::kRead;
    ChannelMode transitionTarget_ = ChannelMode::kRead;
    util::Tick transitionEndsAt_ = 0;
    util::Tick busFreeAt_ = 0;
    util::Tick writeModeEnteredAt_ = 0;
    util::Tick lastMaskChangeAt_ = 0;
    bool writeModeRequested_ = false;

    /** A read whose data arrives at `when`. */
    struct Completion
    {
        util::Tick when;
        std::uint64_t address;
    };
    /**
     * Reads in flight, in bus order: a read completes when its burst
     * (and any recovery) frees the bus, and busFreeAt_ never moves
     * back, so pushes arrive in non-decreasing `when`.
     */
    std::deque<Completion> completions_;
    ReadCompletionSink *completionSink_; ///< nullptr: not reported

    sim::EventWrapper<MemoryController, &MemoryController::tryIssue>
        tryIssueEvent_;
    sim::EventWrapper<MemoryController,
                      &MemoryController::processCompletions>
        completionEvent_;

    ControllerHooks hooks_;
    ControllerStats stats_;
    util::Rng rng_;

    /** FR-FCFS only inspects the head of the queue up to this depth. */
    static constexpr std::size_t kSchedulerWindow = 64;

    /**
     * Command-issue lookahead: the controller commits transactions
     * whose data phase starts within this horizon, which lets ACTs to
     * different banks overlap in-flight bursts (bank-level
     * parallelism) without committing the whole queue at once.
     */
    static constexpr util::Tick kIssueHorizon = 40000; // 40 ns

    /** Max transactions committed per scheduler invocation. */
    static constexpr unsigned kIssuesPerEvent = 8;
};

} // namespace hdmr::dram

#endif // HDMR_DRAM_CONTROLLER_HH
