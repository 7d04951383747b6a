/**
 * @file
 * Trace-driven out-of-order core model (Table IV: 3.1 GHz, 4-wide,
 * 224-entry ROB).
 *
 * Interval-style timing: compute bursts retire at the issue width;
 * loads that miss the LLC become asynchronous DRAM reads tracked in a
 * miss window.  The core keeps running ahead until either the MSHR
 * budget is exhausted or the oldest incomplete miss falls outside the
 * ROB window - the two mechanisms that make DRAM latency and
 * bandwidth matter.  Stores retire through the write path without
 * blocking.  MPI communication phases idle the core for an absolute
 * duration, so memory speedups are Amdahl-limited like on the real
 * machine.
 */

#ifndef HDMR_CPU_CORE_HH
#define HDMR_CPU_CORE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "sim/event_queue.hh"
#include "workloads/stream.hh"

namespace hdmr::cpu
{

using util::Tick;

/** Core microarchitecture parameters. */
struct CoreConfig
{
    double freqMhz = 3100.0;
    unsigned issueWidth = 4;
    unsigned robSize = 224;
    unsigned maxOutstandingMisses = 16;
    /** Local-time batching quantum (limits event-queue pressure). */
    Tick batchQuantum = 64000;
};

/** Result of a cache-hierarchy load probe. */
struct CacheOutcome
{
    Tick latency = 0;   ///< hit latency; ignored when needsDram
    bool needsDram = false;
};

/**
 * The node-side memory interface a core talks to.  Implemented by
 * node::NodeSystem, which owns the cache hierarchy and the memory
 * controllers.
 */
class MemoryInterface
{
  public:
    virtual ~MemoryInterface() = default;

    /** Backpressure probe: can this core start another LLC miss? */
    virtual bool canAcceptMiss(unsigned core_id) = 0;

    /**
     * Perform a load at time `now`.  If the access needs DRAM the
     * implementation later reports the fill to the core's
     * Core::onMissComplete(`miss_index`, fill tick); otherwise the
     * returned outcome's latency applies.
     */
    virtual CacheOutcome load(unsigned core_id, std::uint64_t address,
                              Tick now, std::uint64_t miss_index) = 0;

    /** Perform a store at time `now`; returns the core-visible cost. */
    virtual Tick store(unsigned core_id, std::uint64_t address,
                       Tick now) = 0;
};

/** Per-core statistics. */
struct CoreStats
{
    std::uint64_t instructions = 0; ///< compute + memory instructions
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t llcMisses = 0;
    Tick commTicks = 0;
    Tick finishTick = 0;
    bool finished = false;
};

/** The core. */
class Core
{
  public:
    Core(sim::EventQueue &events, unsigned id, CoreConfig config,
         std::unique_ptr<wl::AccessStream> stream,
         MemoryInterface &memory, std::function<void(unsigned)> on_done);

    ~Core();

    /** Begin execution at the given tick. */
    void start(Tick when);

    /**
     * The DRAM read miss `miss_index` waits on delivered its data at
     * `when`.  Miss indices number the core's loads that needed
     * DRAM, from 0.
     */
    void onMissComplete(std::uint64_t miss_index, Tick when);

    const CoreStats &stats() const { return stats_; }
    unsigned id() const { return id_; }

  private:
    struct Miss
    {
        std::uint64_t instPosition;
        bool complete = false;
    };

    void process();
    bool blocked() const;
    void finish();

    sim::EventQueue &events_;
    unsigned id_;
    CoreConfig config_;
    Tick cyclePeriod_;
    std::unique_ptr<wl::AccessStream> stream_;
    MemoryInterface &memory_;
    std::function<void(unsigned)> onDone_;

    Tick now_ = 0;              ///< core-local time (>= curTick)
    std::uint64_t instIssued_ = 0;
    std::deque<Miss> window_;   ///< outstanding LLC misses, FIFO
    std::uint64_t missesRetired_ = 0;
    bool hasPendingOp_ = false;
    wl::Op pendingOp_;
    bool waitingForMiss_ = false;
    bool done_ = false;

    sim::EventWrapper<Core, &Core::process> processEvent_;
    CoreStats stats_;
};

} // namespace hdmr::cpu

#endif // HDMR_CPU_CORE_HH
