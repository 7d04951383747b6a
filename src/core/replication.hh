/**
 * @file
 * Replication management (Sections III-D and III-E).
 *
 * Decides *whether* a channel replicates (half of its modules must be
 * free, i.e. memory utilization below 50 %), *which* module runs
 * unsafely fast (margin-aware selection picks the module with the
 * highest measured margin), and *where* copies live (same location
 * across ranks so broadcast writes work), including the rank-role
 * tables the memory controller needs for FMR, Hetero-DMR, and
 * Hetero-DMR+FMR.  Also handles remapping away from modules with
 * permanent faults.
 */

#ifndef HDMR_CORE_REPLICATION_HH
#define HDMR_CORE_REPLICATION_HH

#include <cstdint>
#include <vector>

#include "dram/controller.hh"

namespace hdmr::core
{

/** Replication flavours evaluated in the paper (Section IV-A). */
enum class ReplicationMode : std::uint8_t
{
    kNone,          ///< Commercial Baseline: no copies
    kFmr,           ///< FMR: one copy, spec speed, fastest-copy reads
    kHeteroDmr,     ///< Hetero-DMR: one copy, unsafely fast reads
    kHeteroDmrFmr,  ///< Hetero-DMR+FMR: two copies in the Free Module
};

/** Memory-usage buckets of Figures 1 and 12. */
enum class MemoryUsage : std::uint8_t
{
    kUnder25,   ///< [0, 25%): room for two copies
    kUnder50,   ///< [25, 50%): room for one copy
    kOver50,    ///< [50, 100%]: no replication possible
};

const char *toString(ReplicationMode mode);
const char *toString(MemoryUsage usage);

/**
 * The replication plan for one channel with two dual-rank modules
 * (module 0 = ranks {0,1} holds originals; module 1 = ranks {2,3} is
 * the Free Module).
 */
struct ChannelPlan
{
    ReplicationMode mode = ReplicationMode::kNone;
    /** Ranks the address map spreads software data over. */
    unsigned addressRanks = 4;
    /** Ranks parked in self-refresh during read mode (Hetero-DMR). */
    std::uint32_t selfRefreshMask = 0;
    /** Rank roles per home rank (identity: no replication). */
    dram::RankPolicy rankPolicy;
    /** True when the Free Module runs faster than specification. */
    bool fastReads = false;
};

/**
 * Builds channel plans.  Stateless; one instance per node.
 */
class ReplicationManager
{
  public:
    /**
     * Decide the effective mode for a requested design under the
     * given memory usage (Section IV-A): Hetero-DMR needs <50 %
     * utilization; the +FMR second copy needs <25 %; everything
     * degrades to the Commercial Baseline otherwise.
     */
    static ReplicationMode effectiveMode(ReplicationMode requested,
                                         MemoryUsage usage);

    /** Build the per-channel plan for a (resolved) mode. */
    static ChannelPlan planChannel(ReplicationMode mode);

    /** Channel-level margin under margin-aware selection. */
    static unsigned
    channelMargin(const std::vector<unsigned> &module_margins_mts);

    /** Node-level margin: minimum across channels (Section III-D2). */
    static unsigned
    nodeMargin(const std::vector<unsigned> &channel_margins_mts);
};

} // namespace hdmr::core

#endif // HDMR_CORE_REPLICATION_HH
