#include "core/replication.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hdmr::core
{

const char *
toString(ReplicationMode mode)
{
    switch (mode) {
      case ReplicationMode::kNone:
        return "Commercial Baseline";
      case ReplicationMode::kFmr:
        return "FMR";
      case ReplicationMode::kHeteroDmr:
        return "Hetero-DMR";
      case ReplicationMode::kHeteroDmrFmr:
        return "Hetero-DMR+FMR";
    }
    util::panic("unknown replication mode");
}

const char *
toString(MemoryUsage usage)
{
    switch (usage) {
      case MemoryUsage::kUnder25:
        return "[0~25%)";
      case MemoryUsage::kUnder50:
        return "[25~50%)";
      case MemoryUsage::kOver50:
        return "[50~100%]";
    }
    util::panic("unknown memory usage bucket");
}

ReplicationMode
ReplicationManager::effectiveMode(ReplicationMode requested,
                                  MemoryUsage usage)
{
    switch (requested) {
      case ReplicationMode::kNone:
        return ReplicationMode::kNone;
      case ReplicationMode::kFmr:
        // FMR replicates whenever half the ranks are free (<50 %).
        return usage == MemoryUsage::kOver50 ? ReplicationMode::kNone
                                             : ReplicationMode::kFmr;
      case ReplicationMode::kHeteroDmr:
        return usage == MemoryUsage::kOver50
                   ? ReplicationMode::kNone
                   : ReplicationMode::kHeteroDmr;
      case ReplicationMode::kHeteroDmrFmr:
        if (usage == MemoryUsage::kUnder25)
            return ReplicationMode::kHeteroDmrFmr;
        if (usage == MemoryUsage::kUnder50)
            return ReplicationMode::kHeteroDmr; // regresses (Sec. IV-A)
        return ReplicationMode::kNone;
    }
    util::panic("unknown replication mode");
}

ChannelPlan
ReplicationManager::planChannel(ReplicationMode mode)
{
    ChannelPlan plan;
    plan.mode = mode;

    switch (mode) {
      case ReplicationMode::kNone:
        plan.addressRanks = 4;
        plan.fastReads = false;
        // Identity policy: reads/writes go to the home rank only.
        return plan;

      case ReplicationMode::kFmr:
        // Software data compacted into module 0 (ranks 0-1), copies at
        // the same location in module 1 (ranks 2-3).  Reads pick the
        // faster of original/copy; writes broadcast to both.  All at
        // manufacturer specification.
        plan.addressRanks = 2;
        plan.fastReads = false;
        for (unsigned home = 0; home < 2; ++home) {
            const std::uint32_t both = (1u << home) | (1u << (home + 2));
            plan.rankPolicy.readMask[home] = both;
            plan.rankPolicy.writeMask[home] = both;
        }
        return plan;

      case ReplicationMode::kHeteroDmr:
        // Read mode touches ONLY the Free Module (ranks 2-3), which
        // runs unsafely fast; the original ranks sit in self-refresh.
        // Write mode broadcasts to original + copy at specification.
        plan.addressRanks = 2;
        plan.fastReads = true;
        plan.selfRefreshMask = 0b0011;
        for (unsigned home = 0; home < 2; ++home) {
            plan.rankPolicy.readMask[home] = 1u << (home + 2);
            plan.rankPolicy.writeMask[home] =
                (1u << home) | (1u << (home + 2));
        }
        return plan;

      case ReplicationMode::kHeteroDmrFmr:
        // Below 25 % utilization software data fits in one rank, so
        // two copies fit in the Free Module, one per rank; reads pick
        // the faster copy (FMR's algorithm) at the unsafely fast
        // setting; writes broadcast to the original and both copies.
        plan.addressRanks = 1;
        plan.fastReads = true;
        plan.selfRefreshMask = 0b0011;
        plan.rankPolicy.readMask[0] = 0b1100;  // either copy
        plan.rankPolicy.writeMask[0] = 0b1101; // original + both copies
        return plan;
    }
    util::panic("unknown replication mode");
}

unsigned
ReplicationManager::channelMargin(
    const std::vector<unsigned> &module_margins_mts)
{
    if (module_margins_mts.empty())
        return 0;
    return *std::max_element(module_margins_mts.begin(),
                             module_margins_mts.end());
}

unsigned
ReplicationManager::nodeMargin(
    const std::vector<unsigned> &channel_margins_mts)
{
    if (channel_margins_mts.empty())
        return 0;
    return *std::min_element(channel_margins_mts.begin(),
                             channel_margins_mts.end());
}

} // namespace hdmr::core
