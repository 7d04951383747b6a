/**
 * @file
 * DAMON-style bounded-overhead access monitoring for one node.
 *
 * The sampler watches the node's memory-access stream (every L1-level
 * load/store the node simulator sees) and maintains an adaptive set of
 * address *regions*, each carrying a per-aggregation-interval access
 * count, a write count, and an age - exactly the region abstraction
 * Linux's DAMON uses so that monitoring cost is bounded by the region
 * count, never by the footprint.  Two mechanisms keep the abstraction
 * honest:
 *
 *  - *Region update* (split): regions are periodically split at
 *    random line boundaries so differing access behaviour inside one
 *    region can surface in the next aggregation.
 *  - *Merge*: adjacent regions with similar access counts fuse back
 *    (size/age weighted, histograms merged bin-for-bin), with the
 *    similarity threshold doubling until the region count fits under
 *    the configured cap.
 *
 * Cost model and self-enforced budget: the sampler duty-cycles.  Each
 * samplingInterval opens with an inspection window of `windowTicks`
 * (starting at initialDuty x samplingInterval); accesses inside the
 * window are attributed to their region and charged
 * `sampleCheckCost` ticks of modelled overhead, accesses outside cost
 * one compare.  At every aggregation boundary the charged ticks are
 * compared against overheadBudget x aggregationInterval x cores; a
 * blown budget halves the window (throttle), a half-used budget grows
 * it back - so monitoring overhead converges under the budget no
 * matter how hot the access stream runs.
 *
 * All state (regions, duty, RNG, interval cursors) snapshots
 * bit-identically and digests for the replay-divergence trail.
 */

#ifndef HDMR_MONITOR_MONITOR_HH
#define HDMR_MONITOR_MONITOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "telemetry/metrics.hh"
#include "util/rng.hh"
#include "util/status.hh"
#include "util/units.hh"

namespace hdmr::snapshot
{
class Serializer;
class Deserializer;
} // namespace hdmr::snapshot

namespace hdmr::monitor
{

using util::Tick;

/** Sampler parameters (node-simulation time scale: microseconds). */
struct MonitorConfig
{
    /** Master switch; disabled costs nothing and changes nothing. */
    bool enabled = false;
    /** Duty-cycle recurrence of the inspection window. */
    Tick samplingInterval = 2 * util::kTicksPerUs;
    /** Region access counts close at this cadence. */
    Tick aggregationInterval = 20 * util::kTicksPerUs;
    /** Regions are re-split at this cadence. */
    Tick regionUpdateInterval = 60 * util::kTicksPerUs;
    /** Adaptive region-count bounds (DAMON min/max nr_regions). */
    unsigned minRegions = 8;
    unsigned maxRegions = 64;
    /** Fraction of simulated time monitoring may cost (self-enforced). */
    double overheadBudget = 0.02;
    /** Modelled ticks charged per inspected access. */
    Tick sampleCheckCost = 150;
    /** Starting fraction of each samplingInterval spent inspecting. */
    double initialDuty = 0.25;
    /** Cores sharing the access stream (budget normalization). */
    unsigned cores = 1;
    /** Seed of the private split-point stream. */
    std::uint64_t seed = 0xda3017;

    /**
     * Reject impossible configurations (zero/inverted intervals,
     * inverted region bounds, out-of-range budget or duty) with
     * kInvalidArgument naming the offending field; one pass, first
     * offender wins.  RegionSampler's constructor checkOk()s it.
     */
    util::Status validate() const;
};

/** One monitored address region (DAMON damon_region analogue). */
struct Region
{
    std::uint64_t start = 0; ///< first byte (line-aligned)
    std::uint64_t end = 0;   ///< one past the last byte (line-aligned)
    /** Inspected accesses in the current aggregation interval. */
    std::uint64_t nrAccesses = 0;
    /** Inspected writes in the current aggregation interval. */
    std::uint64_t nrWrites = 0;
    /** Closed access count of the previous aggregation interval. */
    std::uint64_t lastNrAccesses = 0;
    /** Consecutive aggregations with a stable access count. */
    std::uint32_t age = 0;
    /** Per-aggregation access-count history (log2 bins). */
    telemetry::Log2Histogram history;

    std::uint64_t sizeBytes() const { return end - start; }

    /** Write share of the interval's inspected accesses; 0 if none. */
    double
    writeFraction() const
    {
        return nrAccesses == 0 ? 0.0
                               : static_cast<double>(nrWrites) /
                                     static_cast<double>(nrAccesses);
    }
};

/** What one closed aggregation interval looked like. */
struct AggregationInfo
{
    /** 0-based index of the interval that just closed. */
    std::uint64_t index = 0;
    /** Absolute tick of the interval's end boundary. */
    Tick boundary = 0;
    /** Inspected accesses attributed during the interval. */
    std::uint64_t sampledAccesses = 0;
    /** Modelled overhead ticks charged during the interval. */
    std::uint64_t chargedTicks = 0;
};

/** Sampler statistics (cumulative). */
struct MonitorStats
{
    std::uint64_t totalAccesses = 0;   ///< every access seen
    std::uint64_t sampledAccesses = 0; ///< inspected (in-window)
    std::uint64_t aggregations = 0;
    std::uint64_t splits = 0;
    std::uint64_t merges = 0;
    std::uint64_t throttles = 0; ///< budget halved the duty window
    std::uint64_t boosts = 0;    ///< spare budget grew it back
    std::uint64_t chargedTicks = 0;
};

/** The adaptive region sampler. */
class RegionSampler
{
  public:
    /**
     * Fires at each aggregation boundary with the interval's *closed*
     * access counts, before regions merge and counts reset - this is
     * where the scheme engine evaluates its predicates.
     */
    using AggregationHook = std::function<void(
        const std::vector<Region> &, const AggregationInfo &)>;

    explicit RegionSampler(MonitorConfig config);

    /**
     * Observe one access.  Returns the modelled check cost (0 outside
     * the inspection window or when disabled) which the caller charges
     * into the access latency, keeping the "overhead" a simulated
     * quantity the budget can be checked against.
     */
    Tick onAccess(std::uint64_t address, bool is_write, Tick now);

    void setAggregationHook(AggregationHook hook);

    /**
     * Fires after an aggregation fully completes (counts reset, duty
     * adapted, regions re-split) - a quiescent point where monitor
     * state may be snapshotted or round-tripped safely.
     */
    void setAggregationObserver(
        std::function<void(std::uint64_t index)> observer);

    const std::vector<Region> &regions() const { return regions_; }
    const MonitorStats &stats() const { return stats_; }
    const MonitorConfig &config() const { return config_; }
    /** Current inspection-window length (duty x samplingInterval). */
    Tick windowTicks() const { return windowTicks_; }

    // ---- Snapshot/resume surface (src/snapshot). ----

    /**
     * Serialize the complete sampler state: a fingerprint of the
     * configuration, the interval cursors, the adaptive duty window,
     * the split-point RNG, the statistics, and every region including
     * its history histogram.
     */
    void saveState(snapshot::Serializer &out) const;

    /**
     * Restore a captured state into a sampler built with the same
     * configuration.  Fails the deserializer (and returns false) on a
     * foreign configuration fingerprint, malformed regions (unsorted,
     * overlapping, empty), or an impossible duty window.
     */
    bool restoreState(snapshot::Deserializer &in);

    /** FNV-1a digest over the complete mutable state. */
    std::uint64_t digest() const;

  private:
    void rollIntervals(Tick now);
    void finishAggregation(Tick boundary);
    void mergeRegions();
    std::size_t mergePass(std::uint64_t threshold);
    void splitRegions();
    bool splitRegionAt(std::size_t index, unsigned pieces);
    void touchRegion(std::uint64_t line, bool is_write);

    MonitorConfig config_;
    util::Rng rng_;
    std::vector<Region> regions_;

    /** Monotonic time cursor (core-local `now`s can reorder). */
    Tick cursor_ = 0;
    /** Current inspection-window length within each samplingInterval. */
    Tick windowTicks_ = 0;
    Tick nextAggregationAt_ = 0;
    Tick nextRegionUpdateAt_ = 0;
    /** Inspected accesses / charged ticks in the open interval. */
    std::uint64_t aggSampled_ = 0;
    std::uint64_t aggCharged_ = 0;

    MonitorStats stats_;
    AggregationHook hook_;
    std::function<void(std::uint64_t)> observer_;
};

} // namespace hdmr::monitor

#endif // HDMR_MONITOR_MONITOR_HH
