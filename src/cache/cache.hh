/**
 * @file
 * Set-associative write-back cache with LRU replacement.
 *
 * The model is functional-plus-latency: tags, dirty bits, prefetch
 * bits and LRU state are tracked exactly; data is not stored (the
 * simulators upstream only need hit/miss/eviction behaviour).  The
 * LLC additionally supports Hetero-DMR's "clean N least-recently-used
 * dirty lines" operation (Section III-E).
 *
 * Hits, misses and writebacks are plain counters; the owner reads and
 * publishes them (node::NodeSystem does so when its run ends).
 */

#ifndef HDMR_CACHE_CACHE_HH
#define HDMR_CACHE_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "util/units.hh"

namespace hdmr::cache
{

/** Cache geometry and latency. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 1ull << 20;
    unsigned ways = 16;
    unsigned lineBytes = 64;
    util::Tick latency = 3871; ///< 12 cycles @ 3.1 GHz

    std::uint64_t
    numLines() const
    {
        return sizeBytes / lineBytes;
    }

    std::uint64_t
    numSets() const
    {
        return numLines() / ways;
    }
};

/** Outcome of a cache access. */
struct AccessResult
{
    bool hit = false;
    /** Hit on a line brought in by a prefetch (first demand use). */
    bool prefetchHit = false;
    /** A dirty victim was evicted and must be written downstream. */
    bool evictedDirty = false;
    std::uint64_t victimAddress = 0;
};

/** The cache. */
class Cache
{
  public:
    explicit Cache(CacheConfig config);

    const CacheConfig &config() const { return config_; }

    /**
     * Demand access with allocate-on-miss.  On a miss the line is
     * installed immediately (MSHR-merge approximation: peer accesses
     * to an in-flight line count as hits) and the LRU victim falls
     * out; timing is handled by the caller.
     */
    AccessResult access(std::uint64_t address, bool is_write);

    /** Install a line without a demand access (prefetch fill). */
    AccessResult fill(std::uint64_t address, bool dirty,
                      bool prefetched);

    /** Tag probe without state change. */
    bool probe(std::uint64_t address) const;

    /** Invalidate a line; returns true if it was present and dirty. */
    bool invalidate(std::uint64_t address);

    /**
     * Clean up to `max_lines` least-recently-used dirty lines whose
     * address satisfies `filter`, invoking `write_out` for each and
     * marking it clean (Hetero-DMR write-mode LLC cleaning; the
     * LRU-first order minimizes re-dirtying).  Returns lines cleaned.
     *
     * `lru_depth` restricts cleaning to the N least-recently-used
     * valid lines of each set - the lines that would be evicted soon
     * anyway, so that proactive cleaning advances, rather than adds
     * to, the write traffic.  Pass `ways` (default) to consider all.
     */
    std::size_t
    cleanLruDirtyLines(std::size_t max_lines,
                       const std::function<bool(std::uint64_t)> &filter,
                       const std::function<void(std::uint64_t)> &write_out,
                       unsigned lru_depth = ~0u);

    /** Number of dirty lines currently resident. */
    std::uint64_t dirtyLines() const { return dirtyLines_; }

    // Statistics.
    std::uint64_t hits() const { return hits_; }     ///< demand hits
    std::uint64_t misses() const { return misses_; } ///< demand misses
    /**
     * Dirty lines written downstream: dirty victims of access() and
     * fill(), plus every line cleanLruDirtyLines() writes out.
     */
    std::uint64_t writebacks() const { return writebacks_; }
    std::uint64_t prefetchUsefulCount() const { return prefetchUseful_; }

    /** Zero hits, misses and writebacks; cache contents stay. */
    void
    resetCounts()
    {
        hits_ = misses_ = writebacks_ = 0;
    }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
    };

    /** One set scan: the way holding the tag, else the one to replace. */
    struct Lookup
    {
        Line *hit;    ///< nullptr on a miss
        Line *victim; ///< on a miss: last invalid way, else first LRU way
    };

    Lookup lookup(std::uint64_t set, std::uint64_t tag);

    /**
     * Replace `victim` in `set` with a most-recently-used line for
     * `tag`; a dirty victim is written back and reported.
     */
    AccessResult install(std::uint64_t set, Line &victim,
                         std::uint64_t tag, bool dirty, bool prefetched);

    std::uint64_t setIndex(std::uint64_t address) const;
    std::uint64_t tagOf(std::uint64_t address) const;
    std::uint64_t lineAddress(std::uint64_t set, std::uint64_t tag) const;

    CacheConfig config_;
    std::uint64_t numSets_;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
    std::uint64_t dirtyLines_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t prefetchUseful_ = 0;
    std::size_t cleanCursor_ = 0; ///< round-robin set scan position
};

} // namespace hdmr::cache

#endif // HDMR_CACHE_CACHE_HH
