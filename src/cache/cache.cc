#include "cache/cache.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hdmr::cache
{

Cache::Cache(CacheConfig config) : config_(config)
{
    hdmr_assert(config_.ways >= 1);
    hdmr_assert(config_.lineBytes > 0 &&
                (config_.lineBytes & (config_.lineBytes - 1)) == 0);
    numSets_ = config_.numSets();
    hdmr_assert(numSets_ >= 1, "cache smaller than one set");
    lines_.resize(numSets_ * config_.ways);
}

std::uint64_t
Cache::setIndex(std::uint64_t address) const
{
    return (address / config_.lineBytes) % numSets_;
}

std::uint64_t
Cache::tagOf(std::uint64_t address) const
{
    return (address / config_.lineBytes) / numSets_;
}

std::uint64_t
Cache::lineAddress(std::uint64_t set, std::uint64_t tag) const
{
    return (tag * numSets_ + set) * config_.lineBytes;
}

Cache::Lookup
Cache::lookup(std::uint64_t set, std::uint64_t tag)
{
    Line *base = &lines_[set * config_.ways];
    Line *victim = base;
    for (unsigned w = 0; w < config_.ways; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag)
            return {&line, nullptr};
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }
    return {nullptr, victim};
}

AccessResult
Cache::install(std::uint64_t set, Line &victim, std::uint64_t tag,
               bool dirty, bool prefetched)
{
    AccessResult result;
    if (victim.valid && victim.dirty) {
        result.evictedDirty = true;
        result.victimAddress = lineAddress(set, victim.tag);
        --dirtyLines_;
        ++writebacks_;
    }
    victim.valid = true;
    victim.tag = tag;
    victim.dirty = dirty;
    victim.prefetched = prefetched;
    victim.lastUse = useClock_;
    if (dirty)
        ++dirtyLines_;
    return result;
}

AccessResult
Cache::access(std::uint64_t address, bool is_write)
{
    const std::uint64_t set = setIndex(address);
    const std::uint64_t tag = tagOf(address);
    ++useClock_;

    const auto [line, victim] = lookup(set, tag);
    if (line != nullptr) {
        AccessResult result;
        result.hit = true;
        if (line->prefetched) {
            result.prefetchHit = true;
            line->prefetched = false;
            ++prefetchUseful_;
        }
        line->lastUse = useClock_;
        if (is_write && !line->dirty) {
            line->dirty = true;
            ++dirtyLines_;
        }
        ++hits_;
        return result;
    }
    ++misses_;
    return install(set, *victim, tag, is_write, false);
}

AccessResult
Cache::fill(std::uint64_t address, bool dirty, bool prefetched)
{
    const std::uint64_t set = setIndex(address);
    const std::uint64_t tag = tagOf(address);
    ++useClock_;

    const auto [line, victim] = lookup(set, tag);
    if (line != nullptr) {
        // Already present: just merge the dirty bit.
        if (dirty && !line->dirty) {
            line->dirty = true;
            ++dirtyLines_;
        }
        AccessResult result;
        result.hit = true;
        return result;
    }
    return install(set, *victim, tag, dirty, prefetched);
}

bool
Cache::probe(std::uint64_t address) const
{
    const std::uint64_t set = setIndex(address);
    const std::uint64_t tag = tagOf(address);
    const Line *base = &lines_[set * config_.ways];
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

bool
Cache::invalidate(std::uint64_t address)
{
    const std::uint64_t set = setIndex(address);
    const std::uint64_t tag = tagOf(address);
    Line *base = &lines_[set * config_.ways];
    for (unsigned w = 0; w < config_.ways; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.valid = false;
            const bool was_dirty = line.dirty;
            if (was_dirty) {
                line.dirty = false;
                --dirtyLines_;
            }
            return was_dirty;
        }
    }
    return false;
}

std::size_t
Cache::cleanLruDirtyLines(
    std::size_t max_lines,
    const std::function<bool(std::uint64_t)> &filter,
    const std::function<void(std::uint64_t)> &write_out,
    unsigned lru_depth)
{
    std::size_t cleaned = 0;
    // Round-robin over sets starting where the last clean stopped;
    // within a set, clean the least-recently-used dirty lines first.
    std::vector<Line *> valid_ways;
    for (std::size_t visited = 0;
         visited < numSets_ && cleaned < max_lines; ++visited) {
        const std::size_t set = (cleanCursor_ + visited) % numSets_;
        Line *base = &lines_[set * config_.ways];

        // Order the set's valid lines by recency.
        valid_ways.clear();
        for (unsigned w = 0; w < config_.ways; ++w) {
            if (base[w].valid)
                valid_ways.push_back(&base[w]);
        }
        std::sort(valid_ways.begin(), valid_ways.end(),
                  [](const Line *a, const Line *b) {
                      return a->lastUse < b->lastUse;
                  });

        const std::size_t depth =
            std::min<std::size_t>(valid_ways.size(), lru_depth);
        for (std::size_t i = 0; i < depth && cleaned < max_lines;
             ++i) {
            Line *line = valid_ways[i];
            if (!line->dirty)
                continue;
            const std::uint64_t addr = lineAddress(set, line->tag);
            if (filter && !filter(addr))
                continue;
            write_out(addr);
            line->dirty = false;
            --dirtyLines_;
            ++writebacks_;
            ++cleaned;
        }
        if (cleaned >= max_lines) {
            cleanCursor_ = (set + 1) % numSets_;
            return cleaned;
        }
    }
    cleanCursor_ = 0;
    return cleaned;
}

} // namespace hdmr::cache
