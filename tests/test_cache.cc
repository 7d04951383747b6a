/**
 * @file
 * Tests for the cache subsystem: set-associative LRU behaviour, dirty
 * tracking, hit/miss/writeback counts, LRU-first cleaning with depth
 * limits, victim write-back cache semantics, and the prefetchers'
 * stream detection and auto turn-off.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "cache/prefetcher.hh"
#include "cache/writeback_cache.hh"
#include "util/rng.hh"

namespace
{

using namespace hdmr;
using namespace hdmr::cache;

CacheConfig
smallCache(unsigned ways = 4, std::uint64_t size = 16 * 1024)
{
    CacheConfig config;
    config.sizeBytes = size;
    config.ways = ways;
    return config;
}

TEST(Cache, HitAfterMiss)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.probe(0x1000));
}

TEST(Cache, LruEvictionOrder)
{
    // 4-way set: fill 4 lines in one set, touch the first, then insert
    // a fifth - the second-oldest must be evicted.
    Cache cache(smallCache(4));
    const std::uint64_t sets = cache.config().numSets();
    const std::uint64_t stride = sets * 64; // same set, new tag
    for (int i = 0; i < 4; ++i)
        cache.access(i * stride, false);
    cache.access(0, false); // refresh line 0
    cache.access(4 * stride, false);
    EXPECT_TRUE(cache.probe(0));
    EXPECT_FALSE(cache.probe(1 * stride)); // LRU victim
}

TEST(Cache, DirtyEvictionReportsVictim)
{
    Cache cache(smallCache(2));
    const std::uint64_t stride = cache.config().numSets() * 64;
    cache.access(0, true); // dirty
    cache.access(stride, false);
    const auto result = cache.access(2 * stride, false);
    EXPECT_TRUE(result.evictedDirty);
    EXPECT_EQ(result.victimAddress, 0u);
    EXPECT_EQ(cache.dirtyLines(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.writebacks(), 1u);

    // A fill's dirty victim is written back too; a clean one is not,
    // and fills count neither hits nor misses.
    EXPECT_TRUE(cache.access(stride, true).hit);
    EXPECT_FALSE(cache.fill(3 * stride, false, false).evictedDirty);
    EXPECT_EQ(cache.writebacks(), 1u);
    const auto filled = cache.fill(4 * stride, false, false);
    EXPECT_TRUE(filled.evictedDirty);
    EXPECT_EQ(filled.victimAddress, stride);
    EXPECT_EQ(cache.writebacks(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 3u);

    // resetCounts() zeroes the counts but keeps the contents.
    EXPECT_TRUE(cache.access(3 * stride, true).hit);
    cache.resetCounts();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.writebacks(), 0u);
    EXPECT_EQ(cache.dirtyLines(), 1u);
    EXPECT_TRUE(cache.access(3 * stride, false).hit);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(Cache, DirtyLineCountTracksState)
{
    Cache cache(smallCache());
    cache.access(0x100, true);
    cache.access(0x200, true);
    cache.access(0x100, true); // already dirty
    EXPECT_EQ(cache.dirtyLines(), 2u);
    EXPECT_TRUE(cache.invalidate(0x100));
    EXPECT_EQ(cache.dirtyLines(), 1u);
    EXPECT_FALSE(cache.invalidate(0x999000));
}

TEST(Cache, FillMergesDirtyBit)
{
    Cache cache(smallCache());
    cache.fill(0x400, false, true);
    EXPECT_EQ(cache.dirtyLines(), 0u);
    cache.fill(0x400, true, false);
    EXPECT_EQ(cache.dirtyLines(), 1u);
}

TEST(Cache, PrefetchHitCredited)
{
    Cache cache(smallCache());
    cache.fill(0x800, false, true);
    const auto result = cache.access(0x800, false);
    EXPECT_TRUE(result.hit);
    EXPECT_TRUE(result.prefetchHit);
    // Second touch is no longer a first use.
    EXPECT_FALSE(cache.access(0x800, false).prefetchHit);
    EXPECT_EQ(cache.prefetchUsefulCount(), 1u);
}

TEST(Cache, CleanLruDirtyLinesRespectsFilterAndBudget)
{
    Cache cache(smallCache(8, 64 * 1024));
    for (std::uint64_t i = 0; i < 256; ++i)
        cache.access(i * 64, true);
    EXPECT_EQ(cache.misses(), 256u);
    EXPECT_EQ(cache.writebacks(), 0u);
    std::vector<std::uint64_t> written;
    const std::size_t cleaned = cache.cleanLruDirtyLines(
        100, [](std::uint64_t addr) { return addr % 128 == 0; },
        [&](std::uint64_t addr) { written.push_back(addr); });
    EXPECT_EQ(cleaned, written.size());
    EXPECT_GT(cleaned, 0u);
    EXPECT_LE(cleaned, 100u);
    for (const auto addr : written)
        EXPECT_EQ(addr % 128, 0u);
    EXPECT_EQ(cache.dirtyLines(), 256 - cleaned);
    EXPECT_EQ(cache.writebacks(), cleaned); // one per cleaned line

    cache.resetCounts();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.writebacks(), 0u);
    EXPECT_EQ(cache.dirtyLines(), 256 - cleaned);
}

TEST(Cache, CleanDepthLimitSkipsYoungLines)
{
    // One set, 4 ways, all dirty; depth 1 may only clean the oldest.
    Cache cache(smallCache(4, 4 * 64));
    const std::uint64_t stride = cache.config().numSets() * 64;
    for (int i = 0; i < 4; ++i)
        cache.access(i * stride, true);
    std::vector<std::uint64_t> written;
    cache.cleanLruDirtyLines(
        16, nullptr,
        [&](std::uint64_t addr) { written.push_back(addr); }, 1);
    ASSERT_EQ(written.size(), 1u);
    EXPECT_EQ(written.front(), 0u); // the LRU line
}

// --------------------------------------------------------------------
// Victim write-back cache
// --------------------------------------------------------------------

TEST(WritebackCache, InsertPopFifoish)
{
    WritebackCache wb;
    EXPECT_TRUE(wb.empty());
    EXPECT_TRUE(wb.insert(0x1000));
    EXPECT_TRUE(wb.insert(0x2000));
    EXPECT_EQ(wb.occupancy(), 2u);
    EXPECT_TRUE(wb.pop().has_value());
    EXPECT_TRUE(wb.pop().has_value());
    EXPECT_FALSE(wb.pop().has_value());
}

TEST(WritebackCache, CoalescesDuplicates)
{
    WritebackCache wb;
    EXPECT_TRUE(wb.insert(0x40));
    EXPECT_TRUE(wb.insert(0x40));
    EXPECT_EQ(wb.occupancy(), 1u);
}

TEST(WritebackCache, RejectsWhenSetFull)
{
    WritebackCacheConfig config;
    config.sizeBytes = 2 * 64; // 2 entries
    config.ways = 2;           // single set
    WritebackCache wb(config);
    EXPECT_TRUE(wb.insert(0x000));
    EXPECT_TRUE(wb.insert(0x040));
    EXPECT_FALSE(wb.insert(0x080)); // spill to the write buffer
    EXPECT_EQ(wb.rejects(), 1u);
}

TEST(WritebackCache, PaperGeometry)
{
    WritebackCache wb;
    EXPECT_EQ(wb.capacity(), 2048u); // 128 KB / 64 B
}

TEST(WritebackCache, RemoveDropsEntry)
{
    WritebackCache wb;
    wb.insert(0x1000);
    EXPECT_TRUE(wb.remove(0x1000));
    EXPECT_FALSE(wb.remove(0x1000));
    EXPECT_TRUE(wb.empty());
}

// --------------------------------------------------------------------
// Prefetchers
// --------------------------------------------------------------------

TEST(StridePrefetcher, DetectsSingleStream)
{
    StridePrefetcher prefetcher(4);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 8; ++i)
        prefetcher.observeMiss(0x10000 + i * 64, out);
    ASSERT_GE(out.size(), 4u);
    // Predictions run ahead of the stream at the detected stride.
    EXPECT_EQ(out[out.size() - 4] % 64, 0u);
}

TEST(StridePrefetcher, TracksInterleavedStreams)
{
    // Two interleaved streams in distant regions must both train -
    // this is the stream-table property a single-entry detector lacks.
    StridePrefetcher prefetcher(2);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 16; ++i) {
        prefetcher.observeMiss(0x1000000 + i * 64, out);
        prefetcher.observeMiss(0x9000000 + i * 256, out);
    }
    EXPECT_GT(prefetcher.issued(), 20u);
}

TEST(StridePrefetcher, NoPredictionsForRandomStream)
{
    StridePrefetcher prefetcher(4);
    util::Rng rng(11);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 200; ++i)
        prefetcher.observeMiss(rng.next() % (1ull << 30), out);
    EXPECT_LT(prefetcher.issued(), 40u);
}

TEST(NextLinePrefetcher, EmitsNextLine)
{
    NextLinePrefetcher prefetcher;
    std::vector<std::uint64_t> out;
    prefetcher.observeMiss(0x4000, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x4040u);
}

TEST(NextLinePrefetcher, AutoTurnOffWhenUseless)
{
    NextLinePrefetcher prefetcher;
    std::vector<std::uint64_t> out;
    // Never credit a use: after the check interval it must disable.
    for (int i = 0; i < 3000 && prefetcher.enabled(); ++i)
        prefetcher.observeMiss(0x10000 + i * 4096, out);
    EXPECT_FALSE(prefetcher.enabled());
}

TEST(NextLinePrefetcher, StaysOnWhenUseful)
{
    NextLinePrefetcher prefetcher;
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 3000; ++i) {
        prefetcher.observeMiss(0x10000 + i * 64, out);
        prefetcher.creditUse();
    }
    EXPECT_TRUE(prefetcher.enabled());
}

} // namespace
