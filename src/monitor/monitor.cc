#include "monitor/monitor.hh"

#include <algorithm>

#include "snapshot/digest.hh"
#include "snapshot/serializer.hh"
#include "util/logging.hh"

namespace hdmr::monitor
{

namespace
{

constexpr std::uint64_t kLineBytes = 64;

std::uint64_t
absDiff(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : b - a;
}

} // anonymous namespace

util::Status
MonitorConfig::validate() const
{
    if (samplingInterval == 0)
        return util::invalidArgument(
            "MonitorConfig.samplingInterval must be positive");
    if (aggregationInterval < samplingInterval)
        return util::invalidArgument(
            "MonitorConfig.aggregationInterval must be >= "
            "samplingInterval");
    if (regionUpdateInterval < aggregationInterval)
        return util::invalidArgument(
            "MonitorConfig.regionUpdateInterval must be >= "
            "aggregationInterval");
    if (minRegions == 0)
        return util::invalidArgument(
            "MonitorConfig.minRegions must be positive");
    if (maxRegions < minRegions)
        return util::invalidArgument(
            "MonitorConfig.maxRegions must be >= minRegions");
    if (maxRegions > 4096)
        return util::invalidArgument(
            "MonitorConfig.maxRegions must be <= 4096");
    if (!(overheadBudget > 0.0 && overheadBudget <= 1.0))
        return util::invalidArgument(
            "MonitorConfig.overheadBudget must be in (0, 1]");
    if (sampleCheckCost == 0)
        return util::invalidArgument(
            "MonitorConfig.sampleCheckCost must be positive");
    if (!(initialDuty > 0.0 && initialDuty <= 1.0))
        return util::invalidArgument(
            "MonitorConfig.initialDuty must be in (0, 1]");
    if (cores == 0)
        return util::invalidArgument(
            "MonitorConfig.cores must be positive");
    return util::Status();
}

RegionSampler::RegionSampler(MonitorConfig config)
    : config_(config), rng_(config.seed)
{
    util::checkOk(config_.validate());
    windowTicks_ = std::max<Tick>(
        1, static_cast<Tick>(
               config_.initialDuty *
               static_cast<double>(config_.samplingInterval)));
    nextAggregationAt_ = config_.aggregationInterval;
    nextRegionUpdateAt_ = config_.regionUpdateInterval;
}

void
RegionSampler::setAggregationHook(AggregationHook hook)
{
    hook_ = std::move(hook);
}

void
RegionSampler::setAggregationObserver(
    std::function<void(std::uint64_t)> observer)
{
    observer_ = std::move(observer);
}

Tick
RegionSampler::onAccess(std::uint64_t address, bool is_write, Tick now)
{
    if (!config_.enabled)
        return 0;
    // Core-local clocks can run slightly ahead of each other; keep a
    // monotonic cursor so interval boundaries roll exactly once.
    if (now < cursor_)
        now = cursor_;
    else
        cursor_ = now;
    rollIntervals(now);

    ++stats_.totalAccesses;
    if (now % config_.samplingInterval >= windowTicks_)
        return 0; // outside the inspection window: one compare, free

    touchRegion(address & ~(kLineBytes - 1), is_write);
    ++stats_.sampledAccesses;
    ++aggSampled_;
    aggCharged_ += config_.sampleCheckCost;
    stats_.chargedTicks += config_.sampleCheckCost;
    return config_.sampleCheckCost;
}

void
RegionSampler::touchRegion(std::uint64_t line, bool is_write)
{
    const std::uint64_t end = line + kLineBytes;
    Region *region = nullptr;
    if (regions_.empty()) {
        Region first;
        first.start = line;
        first.end = end;
        regions_.push_back(std::move(first));
        region = &regions_.front();
    } else if (line < regions_.front().start) {
        regions_.front().start = line;
        region = &regions_.front();
    } else if (line >= regions_.back().end) {
        regions_.back().end = end;
        region = &regions_.back();
    } else {
        // Last region whose start is <= line.  Boundaries are all
        // line-aligned, so extending over a gap cannot overlap the
        // next region.
        auto it = std::upper_bound(
                      regions_.begin(), regions_.end(), line,
                      [](std::uint64_t a, const Region &r) {
                          return a < r.start;
                      }) -
                  1;
        if (line >= it->end)
            it->end = end;
        region = &*it;
    }
    ++region->nrAccesses;
    if (is_write)
        ++region->nrWrites;
}

void
RegionSampler::rollIntervals(Tick now)
{
    while (now >= nextAggregationAt_)
        finishAggregation(nextAggregationAt_);
}

void
RegionSampler::finishAggregation(Tick boundary)
{
    // Close the interval's counts into the histories first; the hook
    // (scheme engine) sees the closed counts before merge/reset.
    for (Region &region : regions_)
        region.history.record(region.nrAccesses);

    AggregationInfo info;
    info.index = stats_.aggregations;
    info.boundary = boundary;
    info.sampledAccesses = aggSampled_;
    info.chargedTicks = aggCharged_;
    if (hook_)
        hook_(regions_, info);

    mergeRegions();

    // Age like DAMON: a region whose access count stayed close to the
    // previous interval's grows older; a shifted count resets it.
    for (Region &region : regions_) {
        const std::uint64_t tolerance = std::max<std::uint64_t>(
            1, (region.nrAccesses + region.lastNrAccesses) / 5);
        if (absDiff(region.nrAccesses, region.lastNrAccesses) <=
            tolerance) {
            ++region.age;
        } else {
            region.age = 0;
        }
        region.lastNrAccesses = region.nrAccesses;
        region.nrAccesses = 0;
        region.nrWrites = 0;
    }

    // Self-enforced overhead budget: compare what the interval charged
    // against what the budget allows across all cores, and adapt the
    // duty window.
    const double allowed =
        config_.overheadBudget *
        static_cast<double>(config_.aggregationInterval) *
        static_cast<double>(config_.cores);
    if (static_cast<double>(aggCharged_) > allowed) {
        windowTicks_ = std::max<Tick>(1, windowTicks_ / 2);
        ++stats_.throttles;
    } else if (static_cast<double>(aggCharged_) * 2.0 < allowed &&
               windowTicks_ < config_.samplingInterval) {
        windowTicks_ = std::min(config_.samplingInterval,
                                windowTicks_ + windowTicks_ / 2 + 1);
        ++stats_.boosts;
    }
    aggSampled_ = 0;
    aggCharged_ = 0;

    ++stats_.aggregations;
    nextAggregationAt_ += config_.aggregationInterval;

    if (boundary >= nextRegionUpdateAt_) {
        while (boundary >= nextRegionUpdateAt_)
            nextRegionUpdateAt_ += config_.regionUpdateInterval;
        splitRegions();
    }

    if (observer_)
        observer_(info.index);
}

std::size_t
RegionSampler::mergePass(std::uint64_t threshold)
{
    std::size_t merged = 0;
    std::size_t i = 0;
    while (i + 1 < regions_.size() &&
           regions_.size() > config_.minRegions) {
        Region &left = regions_[i];
        Region &right = regions_[i + 1];
        if (absDiff(left.nrAccesses, right.nrAccesses) > threshold) {
            ++i;
            continue;
        }
        // Fuse like DAMON's damon_merge_two_regions: extensive counts
        // add, age averages weighted by size, histories merge
        // bin-for-bin.
        const double sz_l = static_cast<double>(left.sizeBytes());
        const double sz_r = static_cast<double>(right.sizeBytes());
        left.age = static_cast<std::uint32_t>(
            (static_cast<double>(left.age) * sz_l +
             static_cast<double>(right.age) * sz_r) /
            (sz_l + sz_r));
        left.end = right.end;
        left.nrAccesses += right.nrAccesses;
        left.nrWrites += right.nrWrites;
        left.lastNrAccesses += right.lastNrAccesses;
        left.history.merge(right.history);
        regions_.erase(regions_.begin() + static_cast<long>(i) + 1);
        ++merged;
    }
    return merged;
}

void
RegionSampler::mergeRegions()
{
    if (regions_.size() <= config_.minRegions)
        return;
    // Start with a tenth of the mean interval count as the similarity
    // threshold (DAMON uses max_nr_accesses / 10) and double it until
    // the region count fits under the cap.
    std::uint64_t total = 0;
    for (const Region &region : regions_)
        total += region.nrAccesses;
    std::uint64_t threshold = std::max<std::uint64_t>(
        1, total / regions_.size() / 10);
    std::size_t merged = mergePass(threshold);
    while (regions_.size() > config_.maxRegions) {
        threshold *= 2;
        merged += mergePass(threshold);
    }
    stats_.merges += merged;
}

bool
RegionSampler::splitRegionAt(std::size_t index, unsigned pieces)
{
    Region &region = regions_[index];
    const std::uint64_t lines = region.sizeBytes() / kLineBytes;
    if (lines < 2 || pieces < 2)
        return false;

    // One random line-aligned split point (DAMON splits at a random
    // offset so a hot subrange cannot alias the split grid); the
    // second child starts a fresh history so the per-node merge never
    // double-counts an interval.
    const std::uint64_t cut =
        region.start +
        rng_.uniformInt(1, lines - 1) * kLineBytes;
    Region child;
    child.start = cut;
    child.end = region.end;
    child.age = region.age;
    const double frac =
        static_cast<double>(child.end - child.start) /
        static_cast<double>(region.sizeBytes());
    child.lastNrAccesses = static_cast<std::uint64_t>(
        static_cast<double>(region.lastNrAccesses) * frac);
    region.end = cut;
    region.lastNrAccesses -= child.lastNrAccesses;
    regions_.insert(regions_.begin() + static_cast<long>(index) + 1,
                    std::move(child));
    ++stats_.splits;
    if (pieces > 2)
        splitRegionAt(index + 1, pieces - 1);
    return true;
}

void
RegionSampler::splitRegions()
{
    if (regions_.empty())
        return;

    // Grow toward the floor first: always keep at least minRegions
    // (split the largest candidate).
    while (regions_.size() < config_.minRegions) {
        std::size_t largest = 0;
        for (std::size_t i = 1; i < regions_.size(); ++i) {
            if (regions_[i].sizeBytes() >
                regions_[largest].sizeBytes())
                largest = i;
        }
        if (!splitRegionAt(largest, 2))
            break; // nothing splittable left (single-line regions)
    }

    // DAMON's kdamond_split_regions: only split while under half the
    // cap, in two pieces normally, three while the population is very
    // low - leaving headroom for the next merge pass to express
    // behaviour boundaries.
    if (regions_.size() > config_.maxRegions / 2)
        return;
    const unsigned pieces =
        regions_.size() * 3 <= config_.maxRegions ? 3 : 2;
    const std::size_t existing = regions_.size();
    std::size_t i = 0;
    for (std::size_t n = 0; n < existing; ++n) {
        if (regions_.size() + (pieces - 1) > config_.maxRegions)
            break;
        const std::size_t before = regions_.size();
        splitRegionAt(i, pieces);
        i += regions_.size() - before + 1;
    }
}

namespace
{

void
saveHistogram(snapshot::Serializer &out,
              const telemetry::Log2Histogram &histogram)
{
    for (unsigned b = 0; b < telemetry::Log2Histogram::kBuckets; ++b)
        out.writeU64(histogram.bucketCount(b));
    out.writeU64(histogram.count());
    out.writeU64(histogram.sum());
}

bool
restoreHistogram(snapshot::Deserializer &in,
                 telemetry::Log2Histogram *histogram)
{
    std::uint64_t total = 0;
    for (unsigned b = 0; b < telemetry::Log2Histogram::kBuckets; ++b) {
        const std::uint64_t count = in.readU64();
        histogram->setBucketCount(b, count);
        total += count;
    }
    const std::uint64_t count = in.readU64();
    const std::uint64_t sum = in.readU64();
    if (in.ok() && count != total) {
        in.fail("monitor snapshot carries a histogram whose totals "
                "disagree with its buckets");
        return false;
    }
    histogram->setTotals(count, sum);
    return in.ok();
}

void
digestHistogram(snapshot::Fnv1a &fnv,
                const telemetry::Log2Histogram &histogram)
{
    for (unsigned b = 0; b < telemetry::Log2Histogram::kBuckets; ++b)
        fnv.addU64(histogram.bucketCount(b));
    fnv.addU64(histogram.count());
    fnv.addU64(histogram.sum());
}

} // anonymous namespace

void
RegionSampler::saveState(snapshot::Serializer &out) const
{
    // Configuration fingerprint: a snapshot only restores into a
    // sampler built the same way.
    out.writeU64(config_.samplingInterval);
    out.writeU64(config_.aggregationInterval);
    out.writeU64(config_.regionUpdateInterval);
    out.writeU32(config_.minRegions);
    out.writeU32(config_.maxRegions);
    out.writeDouble(config_.overheadBudget);
    out.writeU64(config_.sampleCheckCost);
    out.writeDouble(config_.initialDuty);
    out.writeU32(config_.cores);
    out.writeU64(config_.seed);

    out.writeU64(cursor_);
    out.writeU64(windowTicks_);
    out.writeU64(nextAggregationAt_);
    out.writeU64(nextRegionUpdateAt_);
    out.writeU64(aggSampled_);
    out.writeU64(aggCharged_);

    const util::RngState rng = rng_.state();
    for (std::uint64_t word : rng.s)
        out.writeU64(word);
    out.writeBool(rng.hasSpareNormal);
    out.writeDouble(rng.spareNormal);

    out.writeU64(stats_.totalAccesses);
    out.writeU64(stats_.sampledAccesses);
    out.writeU64(stats_.aggregations);
    out.writeU64(stats_.splits);
    out.writeU64(stats_.merges);
    out.writeU64(stats_.throttles);
    out.writeU64(stats_.boosts);
    out.writeU64(stats_.chargedTicks);

    out.writeU32(static_cast<std::uint32_t>(regions_.size()));
    for (const Region &region : regions_) {
        out.writeU64(region.start);
        out.writeU64(region.end);
        out.writeU64(region.nrAccesses);
        out.writeU64(region.nrWrites);
        out.writeU64(region.lastNrAccesses);
        out.writeU32(region.age);
        saveHistogram(out, region.history);
    }
}

bool
RegionSampler::restoreState(snapshot::Deserializer &in)
{
    const std::uint64_t sampling = in.readU64();
    const std::uint64_t aggregation = in.readU64();
    const std::uint64_t update = in.readU64();
    const std::uint32_t min_regions = in.readU32();
    const std::uint32_t max_regions = in.readU32();
    const double budget = in.readDouble();
    const std::uint64_t check_cost = in.readU64();
    const double duty = in.readDouble();
    const std::uint32_t cores = in.readU32();
    const std::uint64_t seed = in.readU64();
    if (!in.ok())
        return false;
    if (sampling != config_.samplingInterval ||
        aggregation != config_.aggregationInterval ||
        update != config_.regionUpdateInterval ||
        min_regions != config_.minRegions ||
        max_regions != config_.maxRegions ||
        budget != config_.overheadBudget ||
        check_cost != config_.sampleCheckCost ||
        duty != config_.initialDuty || cores != config_.cores ||
        seed != config_.seed) {
        in.fail("monitor snapshot was taken under a different "
                "monitoring configuration");
        return false;
    }

    const std::uint64_t cursor = in.readU64();
    const std::uint64_t window = in.readU64();
    const std::uint64_t next_agg = in.readU64();
    const std::uint64_t next_update = in.readU64();
    const std::uint64_t agg_sampled = in.readU64();
    const std::uint64_t agg_charged = in.readU64();
    if (in.ok() &&
        (window == 0 || window > config_.samplingInterval)) {
        in.fail("monitor snapshot carries an impossible duty window");
        return false;
    }

    util::RngState rng;
    for (std::uint64_t &word : rng.s)
        word = in.readU64();
    rng.hasSpareNormal = in.readBool();
    rng.spareNormal = in.readDouble();

    MonitorStats stats;
    stats.totalAccesses = in.readU64();
    stats.sampledAccesses = in.readU64();
    stats.aggregations = in.readU64();
    stats.splits = in.readU64();
    stats.merges = in.readU64();
    stats.throttles = in.readU64();
    stats.boosts = in.readU64();
    stats.chargedTicks = in.readU64();

    const std::uint32_t count = in.readU32();
    if (in.ok() && count > config_.maxRegions) {
        in.fail("monitor snapshot carries more regions than the "
                "configuration allows");
        return false;
    }
    std::vector<Region> regions;
    regions.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        Region region;
        region.start = in.readU64();
        region.end = in.readU64();
        region.nrAccesses = in.readU64();
        region.nrWrites = in.readU64();
        region.lastNrAccesses = in.readU64();
        region.age = in.readU32();
        if (!restoreHistogram(in, &region.history))
            return false;
        if (region.start >= region.end ||
            region.start % kLineBytes != 0 ||
            region.end % kLineBytes != 0 ||
            (!regions.empty() &&
             region.start < regions.back().end)) {
            in.fail("monitor snapshot carries a malformed region "
                    "list (unsorted, overlapping, or misaligned)");
            return false;
        }
        regions.push_back(std::move(region));
    }
    if (!in.ok())
        return false;

    cursor_ = cursor;
    windowTicks_ = window;
    nextAggregationAt_ = next_agg;
    nextRegionUpdateAt_ = next_update;
    aggSampled_ = agg_sampled;
    aggCharged_ = agg_charged;
    rng_.setState(rng);
    stats_ = stats;
    regions_ = std::move(regions);
    return true;
}

std::uint64_t
RegionSampler::digest() const
{
    snapshot::Fnv1a fnv;
    fnv.addU64(cursor_);
    fnv.addU64(windowTicks_);
    fnv.addU64(nextAggregationAt_);
    fnv.addU64(nextRegionUpdateAt_);
    fnv.addU64(aggSampled_);
    fnv.addU64(aggCharged_);
    const util::RngState rng = rng_.state();
    for (std::uint64_t word : rng.s)
        fnv.addU64(word);
    fnv.addU64(stats_.totalAccesses);
    fnv.addU64(stats_.sampledAccesses);
    fnv.addU64(stats_.aggregations);
    fnv.addU64(stats_.splits);
    fnv.addU64(stats_.merges);
    fnv.addU64(stats_.throttles);
    fnv.addU64(stats_.boosts);
    fnv.addU64(stats_.chargedTicks);
    fnv.addU64(regions_.size());
    for (const Region &region : regions_) {
        fnv.addU64(region.start);
        fnv.addU64(region.end);
        fnv.addU64(region.nrAccesses);
        fnv.addU64(region.nrWrites);
        fnv.addU64(region.lastNrAccesses);
        fnv.addU32(region.age);
        digestHistogram(fnv, region.history);
    }
    return fnv.value();
}

} // namespace hdmr::monitor
