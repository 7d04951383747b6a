/**
 * @file
 * Tests for src/monitor: one-pass config validation (first offender
 * named, construction fatals), region sampler behaviour (split/merge
 * engagement, region invariants, budget self-enforcement in both
 * directions), scheme-config parsing (valid forms, malformed inputs
 * never half-fill the output), predicate/quota/cooldown semantics,
 * action dispatch against a recording fake sink, snapshot round-trips
 * with foreign-fingerprint rejection, EpochGuard epoch-length
 * adaptation, and node-level guard-band plumbing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/epoch_guard.hh"
#include "core/mode_controller.hh"
#include "monitor/action_sink.hh"
#include "monitor/monitor.hh"
#include "monitor/scheme.hh"
#include "node/config.hh"
#include "node/node_system.hh"
#include "snapshot/serializer.hh"
#include "util/status.hh"
#include "workloads/hpc_workloads.hh"

namespace
{

using namespace hdmr;
using util::Tick;
using monitor::AggregationInfo;
using monitor::MonitorConfig;
using monitor::Region;
using monitor::RegionSampler;
using monitor::Scheme;
using monitor::SchemeAction;
using monitor::SchemeConfig;
using monitor::SchemeEngine;

// ---- Config validation. ---------------------------------------------

MonitorConfig
enabledConfig()
{
    MonitorConfig mon;
    mon.enabled = true;
    mon.samplingInterval = 2 * util::kTicksPerUs;
    mon.aggregationInterval = 10 * util::kTicksPerUs;
    mon.regionUpdateInterval = 30 * util::kTicksPerUs;
    mon.minRegions = 4;
    mon.maxRegions = 32;
    return mon;
}

TEST(MonitorConfig, DefaultAndEnabledValidate)
{
    EXPECT_TRUE(MonitorConfig().validate().ok());
    EXPECT_TRUE(enabledConfig().validate().ok());
}

TEST(MonitorConfig, FirstOffenderIsNamed)
{
    struct Case
    {
        std::function<void(MonitorConfig &)> corrupt;
        const char *field;
    };
    const Case cases[] = {
        {[](MonitorConfig &m) { m.samplingInterval = 0; },
         "samplingInterval"},
        {[](MonitorConfig &m) {
             m.aggregationInterval = m.samplingInterval - 1;
         },
         "aggregationInterval"},
        {[](MonitorConfig &m) {
             m.regionUpdateInterval = m.aggregationInterval - 1;
         },
         "regionUpdateInterval"},
        {[](MonitorConfig &m) { m.minRegions = 0; }, "minRegions"},
        {[](MonitorConfig &m) { m.maxRegions = m.minRegions - 1; },
         "maxRegions"},
        {[](MonitorConfig &m) { m.maxRegions = 5000; }, "maxRegions"},
        {[](MonitorConfig &m) { m.overheadBudget = 0.0; },
         "overheadBudget"},
        {[](MonitorConfig &m) { m.overheadBudget = 1.5; },
         "overheadBudget"},
        {[](MonitorConfig &m) { m.sampleCheckCost = 0; },
         "sampleCheckCost"},
        {[](MonitorConfig &m) { m.initialDuty = 0.0; }, "initialDuty"},
        {[](MonitorConfig &m) { m.initialDuty = 1.5; }, "initialDuty"},
        {[](MonitorConfig &m) { m.cores = 0; }, "cores"},
    };
    for (const Case &c : cases) {
        MonitorConfig mon = enabledConfig();
        c.corrupt(mon);
        const util::Status status = mon.validate();
        ASSERT_FALSE(status.ok()) << c.field;
        EXPECT_NE(status.message().find(c.field), std::string::npos)
            << status.message();
    }
}

TEST(MonitorConfigDeathTest, ConstructionFatalsOnBadConfig)
{
    MonitorConfig mon = enabledConfig();
    mon.minRegions = 0;
    EXPECT_DEATH(RegionSampler sampler(mon), "minRegions");
}

TEST(SchemeConfigValidate, KnobRangesAndNames)
{
    SchemeConfig base;
    Scheme stat;
    stat.name = "stat_all";
    base.schemes = {stat};
    EXPECT_TRUE(base.validate().ok());

    struct Case
    {
        std::function<void(SchemeConfig &)> corrupt;
        const char *field;
    };
    const Case cases[] = {
        {[](SchemeConfig &c) { c.writeTriggerBoost = 0.6; },
         "writeTriggerBoost"},
        {[](SchemeConfig &c) { c.preferReadsCleanFraction = -0.1; },
         "preferReadsCleanFraction"},
        {[](SchemeConfig &c) { c.epochShortenScale = 0.0; },
         "epochShortenScale"},
        {[](SchemeConfig &c) { c.epochLengthenScale = 0.5; },
         "epochLengthenScale"},
        {[](SchemeConfig &c) { c.schemes[0].name = "Bad Name"; },
         "name"},
        {[](SchemeConfig &c) {
             c.schemes.push_back(c.schemes[0]); // duplicate
         },
         "duplicates"},
        {[](SchemeConfig &c) {
             c.schemes[0].predicate.minAccesses = 10;
             c.schemes[0].predicate.maxAccesses = 5;
         },
         "access bounds"},
        {[](SchemeConfig &c) {
             c.schemes[0].predicate.minWriteFraction = 0.8;
             c.schemes[0].predicate.maxWriteFraction = 0.2;
         },
         "write-fraction"},
    };
    for (const Case &c : cases) {
        SchemeConfig config = base;
        c.corrupt(config);
        const util::Status status = config.validate();
        ASSERT_FALSE(status.ok()) << c.field;
        EXPECT_NE(status.message().find(c.field), std::string::npos)
            << status.message();
    }
}

TEST(SchemeConfigDeathTest, EngineConstructionFatalsOnBadConfig)
{
    SchemeConfig config;
    config.preferReadsCleanFraction = -1.0;
    EXPECT_DEATH(SchemeEngine engine(config, nullptr),
                 "preferReadsCleanFraction");
}

// ---- Region sampler. ------------------------------------------------

/** Drive `ops` synthetic accesses through a hot/cold split stream. */
void
drive(RegionSampler &sampler, std::uint64_t ops,
      std::uint64_t *charged = nullptr)
{
    Tick now = 0;
    std::uint64_t total_charged = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        // Hot first MiB, sparse tail; every 7th access is a write.
        const bool hot = i % 4 != 0;
        const std::uint64_t address =
            hot ? (i * 64) % (1 << 20)
                : (1 << 20) + (i * 4096) % (64 << 20);
        now += 1000; // one access per ns: 200k ops spans ~200 us
        total_charged +=
            sampler.onAccess(address, i % 7 == 0, now);
    }
    if (charged)
        *charged = total_charged;
}

TEST(RegionSampler, DisabledCostsNothingAndKeepsNoState)
{
    MonitorConfig mon; // enabled = false
    RegionSampler sampler(mon);
    std::uint64_t charged = 0;
    drive(sampler, 5000, &charged);
    EXPECT_EQ(charged, 0u);
    EXPECT_EQ(sampler.stats().totalAccesses, 0u);
    EXPECT_EQ(sampler.stats().aggregations, 0u);
    EXPECT_TRUE(sampler.regions().empty());
}

TEST(RegionSampler, SplitsMergesAndRegionInvariants)
{
    RegionSampler sampler(enabledConfig());
    drive(sampler, 200000);
    const monitor::MonitorStats &stats = sampler.stats();
    EXPECT_GT(stats.aggregations, 0u);
    EXPECT_GT(stats.sampledAccesses, 0u);
    EXPECT_GT(stats.splits, 0u);
    EXPECT_GT(stats.merges, 0u);

    const std::vector<Region> &regions = sampler.regions();
    ASSERT_FALSE(regions.empty());
    EXPECT_LE(regions.size(), enabledConfig().maxRegions);
    for (std::size_t i = 0; i < regions.size(); ++i) {
        EXPECT_LT(regions[i].start, regions[i].end) << i;
        if (i > 0) {
            EXPECT_LE(regions[i - 1].end, regions[i].start) << i;
        }
    }
}

TEST(RegionSampler, StarvedBudgetThrottlesTheDutyWindow)
{
    MonitorConfig mon = enabledConfig();
    mon.overheadBudget = 1.0e-4;
    RegionSampler sampler(mon);
    const Tick initial_window = sampler.windowTicks();
    drive(sampler, 100000);
    EXPECT_GT(sampler.stats().throttles, 0u);
    EXPECT_LT(sampler.windowTicks(), initial_window);
}

TEST(RegionSampler, GenerousBudgetGrowsTheDutyWindowBack)
{
    MonitorConfig mon = enabledConfig();
    mon.overheadBudget = 1.0;
    mon.initialDuty = 0.05;
    RegionSampler sampler(mon);
    const Tick initial_window = sampler.windowTicks();
    drive(sampler, 100000);
    EXPECT_GT(sampler.stats().boosts, 0u);
    EXPECT_GT(sampler.windowTicks(), initial_window);
}

TEST(RegionSampler, DeterministicAcrossIdenticalRuns)
{
    RegionSampler a(enabledConfig());
    RegionSampler b(enabledConfig());
    drive(a, 60000);
    drive(b, 60000);
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(RegionSampler, SnapshotRoundTripsInPlaceAndIntoFreshObject)
{
    RegionSampler resumed(enabledConfig());
    drive(resumed, 30000);
    const std::uint64_t digest_before = resumed.digest();

    // An in-place round trip must not perturb any state.
    snapshot::Serializer out;
    resumed.saveState(out);
    snapshot::Deserializer in(out.data());
    ASSERT_TRUE(resumed.restoreState(in));
    EXPECT_TRUE(in.ok());
    EXPECT_EQ(in.remaining(), 0u);
    EXPECT_EQ(resumed.digest(), digest_before);

    // A fresh sampler restored from the image digests identically.
    RegionSampler fresh(enabledConfig());
    snapshot::Deserializer in2(out.data());
    ASSERT_TRUE(fresh.restoreState(in2));
    EXPECT_EQ(fresh.digest(), digest_before);
}

TEST(RegionSampler, RestoreRejectsForeignConfigAndTruncation)
{
    RegionSampler source(enabledConfig());
    drive(source, 30000);
    snapshot::Serializer out;
    source.saveState(out);

    MonitorConfig other = enabledConfig();
    other.maxRegions = 16; // different fingerprint
    RegionSampler foreign(other);
    snapshot::Deserializer in(out.data());
    EXPECT_FALSE(foreign.restoreState(in));

    std::vector<std::uint8_t> truncated = out.data();
    truncated.resize(truncated.size() / 2);
    RegionSampler target(enabledConfig());
    snapshot::Deserializer in2(truncated);
    EXPECT_FALSE(target.restoreState(in2) && in2.ok());
}

// ---- Scheme-config parser. ------------------------------------------

TEST(SchemeParser, ShippedDefaultParsesAndNamesItsSchemes)
{
    SchemeConfig config;
    ASSERT_TRUE(monitor::parseSchemeConfig(
                    monitor::defaultPhaseAdaptiveSchemes(), &config)
                    .ok());
    std::vector<std::string> names;
    for (const Scheme &s : config.schemes)
        names.push_back(s.name);
    EXPECT_EQ(names,
              (std::vector<std::string>{"earn_margin",
                                        "prefer_reads_hot",
                                        "stat_all"}));
    EXPECT_DOUBLE_EQ(config.writeTriggerBoost, 0.08);
    EXPECT_DOUBLE_EQ(config.preferReadsCleanFraction, 0.1);
    EXPECT_EQ(config.schemes[0].action, SchemeAction::kPromoteMargin);
    EXPECT_EQ(config.schemes[0].quota, 2u);
    EXPECT_EQ(config.schemes[0].cooldown, 16u);
    EXPECT_EQ(config.schemes[1].action, SchemeAction::kPreferReads);
}

TEST(SchemeParser, RangesStarsAndComments)
{
    const char *text =
        "# leading comment\n"
        "set epoch_shorten_scale=0.5\n"
        "scheme s1 size=4096:* acc=10:100 age=*:8 wfrac=0.25:* "
        "node=*:* action=epoch_shorten cooldown=3\n"
        "scheme s2 action=demote quota=7  # trailing comment\n";
    SchemeConfig config;
    ASSERT_TRUE(monitor::parseSchemeConfig(text, &config).ok());
    ASSERT_EQ(config.schemes.size(), 2u);
    const monitor::SchemePredicate &p = config.schemes[0].predicate;
    EXPECT_EQ(p.minSizeBytes, 4096u);
    EXPECT_EQ(p.maxSizeBytes, ~std::uint64_t(0));
    EXPECT_EQ(p.minAccesses, 10u);
    EXPECT_EQ(p.maxAccesses, 100u);
    EXPECT_EQ(p.minAge, 0u);
    EXPECT_EQ(p.maxAge, 8u);
    EXPECT_DOUBLE_EQ(p.minWriteFraction, 0.25);
    EXPECT_DOUBLE_EQ(p.maxWriteFraction, 1.0);
    EXPECT_DOUBLE_EQ(config.epochShortenScale, 0.5);
    EXPECT_EQ(config.schemes[1].action, SchemeAction::kDemoteMargin);
    EXPECT_EQ(config.schemes[1].quota, 7u);
}

TEST(SchemeParser, MalformedInputNeverHalfFillsTheOutput)
{
    const char *bad_texts[] = {
        "scheme\n",                                  // no name
        "scheme s1\n",                               // no action
        "scheme s1 action=warp_drive\n",             // unknown action
        "scheme s1 action=drain\n",                  // removed action
        "scheme s1 action=hint_fast\n",              // removed action
        "scheme s1 action=hint_spec\n",              // removed action
        "scheme s1 action=stat bogus=1\n",           // unknown key
        "scheme s1 action=stat acc=nope:4\n",        // bad range
        "scheme s1 action=stat acc=9:4\n",           // inverted (validate)
        "scheme s1 action=stat quota=-3\n",          // bad number
        "scheme Bad_Upper action=stat\n",            // bad name charset
        "set unknown_knob=1\n",                      // unknown set key
        "set drain_clean_fraction=0.1\n",            // removed set key
        "set write_trigger_boost=oops\n",            // bad set value
        "set write_trigger_boost=0.9\n",             // validate rejects
        "frobnicate s1\n",                           // unknown directive
        "scheme s1 action=stat\nscheme s1 action=stat\n", // duplicate
    };
    for (const char *text : bad_texts) {
        SchemeConfig out;
        Scheme sentinel;
        sentinel.name = "sentinel";
        out.schemes = {sentinel};
        out.writeTriggerBoost = 0.25;
        const util::Status status =
            monitor::parseSchemeConfig(text, &out);
        ASSERT_FALSE(status.ok()) << text;
        // Untouched on failure.
        ASSERT_EQ(out.schemes.size(), 1u) << text;
        EXPECT_EQ(out.schemes[0].name, "sentinel") << text;
        EXPECT_DOUBLE_EQ(out.writeTriggerBoost, 0.25) << text;
    }
}

TEST(SchemeParser, OversizedInputsAreRejected)
{
    SchemeConfig out;
    const std::string long_line(monitor::kMaxSchemeConfigLineBytes + 1,
                                '#');
    EXPECT_FALSE(monitor::parseSchemeConfig(long_line, &out).ok());
    std::string huge;
    huge.reserve(monitor::kMaxSchemeConfigBytes + 64);
    while (huge.size() <= monitor::kMaxSchemeConfigBytes)
        huge += "# padding line\n";
    EXPECT_FALSE(monitor::parseSchemeConfig(huge, &out).ok());
}

// ---- Predicates and the engine. -------------------------------------

Region
makeRegion(std::uint64_t start, std::uint64_t size,
           std::uint64_t accesses, std::uint64_t writes,
           std::uint32_t age)
{
    Region region;
    region.start = start;
    region.end = start + size;
    region.nrAccesses = accesses;
    region.nrWrites = writes;
    region.age = age;
    return region;
}

TEST(SchemePredicate, EveryAxisBounds)
{
    monitor::SchemePredicate p;
    p.minSizeBytes = 1024;
    p.maxSizeBytes = 4096;
    p.minAccesses = 10;
    p.minAge = 2;
    p.maxWriteFraction = 0.5;
    p.minNodeSamples = 100;

    AggregationInfo info;
    info.sampledAccesses = 500;
    EXPECT_TRUE(p.matches(makeRegion(0, 2048, 20, 5, 3), info));
    EXPECT_FALSE(p.matches(makeRegion(0, 512, 20, 5, 3), info));
    EXPECT_FALSE(p.matches(makeRegion(0, 8192, 20, 5, 3), info));
    EXPECT_FALSE(p.matches(makeRegion(0, 2048, 5, 1, 3), info));
    EXPECT_FALSE(p.matches(makeRegion(0, 2048, 20, 15, 3), info));
    EXPECT_FALSE(p.matches(makeRegion(0, 2048, 20, 5, 1), info));
    info.sampledAccesses = 50;
    EXPECT_FALSE(p.matches(makeRegion(0, 2048, 20, 5, 3), info));
}

/** Records every ActionSink call in order. */
struct FakeSink : monitor::ActionSink
{
    struct Call
    {
        std::string what;
        double value = 0.0;
    };
    std::vector<Call> calls;

    void
    setWriteTriggerBoost(double boost) override
    {
        calls.push_back({"boost", boost});
    }
    void
    setEpochScale(double scale) override
    {
        calls.push_back({"epoch", scale});
    }
    void
    setCleanFraction(double fraction) override
    {
        calls.push_back({"clean", fraction});
    }
    void
    promoteMargin() override
    {
        calls.push_back({"promote", 0.0});
    }
    void
    demoteMargin() override
    {
        calls.push_back({"demote", 0.0});
    }

    std::size_t
    count(const std::string &what) const
    {
        std::size_t n = 0;
        for (const Call &c : calls)
            n += c.what == what;
        return n;
    }
};

SchemeConfig
oneScheme(SchemeAction action, std::uint64_t quota = 0,
          std::uint32_t cooldown = 0)
{
    SchemeConfig config;
    Scheme scheme;
    scheme.name = "under_test";
    scheme.predicate.minAccesses = 10;
    scheme.action = action;
    scheme.quota = quota;
    scheme.cooldown = cooldown;
    config.schemes = {scheme};
    return config;
}

AggregationInfo
aggAt(std::uint64_t index)
{
    AggregationInfo info;
    info.index = index;
    info.sampledAccesses = 1000;
    return info;
}

TEST(SchemeEngine, EdgeActionHonorsQuotaAndCooldown)
{
    FakeSink sink;
    SchemeEngine engine(oneScheme(SchemeAction::kPromoteMargin,
                                  /*quota=*/2, /*cooldown=*/2),
                        &sink);
    const std::vector<Region> hot = {makeRegion(0, 4096, 50, 0, 1)};

    for (std::uint64_t i = 0; i < 10; ++i)
        engine.onAggregation(hot, aggAt(i));
    // Fires at index 0, cooldown masks 1-2, fires at 3, quota caps.
    EXPECT_EQ(sink.count("promote"), 2u);
    EXPECT_EQ(sink.calls.size(), 2u);
    EXPECT_EQ(engine.states()[0].fires, 2u);
    EXPECT_EQ(engine.states()[0].lastFireAggregation, 3u);
    EXPECT_GT(engine.states()[0].hits, engine.states()[0].fires);
}

TEST(SchemeEngine, LevelActionAssertsAndReleases)
{
    FakeSink sink;
    SchemeConfig config = oneScheme(SchemeAction::kPreferReads);
    config.writeTriggerBoost = 0.08;
    config.preferReadsCleanFraction = 0.1;
    SchemeEngine engine(config, &sink);
    const std::vector<Region> hot = {makeRegion(0, 4096, 50, 0, 1)};
    const std::vector<Region> cold = {makeRegion(0, 4096, 0, 0, 1)};

    engine.onAggregation(hot, aggAt(0));
    EXPECT_TRUE(engine.readPreferenceActive());
    ASSERT_EQ(sink.calls.size(), 2u);
    EXPECT_EQ(sink.calls[0].what, "boost");
    EXPECT_DOUBLE_EQ(sink.calls[0].value, 0.08);
    EXPECT_EQ(sink.calls[1].what, "clean");
    EXPECT_DOUBLE_EQ(sink.calls[1].value, 0.1);

    engine.onAggregation(hot, aggAt(1)); // still held: no re-assert
    EXPECT_EQ(sink.calls.size(), 2u);

    engine.onAggregation(cold, aggAt(2)); // released
    EXPECT_FALSE(engine.readPreferenceActive());
    ASSERT_EQ(sink.calls.size(), 4u);
    EXPECT_DOUBLE_EQ(sink.calls[2].value, 0.0);
    EXPECT_DOUBLE_EQ(sink.calls[3].value, 1.0);
}

TEST(SchemeEngine, ShortenOutranksLengthen)
{
    FakeSink sink;
    SchemeConfig config;
    Scheme shorten;
    shorten.name = "shorten";
    shorten.predicate.minWriteFraction = 0.5;
    shorten.action = SchemeAction::kEpochShorten;
    Scheme lengthen;
    lengthen.name = "lengthen";
    lengthen.action = SchemeAction::kEpochLengthen;
    config.schemes = {shorten, lengthen};
    config.epochShortenScale = 0.25;
    config.epochLengthenScale = 4.0;
    SchemeEngine engine(config, &sink);

    const std::vector<Region> writey = {makeRegion(0, 4096, 50, 40, 1)};
    engine.onAggregation(writey, aggAt(0));
    // Both match; the conservative shorten wins the resolved level.
    EXPECT_DOUBLE_EQ(engine.epochScale(), 0.25);
    ASSERT_EQ(sink.count("epoch"), 1u);

    const std::vector<Region> ready = {makeRegion(0, 4096, 50, 0, 1)};
    engine.onAggregation(ready, aggAt(1));
    EXPECT_DOUBLE_EQ(engine.epochScale(), 4.0);
}

TEST(SchemeEngine, PromoteAndDemoteMargin)
{
    FakeSink sink;
    SchemeConfig config;
    Scheme promote = oneScheme(SchemeAction::kPromoteMargin).schemes[0];
    promote.name = "promote";
    Scheme demote = oneScheme(SchemeAction::kDemoteMargin).schemes[0];
    demote.name = "demote";
    demote.predicate.minWriteFraction = 0.5;
    config.schemes = {promote, demote};
    SchemeEngine engine(config, &sink);

    // Two matching read-only regions: an edge action fires once per
    // aggregation, not once per matching region.
    const std::vector<Region> reads = {
        makeRegion(0, 4096, 50, 0, 1),
        makeRegion(4096, 8192, 60, 0, 2),
    };
    engine.onAggregation(reads, aggAt(0));
    EXPECT_EQ(sink.count("promote"), 1u);
    EXPECT_EQ(sink.count("demote"), 0u);

    const std::vector<Region> writes = {makeRegion(0, 4096, 50, 40, 1)};
    engine.onAggregation(writes, aggAt(1));
    EXPECT_EQ(sink.count("promote"), 2u);
    EXPECT_EQ(sink.count("demote"), 1u);
    EXPECT_EQ(sink.calls.back().what, "demote");
}

TEST(SchemeEngine, SnapshotRoundTripReassertsHolds)
{
    FakeSink sink;
    SchemeConfig config = oneScheme(SchemeAction::kPreferReads);
    SchemeEngine engine(config, &sink);
    const std::vector<Region> hot = {makeRegion(0, 4096, 50, 0, 1)};
    engine.onAggregation(hot, aggAt(0));
    ASSERT_TRUE(engine.readPreferenceActive());
    const std::uint64_t digest = engine.digest();

    snapshot::Serializer out;
    engine.saveState(out);

    // Restore into a fresh engine: state identical, hold re-asserted
    // into ITS sink so the node layer reconverges.
    FakeSink sink2;
    SchemeEngine fresh(config, &sink2);
    snapshot::Deserializer in(out.data());
    ASSERT_TRUE(fresh.restoreState(in));
    EXPECT_TRUE(in.ok());
    EXPECT_EQ(fresh.digest(), digest);
    EXPECT_TRUE(fresh.readPreferenceActive());
    EXPECT_GE(sink2.count("boost"), 1u);
    EXPECT_GE(sink2.count("clean"), 1u);
}

TEST(SchemeEngine, RestoreRejectsForeignSchemeList)
{
    SchemeEngine source(oneScheme(SchemeAction::kPromoteMargin), nullptr);
    snapshot::Serializer out;
    source.saveState(out);

    SchemeEngine other(oneScheme(SchemeAction::kDemoteMargin), nullptr);
    snapshot::Deserializer in(out.data());
    EXPECT_FALSE(other.restoreState(in));
}

// ---- EpochGuard adaptive-length interaction. ------------------------

TEST(EpochGuardAdaptive, SetEpochLengthRescalesThresholdAndReanchors)
{
    core::EpochGuardConfig config;
    config.epochLength = 1000000;
    config.mttSdcYears = 1.0e-9; // tiny target => small thresholds
    core::EpochGuard guard(config);
    const std::uint64_t base_threshold = config.errorThreshold();
    ASSERT_GT(base_threshold, 0u);

    // Accumulate some errors mid-epoch, then shorten the epoch: the
    // epoch containing `now` continues (no spurious roll) and the
    // threshold scales with the length.
    const Tick now = 500000;
    guard.recordError(now);
    guard.recordError(now + 1);
    EXPECT_EQ(guard.errorsThisEpoch(), 2u);

    guard.setEpochLength(config.epochLength / 4, now + 2);
    EXPECT_EQ(guard.epochLength(), config.epochLength / 4);
    EXPECT_EQ(guard.errorsThisEpoch(), 2u); // carried, not reset
    core::EpochGuardConfig quarter = config;
    quarter.epochLength = config.epochLength / 4;
    EXPECT_EQ(guard.config().errorThreshold(),
              quarter.errorThreshold());

    // Re-applying the current length is a no-op (monitors re-assert
    // hold levels after snapshot restores).
    const Tick end_before = guard.epochEnd(now + 2);
    guard.setEpochLength(guard.epochLength(), now + 2);
    EXPECT_EQ(guard.epochEnd(now + 2), end_before);
    EXPECT_EQ(guard.baseEpochLength(), config.epochLength);
}

// ---- Node-level plumbing. -------------------------------------------

node::NodeConfig
tinyMonitoredNode()
{
    node::NodeConfig config;
    config.hierarchy = node::HierarchyConfig::hierarchy1();
    config.workload = wl::benchmarkByName("lulesh");
    config.memOpsPerCore = 3000;
    config.warmupOpsPerCore = 2000;
    config.memorySystem = node::MemorySystemKind::kHeteroDmr;
    config.seed = 11;
    config.monitoring.enabled = true;
    config.monitoring.samplingInterval = 2 * util::kTicksPerUs;
    config.monitoring.aggregationInterval = 5 * util::kTicksPerUs;
    config.monitoring.regionUpdateInterval = 15 * util::kTicksPerUs;
    util::checkOk(monitor::parseSchemeConfig(
        monitor::defaultPhaseAdaptiveSchemes(), &config.schemes));
    return config;
}

TEST(NodeMonitor, MonitoredRunIsDeterministic)
{
    node::NodeSystem a(tinyMonitoredNode());
    node::NodeSystem b(tinyMonitoredNode());
    const node::NodeStats sa = a.run();
    const node::NodeStats sb = b.run();
    EXPECT_EQ(sa.execSeconds, sb.execSeconds);
    EXPECT_GT(sa.monitorAggregations, 0u);
    ASSERT_NE(a.regionSampler(), nullptr);
    ASSERT_NE(b.regionSampler(), nullptr);
    EXPECT_EQ(a.regionSampler()->digest(), b.regionSampler()->digest());
    EXPECT_EQ(a.schemeEngine()->digest(), b.schemeEngine()->digest());
}

TEST(NodeMonitor, MonitoringOffKeepsTheSeedPath)
{
    node::NodeConfig config = tinyMonitoredNode();
    config.monitoring = monitor::MonitorConfig(); // disabled
    config.schemes = monitor::SchemeConfig();
    node::NodeSystem sys(config);
    EXPECT_EQ(sys.regionSampler(), nullptr);
    EXPECT_EQ(sys.schemeEngine(), nullptr);
    const node::NodeStats stats = sys.run();
    EXPECT_EQ(stats.monitorSamples, 0u);
    EXPECT_EQ(stats.monitorAggregations, 0u);
    EXPECT_EQ(stats.schemeFires, 0u);
    EXPECT_DOUBLE_EQ(stats.monitorOverheadFraction, 0.0);
}

TEST(NodeMonitor, GuardBandPlumbsIntoTheModeControllers)
{
    node::NodeConfig config = tinyMonitoredNode();
    config.monitoring = monitor::MonitorConfig();
    config.schemes = monitor::SchemeConfig();
    config.marginGuardBandMts = 400;
    node::NodeSystem sys(config);
    auto channels = sys.modeControllers();
    ASSERT_FALSE(channels.empty());
    core::ModeController *mc = channels[0];
    // hierarchy1 Hetero-DMR qualifies at 3200 + 800 = 4000 MT/s; the
    // band holds the deployment two demotion steps below it.
    EXPECT_EQ(mc->qualifiedFastRateMts(), 4000u);
    mc->promote();
    mc->promote();
    EXPECT_EQ(mc->stats().promotions, 2u);
    mc->promote(); // at the qualified rate: no-op
    EXPECT_EQ(mc->stats().promotions, 2u);
}

TEST(NodeMonitor, ZeroGuardBandHasNothingToPromote)
{
    node::NodeConfig config = tinyMonitoredNode();
    config.monitoring = monitor::MonitorConfig();
    config.schemes = monitor::SchemeConfig();
    config.marginGuardBandMts = 0;
    node::NodeSystem sys(config);
    core::ModeController *mc = sys.modeControllers()[0];
    mc->promote();
    EXPECT_EQ(mc->stats().promotions, 0u);
}

} // anonymous namespace
