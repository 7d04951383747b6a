/**
 * @file
 * Tests for the DRAM subsystem: timing derivation (Table II),
 * address mapping, controller scheduling invariants (ordering,
 * row-hit preference, write drains, refresh, self-refresh, broadcast
 * writes, mode transitions, error injection).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "dram/address_map.hh"
#include "dram/controller.hh"
#include "dram/timing.hh"
#include "util/rng.hh"

namespace
{

using namespace hdmr;
using namespace hdmr::dram;
using util::Tick;

// --------------------------------------------------------------------
// Timing
// --------------------------------------------------------------------

TEST(Timing, TableTwoSettings)
{
    const auto spec = MemorySetting::manufacturerSpec();
    EXPECT_EQ(spec.dataRateMts, 3200u);
    EXPECT_DOUBLE_EQ(spec.trcdNs, 13.75);
    EXPECT_DOUBLE_EQ(spec.trefiUs, 7.8);

    const auto lat = MemorySetting::exploitLatencyMargin();
    EXPECT_EQ(lat.dataRateMts, 3200u);
    EXPECT_DOUBLE_EQ(lat.trcdNs, 11.5);
    EXPECT_DOUBLE_EQ(lat.trpNs, 11.0);
    EXPECT_DOUBLE_EQ(lat.trasNs, 29.5);
    EXPECT_DOUBLE_EQ(lat.trefiUs, 15.0);

    const auto freq = MemorySetting::exploitFrequencyMargin();
    EXPECT_EQ(freq.dataRateMts, 4000u);
    EXPECT_DOUBLE_EQ(freq.trcdNs, 13.75);

    const auto both = MemorySetting::exploitFreqLatMargins();
    EXPECT_EQ(both.dataRateMts, 4000u);
    EXPECT_DOUBLE_EQ(both.trcdNs, 11.5);
}

TEST(Timing, DerivedPackageScalesWithRate)
{
    const auto slow =
        DramTiming::fromSetting(MemorySetting::manufacturerSpec(3200));
    const auto fast = DramTiming::fromSetting(
        MemorySetting::exploitFrequencyMargin(4000));
    EXPECT_EQ(slow.tCK, 625u);
    EXPECT_EQ(fast.tCK, 500u);
    EXPECT_EQ(slow.tBURST, 2500u);
    EXPECT_EQ(fast.tBURST, 2000u);
    // ns-specified latencies do not change with the data rate.
    EXPECT_EQ(slow.tRCD, fast.tRCD);
    EXPECT_EQ(slow.tCAS, fast.tCAS);
}

TEST(Timing, LatencyMarginDoesNotTouchCas)
{
    const auto spec =
        DramTiming::fromSetting(MemorySetting::manufacturerSpec());
    const auto lat =
        DramTiming::fromSetting(MemorySetting::exploitLatencyMargin());
    EXPECT_EQ(spec.tCAS, lat.tCAS); // CL is not in Table II
    EXPECT_LT(lat.tRCD, spec.tRCD);
    EXPECT_LT(lat.tRP, spec.tRP);
    EXPECT_GT(lat.tREFI, spec.tREFI);
}

// --------------------------------------------------------------------
// Address map
// --------------------------------------------------------------------

TEST(AddressMap, FieldsWithinBounds)
{
    AddressMap map(AddressMapConfig{4, 4, 16, 128, 64});
    util::Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        const auto coord = map.decode(rng.next() % (1ull << 36));
        EXPECT_LT(coord.channel, 4u);
        EXPECT_LT(coord.rank, 4u);
        EXPECT_LT(coord.bank, 16u);
        EXPECT_LT(coord.column, 128u);
    }
}

TEST(AddressMap, ConsecutiveLinesShareRow)
{
    AddressMap map(AddressMapConfig{1, 4, 16, 128, 64});
    const auto a = map.decode(0x100000);
    const auto b = map.decode(0x100040);
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.column + 1, b.column);
}

TEST(AddressMap, XorFoldSpreadsRowsAcrossBanks)
{
    AddressMap map(AddressMapConfig{1, 1, 16, 128, 64});
    // Same column/rank, consecutive rows: banks must differ.
    std::set<unsigned> banks;
    const std::uint64_t row_stride = 64ull * 128 * 16; // one row step
    for (int r = 0; r < 16; ++r)
        banks.insert(map.decode(r * row_stride).bank);
    EXPECT_GT(banks.size(), 8u);
}

// --------------------------------------------------------------------
// Controller
// --------------------------------------------------------------------

ControllerConfig
specConfig()
{
    ControllerConfig config;
    config.readModeTiming =
        DramTiming::fromSetting(MemorySetting::manufacturerSpec());
    config.writeModeTiming = config.readModeTiming;
    return config;
}

/** Logs reads in delivery order; `then` (if set) runs after each. */
struct ReadLog : ReadCompletionSink
{
    std::vector<std::pair<std::uint64_t, Tick>> delivered;
    std::function<void(Tick)> then;

    void
    readComplete(std::uint64_t address, Tick when) override
    {
        delivered.emplace_back(address, when);
        if (then)
            then(when);
    }
};

MemRequest
readOf(std::uint64_t address)
{
    MemRequest request;
    request.address = address;
    return request;
}

TEST(Controller, SingleReadCompletesWithSensibleLatency)
{
    sim::EventQueue events;
    ReadLog log;
    MemoryController controller(events, specConfig(), &log);
    controller.enqueueRead(readOf(0x4000));
    events.run();
    ASSERT_EQ(log.delivered.size(), 1u);
    EXPECT_EQ(log.delivered[0].first, 0x4000u);
    // Closed-bank read: ~tRCD + tCAS + tBURST = 30 ns.
    const Tick done = log.delivered[0].second;
    EXPECT_GE(done, util::nsToTicks(25.0));
    EXPECT_LE(done, util::nsToTicks(60.0));
    EXPECT_EQ(controller.stats().reads, 1u);
}

TEST(Controller, RowHitsFasterThanConflicts)
{
    // Stream of same-row reads vs same-bank different-row reads.
    auto run = [](bool same_row) {
        sim::EventQueue events;
        ReadLog log;
        MemoryController controller(events, specConfig(), &log);
        const std::uint64_t row_stride = 64ull * 128 * 16 * 4;
        for (int i = 0; i < 64; ++i) {
            // XOR fold: use stride 17 rows to stay in one bank.
            controller.enqueueRead(
                readOf(same_row ? 0x10000 + 64ull * i
                                : 0x10000 + row_stride * 17 * i));
        }
        events.run();
        return log.delivered.back().second;
    };
    EXPECT_LT(run(true), run(false));
}

TEST(Controller, ReadsCompleteInMonotoneBusOrder)
{
    // The data bus serializes bursts, so reads are delivered in bus
    // order, each at least one burst after the one before: checked as
    // delivered, not sorted.  Legs: plain, with error recovery moving
    // the bus-free time, and across a write-mode round trip that
    // latches faster read timing (a shorter tBURST).
    enum class Leg { kPlain, kErrors, kFasterAfterWriteMode };
    for (const Leg leg : {Leg::kPlain, Leg::kErrors,
                          Leg::kFasterAfterWriteMode}) {
        auto config = specConfig();
        if (leg == Leg::kErrors) {
            config.readErrorProbability = 0.2;
            config.errorRecoveryLatency = util::usToTicks(2.2);
        }
        sim::EventQueue events;
        ReadLog log;
        MemoryController controller(events, config, &log);
        util::Rng rng(5);
        std::vector<std::uint64_t> sent;
        const auto send = [&](int reads) {
            for (int i = 0; i < reads; ++i) {
                sent.push_back((rng.next() % (1ull << 28)) & ~63ull);
                controller.enqueueRead(readOf(sent.back()));
            }
        };
        send(100);
        Tick min_burst = config.readModeTiming.tBURST;
        if (leg == Leg::kFasterAfterWriteMode) {
            events.run();
            auto fast = config;
            fast.readModeTiming = DramTiming::fromSetting(
                MemorySetting::exploitFreqLatMargins());
            controller.reconfigure(fast);
            controller.requestWriteMode();
            min_burst = fast.readModeTiming.tBURST;
        }
        send(100);
        events.run();

        ASSERT_EQ(log.delivered.size(), sent.size());
        for (std::size_t i = 1; i < log.delivered.size(); ++i) {
            EXPECT_GE(log.delivered[i].second,
                      log.delivered[i - 1].second + min_burst)
                << "leg " << static_cast<int>(leg) << ", read " << i;
        }
        std::vector<std::uint64_t> got;
        for (const auto &[address, when] : log.delivered)
            got.push_back(address);
        std::sort(got.begin(), got.end());
        std::sort(sent.begin(), sent.end());
        EXPECT_EQ(got, sent); // every read delivered exactly once
        if (leg == Leg::kErrors) {
            EXPECT_GT(controller.stats().readErrors, 10u);
        }
        if (leg == Leg::kFasterAfterWriteMode) {
            EXPECT_EQ(controller.config().readModeTiming.tBURST,
                      min_burst);
            EXPECT_EQ(controller.stats().writeModeEntries, 1u);
        }
    }
}

TEST(Controller, WriteDrainEntersAndExitsWriteMode)
{
    sim::EventQueue events;
    auto config = specConfig();
    MemoryController controller(events, config);
    for (std::size_t i = 0; i < config.writeDrainHigh + 4; ++i) {
        MemRequest request;
        request.address = 0x2000 + 64 * i;
        controller.enqueueWrite(request);
    }
    events.run();
    EXPECT_GE(controller.stats().writeModeEntries, 1u);
    EXPECT_GT(controller.stats().writes, 0u);
    EXPECT_EQ(controller.mode(), ChannelMode::kRead);
}

TEST(Controller, BroadcastWriteTouchesAllTargets)
{
    sim::EventQueue events;
    auto config = specConfig();
    // Each home rank's copy sits in the other module: 0<->2, 1<->3.
    for (unsigned home = 0; home < 4; ++home)
        config.rankPolicy.writeMask[home] = (1u << home) | (1u << (home ^ 2));
    MemoryController controller(events, config);

    MemRequest request;
    request.address = 0x8000;
    controller.enqueueWrite(request);
    controller.requestWriteMode();
    events.run();
    EXPECT_EQ(controller.stats().writes, 1u);      // one bus transfer
    EXPECT_EQ(controller.stats().writeRankOps, 2u); // two ranks updated
}

TEST(Controller, RefreshesHappenAtTrefiRate)
{
    sim::EventQueue events;
    ReadLog log;
    MemoryController controller(events, specConfig(), &log);
    // Keep the channel alive for ~1 ms of simulated time.
    log.then = [&](Tick) {
        if (events.curTick() < util::kTicksPerMs)
            controller.enqueueRead(readOf(0x1000));
    };
    controller.enqueueRead(readOf(0x1000));
    events.run();
    // 4 ranks x (1 ms / 7.8 us) ~= 512 refreshes.
    EXPECT_NEAR(static_cast<double>(controller.stats().refreshes),
                512.0, 96.0);
}

TEST(Controller, SelfRefreshRanksAreNotRefreshed)
{
    sim::EventQueue events;
    auto config = specConfig();
    config.selfRefreshRankMask = 0b0011;
    // Route every read to the awake ranks.
    for (unsigned home = 0; home < 4; ++home)
        config.rankPolicy.readMask[home] = 1u << (2 + (home & 1));
    ReadLog log;
    MemoryController controller(events, config, &log);
    log.then = [&](Tick) {
        if (events.curTick() < util::kTicksPerMs)
            controller.enqueueRead(readOf(0x1000));
    };
    controller.enqueueRead(readOf(0x1000));
    events.run();
    controller.finalizeStats(); // close time-integrated counters
    // Only the two awake ranks refresh: about half the refreshes.
    EXPECT_NEAR(static_cast<double>(controller.stats().refreshes),
                256.0, 64.0);
    EXPECT_GT(controller.stats().selfRefreshRankTicks, 0u);
}

TEST(Controller, ErrorInjectionCountsAndRecovers)
{
    sim::EventQueue events;
    auto config = specConfig();
    config.readErrorProbability = 0.5;
    config.errorRecoveryLatency = util::usToTicks(2.2);
    MemoryController controller(events, config);
    unsigned errors_seen = 0;
    ControllerHooks hooks;
    hooks.onReadError = [&] { ++errors_seen; };
    controller.setHooks(std::move(hooks));

    for (int i = 0; i < 100; ++i)
        controller.enqueueRead(readOf(0x100000 + 64 * i));
    events.run();
    EXPECT_EQ(controller.stats().readErrors, errors_seen);
    EXPECT_NEAR(static_cast<double>(errors_seen), 50.0, 25.0);
    // Recoveries serialize the channel: ~errors x 2.2 us of run time.
    EXPECT_GE(events.curTick(),
              errors_seen * util::usToTicks(2.0));
}

TEST(Controller, ReconfigureAppliesAtTransition)
{
    sim::EventQueue events;
    auto config = specConfig();
    MemoryController controller(events, config);

    auto fast = config;
    fast.readModeTiming = DramTiming::fromSetting(
        MemorySetting::exploitFreqLatMargins());
    controller.reconfigure(fast);

    // Trigger a write-mode round trip to latch the new timing.
    for (int i = 0; i < 8; ++i) {
        MemRequest request;
        request.address = 0x3000 + 64 * i;
        controller.enqueueWrite(request);
    }
    controller.requestWriteMode();
    events.run();
    EXPECT_EQ(controller.config().readModeTiming.dataRateMts, 4000u);
}

} // namespace
