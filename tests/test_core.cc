/**
 * @file
 * Tests for the Hetero-DMR core library: epoch guard budget math,
 * replication planning (usage fallbacks, rank policies, margin-aware
 * selection), and the mode controller's write path, self-refresh
 * parking, cleaning, and epoch fallback behaviour.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/epoch_guard.hh"
#include "core/mode_controller.hh"
#include "core/replication.hh"
#include "dram/controller.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace hdmr;
using namespace hdmr::core;
using util::Tick;

// --------------------------------------------------------------------
// Epoch guard
// --------------------------------------------------------------------

TEST(EpochGuard, ThresholdMatchesPaperArithmetic)
{
    EpochGuardConfig config;
    // 2^64 / (1e9 years in hours) ~= 2.1e6 per hour.
    EXPECT_NEAR(static_cast<double>(config.errorThreshold()), 2.1e6,
                0.2e6);
}

TEST(EpochGuard, TripsOnlyPastThreshold)
{
    EpochGuardConfig config;
    config.mttSdcYears = 1.0e9;
    EpochGuard guard(config);
    const std::uint64_t threshold = config.errorThreshold();
    bool tripped = false;
    for (std::uint64_t i = 0; i <= threshold && !tripped; ++i)
        tripped = guard.recordError(1000);
    EXPECT_TRUE(tripped);
    EXPECT_EQ(guard.trips(), 1u);
    EXPECT_TRUE(guard.tripped(1000));
}

TEST(EpochGuard, ResetsAtEpochBoundary)
{
    EpochGuardConfig config;
    config.epochLength = 1000;
    config.mttSdcYears = 1.0e18; // tiny threshold
    EpochGuard guard(config);
    while (!guard.recordError(10)) {
    }
    EXPECT_TRUE(guard.tripped(10));
    EXPECT_FALSE(guard.tripped(1500)); // next epoch
    EXPECT_EQ(guard.errorsThisEpoch(), 0u);
    EXPECT_EQ(guard.epochEnd(1500), 2000u);
}

TEST(EpochGuard, MultiEpochRolloverAndTripClearing)
{
    EpochGuardConfig config;
    config.epochLength = util::kTicksPerSec; // 1-second epochs
    config.mttSdcYears = 5.8e10;             // ~10-error budget/epoch
    EpochGuard guard(config);
    const std::uint64_t threshold = config.errorThreshold();
    ASSERT_GE(threshold, 2u);
    ASSERT_LE(threshold, 1000u);

    // Stay at the threshold in epoch 0: no trip.
    for (std::uint64_t i = 0; i < threshold; ++i)
        EXPECT_FALSE(guard.recordError(0));
    EXPECT_FALSE(guard.tripped(0));

    // Rollover resets the count: the same sub-threshold volume in the
    // next epoch does not trip either.
    for (std::uint64_t i = 0; i < threshold; ++i)
        EXPECT_FALSE(guard.recordError(config.epochLength + 1));
    EXPECT_EQ(guard.errorsThisEpoch(), threshold);
    EXPECT_EQ(guard.totalErrors(), 2 * threshold);

    // One more error in the same epoch trips; the trip clears at the
    // next boundary.
    EXPECT_TRUE(guard.recordError(config.epochLength + 2));
    EXPECT_TRUE(guard.tripped(config.epochLength + 2));
    EXPECT_FALSE(guard.tripped(2 * config.epochLength + 1));
    EXPECT_EQ(guard.trips(), 1u);
}

TEST(EpochGuard, BoundaryErrorCountsTowardExactlyOneEpoch)
{
    // Regression pin for the boundary accounting: an error arriving at
    // exactly tick k*epochLength belongs to epoch k (the half-open
    // epoch [k*L, (k+1)*L)), never to epoch k-1, and never to both.
    EpochGuardConfig config;
    config.mttSdcYears = 4.0e14; // budget of a handful of errors/epoch
    EpochGuard guard(config);
    const util::Tick length = config.epochLength;
    const std::uint64_t threshold = config.errorThreshold();
    ASSERT_GE(threshold, 1u);
    ASSERT_LE(threshold, 100u);

    // Fill epoch 0 right up to its last tick.
    for (std::uint64_t i = 0; i < threshold + 1; ++i)
        guard.recordError(length - 1);
    EXPECT_TRUE(guard.tripped(length - 1));
    const std::uint64_t epoch0_errors = guard.errorsThisEpoch();

    // The boundary tick starts epoch 1: the per-epoch count restarts
    // at exactly 1 and the epoch-0 trip no longer applies.
    guard.recordError(length);
    EXPECT_EQ(guard.errorsThisEpoch(), 1u);
    EXPECT_EQ(guard.totalErrors(), epoch0_errors + 1);
    EXPECT_FALSE(guard.tripped(length));

    // And the epoch the boundary tick opens ends one full length on.
    EXPECT_EQ(guard.epochEnd(length), 2 * length);
    EXPECT_EQ(guard.epochEnd(length - 1), length);
}

TEST(EpochGuard, ThresholdScalesWithEpochLength)
{
    // The MTT-SDC target is global, so a half-hour epoch gets half the
    // hourly error budget and a two-hour epoch twice.
    EpochGuardConfig hourly;
    EpochGuardConfig half = hourly;
    half.epochLength = 1800ull * util::kTicksPerSec;
    EpochGuardConfig two_hour = hourly;
    two_hour.epochLength = 2ull * 3600ull * util::kTicksPerSec;

    EXPECT_NEAR(static_cast<double>(half.errorThreshold()),
                static_cast<double>(hourly.errorThreshold()) / 2.0,
                1.0);
    EXPECT_NEAR(static_cast<double>(two_hour.errorThreshold()),
                static_cast<double>(hourly.errorThreshold()) * 2.0,
                2.0);
}

// --------------------------------------------------------------------
// Replication planning
// --------------------------------------------------------------------

TEST(Replication, UsageFallbacks)
{
    using RM = ReplicationManager;
    EXPECT_EQ(RM::effectiveMode(ReplicationMode::kHeteroDmr,
                                MemoryUsage::kUnder25),
              ReplicationMode::kHeteroDmr);
    EXPECT_EQ(RM::effectiveMode(ReplicationMode::kHeteroDmr,
                                MemoryUsage::kOver50),
              ReplicationMode::kNone);
    EXPECT_EQ(RM::effectiveMode(ReplicationMode::kHeteroDmrFmr,
                                MemoryUsage::kUnder25),
              ReplicationMode::kHeteroDmrFmr);
    // "+FMR regresses to Hetero-DMR alone" between 25 and 50 %.
    EXPECT_EQ(RM::effectiveMode(ReplicationMode::kHeteroDmrFmr,
                                MemoryUsage::kUnder50),
              ReplicationMode::kHeteroDmr);
    EXPECT_EQ(RM::effectiveMode(ReplicationMode::kFmr,
                                MemoryUsage::kOver50),
              ReplicationMode::kNone);
}

TEST(Replication, HeteroDmrPlan)
{
    const auto plan =
        ReplicationManager::planChannel(ReplicationMode::kHeteroDmr);
    EXPECT_TRUE(plan.fastReads);
    EXPECT_EQ(plan.addressRanks, 2u);
    EXPECT_EQ(plan.selfRefreshMask, 0b0011u);
    // Reads go ONLY to the Free Module (ranks 2-3).
    EXPECT_EQ(plan.rankPolicy.readMask[0], 0b0100u);
    EXPECT_EQ(plan.rankPolicy.readMask[1], 0b1000u);
    // Writes broadcast to original + copy.
    EXPECT_EQ(plan.rankPolicy.writeMask[0], 0b0101u);
    EXPECT_EQ(plan.rankPolicy.writeMask[1], 0b1010u);
}

TEST(Replication, HeteroDmrFmrPlanHasTwoCopies)
{
    const auto plan =
        ReplicationManager::planChannel(ReplicationMode::kHeteroDmrFmr);
    EXPECT_EQ(plan.addressRanks, 1u);
    EXPECT_EQ(plan.rankPolicy.readMask[0], 0b1100u); // either copy
    // Original + both copies.
    EXPECT_EQ(plan.rankPolicy.writeMask[0], 0b1101u);
}

TEST(Replication, FmrPlanReadsEitherCopy)
{
    const auto plan =
        ReplicationManager::planChannel(ReplicationMode::kFmr);
    EXPECT_FALSE(plan.fastReads);
    EXPECT_EQ(plan.selfRefreshMask, 0u);
    EXPECT_EQ(plan.rankPolicy.readMask[1], 0b1010u);
    EXPECT_EQ(plan.rankPolicy.writeMask[1], 0b1010u);
}

TEST(Replication, MarginAwareSelection)
{
    EXPECT_EQ(ReplicationManager::channelMargin({600, 1000}), 1000u);
    EXPECT_EQ(ReplicationManager::nodeMargin({800, 600, 1000}), 600u);
}

// --------------------------------------------------------------------
// Mode controller
// --------------------------------------------------------------------

ModeControllerConfig
hdmrConfig()
{
    ModeControllerConfig config;
    config.specSetting = dram::MemorySetting::manufacturerSpec();
    config.fastSetting = dram::MemorySetting::exploitFreqLatMargins();
    config.plan =
        ReplicationManager::planChannel(ReplicationMode::kHeteroDmr);
    return config;
}

TEST(ModeController, BuildsHeterogeneousTiming)
{
    const auto cc =
        ModeController::buildControllerConfig(hdmrConfig(), 1);
    EXPECT_EQ(cc.readModeTiming.dataRateMts, 4000u);
    EXPECT_EQ(cc.writeModeTiming.dataRateMts, 3200u);
    EXPECT_EQ(cc.enterWriteModeLatency, util::usToTicks(1.0));
    EXPECT_EQ(cc.selfRefreshRankMask, 0b0011u);
    EXPECT_EQ(cc.rankPolicy.readMask[1], 0b1000u); // the plan's table
    EXPECT_EQ(cc.writeDrainLow, 0u); // drain the whole batch
}

TEST(ModeController, BaselineUsesBusTurnaround)
{
    auto config = hdmrConfig();
    config.plan = ReplicationManager::planChannel(ReplicationMode::kNone);
    config.fastSetting = config.specSetting;
    const auto cc = ModeController::buildControllerConfig(config, 1);
    EXPECT_EQ(cc.enterWriteModeLatency, config.busTurnaround);
    EXPECT_EQ(cc.readModeTiming.dataRateMts, 3200u);
    EXPECT_EQ(cc.readErrorProbability, 0.0);
}

TEST(ModeController, EvictionsDrainThroughWriteMode)
{
    sim::EventQueue events;
    auto mc_config = hdmrConfig();
    auto cc = ModeController::buildControllerConfig(mc_config, 1);
    dram::MemoryController controller(events, cc);
    ModeController mode(events, controller, nullptr,
                        [](std::uint64_t) { return true; }, mc_config);

    // Push enough dirty evictions to trip the 90 % victim-cache fill.
    for (std::uint64_t i = 0; i < 2000; ++i)
        mode.handleDirtyEviction(0x100000 + 64 * i);
    events.run();
    EXPECT_GE(controller.stats().writeModeEntries, 1u);
    EXPECT_GT(controller.stats().writes, 1500u);
    // Broadcast writes touched both the original and copy ranks.
    EXPECT_EQ(controller.stats().writeRankOps,
              2 * controller.stats().writes);
    EXPECT_EQ(controller.mode(), dram::ChannelMode::kRead);
    EXPECT_TRUE(mode.writebackCache().empty());
}

TEST(ModeController, CleansLlcDuringWriteMode)
{
    sim::EventQueue events;
    auto mc_config = hdmrConfig();
    mc_config.cleanLinesPerWriteMode = 500;
    auto cc = ModeController::buildControllerConfig(mc_config, 1);
    dram::MemoryController controller(events, cc);

    cache::CacheConfig llc_config;
    llc_config.sizeBytes = 1 << 20;
    llc_config.ways = 16;
    cache::Cache llc(llc_config);
    // Age a dirty population, then a young clean one on top.
    for (std::uint64_t i = 0; i < 4096; ++i)
        llc.access(i * 64, true);
    for (std::uint64_t i = 4096; i < 16384; ++i)
        llc.access(i * 64, false);

    ModeController mode(events, controller, &llc,
                        [](std::uint64_t) { return true; }, mc_config);
    for (std::uint64_t i = 0; i < 2000; ++i)
        mode.handleDirtyEviction(0x4000000 + 64 * i);
    events.run();
    EXPECT_GT(mode.stats().cleanedLines, 0u);
    EXPECT_LE(mode.stats().cleanedLines, 500u);
}

TEST(ModeController, EpochTripFallsBackToSpec)
{
    sim::EventQueue events;
    auto mc_config = hdmrConfig();
    mc_config.readErrorProbability = 1.0; // every fast read errors
    mc_config.epochConfig.mttSdcYears = 1.0e15; // tiny error budget
    mc_config.epochConfig.epochLength = 10 * util::kTicksPerMs;
    auto cc = ModeController::buildControllerConfig(mc_config, 1);
    dram::MemoryController controller(events, cc);
    ModeController mode(events, controller, nullptr,
                        [](std::uint64_t) { return true; }, mc_config);

    for (int i = 0; i < 64; ++i) {
        dram::MemRequest request;
        request.address = 0x100000 + 64 * i;
        controller.enqueueRead(std::move(request));
        events.run(5 * util::kTicksPerMs); // stay inside the epoch
    }
    EXPECT_FALSE(mode.fastOperationEnabled());
    EXPECT_GE(mode.stats().epochTrips, 1u);
    EXPECT_GE(mode.stats().corrections, 1u);

    // Replication and fast operation resume at the next epoch.
    events.run(30 * util::kTicksPerMs);
    EXPECT_TRUE(mode.fastOperationEnabled());
}

} // namespace
