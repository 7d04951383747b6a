/**
 * @file
 * Cross-module property sweeps (parameterized gtest): Reed-Solomon
 * geometry invariants, DRAM data-rate monotonicity, workload stream
 * invariants for every catalog benchmark, and Monte-Carlo scaling
 * laws.
 */

#include <gtest/gtest.h>

#include <functional>
#include <tuple>

#include "dram/controller.hh"
#include "ecc/reed_solomon.hh"
#include "margin/monte_carlo.hh"
#include "rs_reference.hh"
#include "util/rng.hh"
#include "workloads/hpc_workloads.hh"

namespace
{

using namespace hdmr;

// --------------------------------------------------------------------
// Reed-Solomon geometry sweep
// --------------------------------------------------------------------

class RsGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(RsGeometry, RoundTripAndCorrectionCapability)
{
    // Parity, and the syndromes of each corrupted word, must also equal
    // the per-multiply reference's (rs_reference.hh).
    const auto [k, parity] = GetParam();
    const auto two_t = static_cast<std::size_t>(parity);
    ecc::ReedSolomon rs(static_cast<std::size_t>(k), two_t);
    EXPECT_EQ(rs.correctionCapability(), two_t / 2);

    util::Rng rng(static_cast<std::uint64_t>(k * 131 + parity));
    for (int trial = 0; trial < 25; ++trial) {
        std::vector<ecc::GfElem> message(k);
        for (auto &symbol : message)
            symbol = static_cast<ecc::GfElem>(rng.uniformInt(0, 255));
        auto codeword = message;
        const auto p = rs.encode(message);
        ASSERT_EQ(p, test::referenceEncode(message, two_t));
        codeword.insert(codeword.end(), p.begin(), p.end());
        EXPECT_FALSE(rs.detect(codeword));

        // Corrupt exactly t distinct symbols: must correct.
        auto bad = codeword;
        const std::size_t t = rs.correctionCapability();
        for (std::size_t e = 0; e < t; ++e) {
            std::size_t pos;
            do {
                pos = rng.uniformInt(0, bad.size() - 1);
            } while (bad[pos] != codeword[pos]);
            bad[pos] ^= static_cast<ecc::GfElem>(
                rng.uniformInt(1, 255));
        }
        EXPECT_EQ(rs.syndromes(bad), test::referenceSyndromes(bad, two_t));
        const auto result = rs.correct(bad);
        EXPECT_EQ(result.status, ecc::DecodeStatus::kCorrected);
        EXPECT_EQ(bad, codeword);
    }
}

// Bamboo's RS(80,72) is the (72, 8) case: 64 data and 8 folded-address
// symbols under 8 parity symbols.  The codec works in lanes of eight
// symbols: (30, 2) runs six zero generator rows and a syndrome pass that
// is mostly padding; (100, 12) a partial second syndrome pass and a
// four-symbol encoder tail past the eight-symbol head.
INSTANTIATE_TEST_SUITE_P(
    Geometries, RsGeometry,
    ::testing::Values(std::make_tuple(16, 4), std::make_tuple(32, 8),
                      std::make_tuple(64, 8),
                      std::make_tuple(128, 16),
                      std::make_tuple(200, 32),
                      std::make_tuple(72, 8),
                      std::make_tuple(30, 2),
                      std::make_tuple(100, 12)));

// --------------------------------------------------------------------
// DRAM data-rate sweep
// --------------------------------------------------------------------

class DataRateSweep : public ::testing::TestWithParam<unsigned>
{
  protected:
    /** Time to stream `n` random reads at the given data rate. */
    static util::Tick
    drain(unsigned rate_mts, int n)
    {
        sim::EventQueue events;
        dram::ControllerConfig config;
        config.readModeTiming = dram::DramTiming::fromSetting(
            dram::MemorySetting::manufacturerSpec(rate_mts));
        config.writeModeTiming = config.readModeTiming;
        struct : dram::ReadCompletionSink
        {
            std::function<void(util::Tick)> then;

            void
            readComplete(std::uint64_t, util::Tick when) override
            {
                then(when);
            }
        } completions;
        dram::MemoryController controller(events, config, &completions);
        util::Rng rng(7);
        int outstanding = 0, sent = 0;
        util::Tick last = 0;
        std::function<void()> pump = [&] {
            while (outstanding < 48 && sent < n &&
                   !controller.readQueueFull()) {
                dram::MemRequest request;
                request.address =
                    (rng.next() % (1ull << 28)) & ~63ull;
                request.arrival = events.curTick();
                controller.enqueueRead(request);
                ++outstanding;
                ++sent;
            }
        };
        completions.then = [&](util::Tick t) {
            --outstanding;
            last = std::max(last, t);
            pump();
        };
        pump();
        events.run();
        return last;
    }
};

TEST_P(DataRateSweep, TimingDerivesConsistently)
{
    const unsigned rate = GetParam();
    const auto timing = dram::DramTiming::fromSetting(
        dram::MemorySetting::manufacturerSpec(rate));
    EXPECT_EQ(timing.tCK, util::dataRateToTck(rate));
    EXPECT_EQ(timing.tBURST, 4 * timing.tCK);
    EXPECT_EQ(timing.tCCD, timing.tBURST);
}

TEST_P(DataRateSweep, ThroughputNeverDropsWithRate)
{
    const unsigned rate = GetParam();
    if (rate <= 2400)
        GTEST_SKIP() << "baseline of the comparison";
    const auto slower = drain(rate - 400, 5000);
    const auto faster = drain(rate, 5000);
    EXPECT_LE(faster, slower + slower / 20); // within 5 % monotone
}

INSTANTIATE_TEST_SUITE_P(Rates, DataRateSweep,
                         ::testing::Values(2400u, 2800u, 3200u, 3600u,
                                           4000u));

// --------------------------------------------------------------------
// Workload catalog sweep
// --------------------------------------------------------------------

class WorkloadSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(WorkloadSweep, StreamInvariants)
{
    const auto &params = wl::benchmarkCatalog()[GetParam()];
    const unsigned rank = 2;
    const std::uint64_t ops = 8000;
    wl::SyntheticHpcStream stream(params, rank, ops, 5);

    const std::uint64_t base = (static_cast<std::uint64_t>(rank) + 1)
                               << 34;
    const std::uint64_t span = 4ull << 34; // generous region bound

    wl::Op op;
    std::uint64_t mem_ops = 0, stores = 0;
    double compute = 0.0;
    while (stream.next(op)) {
        switch (op.kind) {
          case wl::Op::Kind::kLoad:
          case wl::Op::Kind::kStore:
            ++mem_ops;
            stores += op.kind == wl::Op::Kind::kStore;
            EXPECT_GE(op.address, base);
            EXPECT_LT(op.address, base + span);
            break;
          case wl::Op::Kind::kCompute:
            compute += op.count;
            break;
          case wl::Op::Kind::kComm:
            EXPECT_GT(op.duration, 0u);
            break;
        }
    }
    EXPECT_EQ(mem_ops, ops);
    EXPECT_NEAR(static_cast<double>(stores) / ops,
                params.writeFraction, 0.03);
    EXPECT_NEAR(compute / static_cast<double>(mem_ops),
                params.computePerMemOp, params.computePerMemOp * 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, WorkloadSweep,
    ::testing::Range<std::size_t>(0, 14));

// --------------------------------------------------------------------
// Monte-Carlo scaling laws
// --------------------------------------------------------------------

class ChannelsPerNodeSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ChannelsPerNodeSweep, MoreChannelsLowerNodeMargin)
{
    // The node margin is a minimum over channels: adding channels can
    // only shrink the fraction of nodes at the top margin.
    margin::MonteCarloConfig fewer, more;
    fewer.trials = more.trials = 30000;
    fewer.channelsPerNode = GetParam();
    more.channelsPerNode = GetParam() * 2;
    const auto f = margin::nodeMarginDistribution(fewer, 3);
    const auto m = margin::nodeMarginDistribution(more, 3);
    EXPECT_GE(f.fractionAtLeast(800) + 0.01, m.fractionAtLeast(800));
}

INSTANTIATE_TEST_SUITE_P(Channels, ChannelsPerNodeSweep,
                         ::testing::Values(1u, 2u, 4u, 6u));

} // namespace
