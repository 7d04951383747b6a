/**
 * @file
 * Tests for the snapshot/resume layer: serializer byte layout and
 * bounds checking, snapshot-file rejection (truncated, corrupted,
 * wrong version/kind), RNG and epoch-guard state round-trips,
 * fault-schedule fingerprinting, digest-trail divergence detection,
 * mid-run save -> resume bit-identity for the cluster simulator, and
 * the construction-time config validation fatal()s.
 *
 * File-level rejection tests assert on util::Status codes: corruption
 * and truncation are kDataLoss, version/kind mismatches are
 * kFailedPrecondition, and a missing file is kNotFound - the contract
 * the Keeper fallback logic branches on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>

#include "core/epoch_guard.hh"
#include "fault/campaign.hh"
#include "sched/cluster_sim.hh"
#include "snapshot/digest.hh"
#include "snapshot/keeper.hh"
#include "snapshot/serializer.hh"
#include "traces/job_trace.hh"
#include "util/rng.hh"
#include "util/status.hh"

namespace
{

using namespace hdmr;
using namespace hdmr::snapshot;

// --------------------------------------------------------------------
// Serializer / Deserializer
// --------------------------------------------------------------------

TEST(Serializer, ScalarRoundTrip)
{
    Serializer out;
    out.writeU8(0xab);
    out.writeU16(0xbeef);
    out.writeU32(0xdeadbeefu);
    out.writeU64(0x0123456789abcdefull);
    out.writeI64(-42);
    out.writeBool(true);
    out.writeBool(false);
    out.writeDouble(-1.5e-300);
    out.writeString("hello");
    out.writeBlob({1, 2, 3});

    Deserializer in(out.data());
    EXPECT_EQ(in.readU8(), 0xab);
    EXPECT_EQ(in.readU16(), 0xbeef);
    EXPECT_EQ(in.readU32(), 0xdeadbeefu);
    EXPECT_EQ(in.readU64(), 0x0123456789abcdefull);
    EXPECT_EQ(in.readI64(), -42);
    EXPECT_TRUE(in.readBool());
    EXPECT_FALSE(in.readBool());
    EXPECT_EQ(in.readDouble(), -1.5e-300);
    EXPECT_EQ(in.readString(), "hello");
    EXPECT_EQ(in.readBlob(), (std::vector<std::uint8_t>{1, 2, 3}));
    EXPECT_TRUE(in.ok());
    EXPECT_EQ(in.remaining(), 0u);
}

TEST(Serializer, LittleEndianLayout)
{
    Serializer out;
    out.writeU32(0x01020304u);
    ASSERT_EQ(out.data().size(), 4u);
    EXPECT_EQ(out.data()[0], 0x04);
    EXPECT_EQ(out.data()[1], 0x03);
    EXPECT_EQ(out.data()[2], 0x02);
    EXPECT_EQ(out.data()[3], 0x01);

    Serializer dbl;
    dbl.writeDouble(1.0); // IEEE-754: 0x3ff0000000000000
    ASSERT_EQ(dbl.data().size(), 8u);
    EXPECT_EQ(dbl.data()[7], 0x3f);
    EXPECT_EQ(dbl.data()[6], 0xf0);
    EXPECT_EQ(dbl.data()[0], 0x00);
}

TEST(Serializer, TruncationLatchesError)
{
    Serializer out;
    out.writeU32(7);
    Deserializer in(out.data());
    EXPECT_EQ(in.readU64(), 0u); // underrun
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(in.readU32(), 0u); // latched: everything reads zero
    EXPECT_NE(in.error().find("truncated"), std::string::npos);
}

TEST(Serializer, BoolRejectsCorruptEncoding)
{
    const std::uint8_t byte = 2;
    Deserializer in(&byte, 1);
    in.readBool();
    EXPECT_FALSE(in.ok());
}

TEST(Serializer, StringRejectsLengthBeyondPayload)
{
    Serializer out;
    out.writeU32(1000); // claims 1000 bytes follow
    out.writeU8('x');
    Deserializer in(out.data());
    EXPECT_EQ(in.readString(), "");
    EXPECT_FALSE(in.ok());
}

// --------------------------------------------------------------------
// Snapshot files
// --------------------------------------------------------------------

class SnapshotFile : public ::testing::Test
{
  protected:
    // Per-test file name: ctest runs each case as its own process
    // (gtest_discover_tests), so concurrent cases sharing one path
    // would clobber each other's images.
    void
    SetUp() override
    {
        path_ = std::string("test_snapshot_file_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".snap";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::vector<std::uint8_t>
    fileBytes() const
    {
        std::ifstream file(path_, std::ios::binary);
        return std::vector<std::uint8_t>(
            std::istreambuf_iterator<char>(file),
            std::istreambuf_iterator<char>());
    }

    void
    writeBytes(const std::vector<std::uint8_t> &bytes) const
    {
        std::ofstream file(path_, std::ios::binary | std::ios::trunc);
        file.write(reinterpret_cast<const char *>(bytes.data()),
                   static_cast<std::streamsize>(bytes.size()));
    }

    std::string path_;
    std::vector<std::uint8_t> payload_ = {10, 20, 30, 40, 50};
};

TEST_F(SnapshotFile, RoundTrip)
{
    const util::Status wrote =
        writeSnapshotFile(path_, kClusterStateKind, payload_);
    ASSERT_TRUE(wrote.ok()) << wrote.message();
    std::vector<std::uint8_t> loaded;
    const util::Status read =
        readSnapshotFile(path_, kClusterStateKind, &loaded);
    ASSERT_TRUE(read.ok()) << read.message();
    EXPECT_EQ(loaded, payload_);
}

TEST_F(SnapshotFile, RejectsTruncatedImage)
{
    ASSERT_TRUE(
        writeSnapshotFile(path_, kClusterStateKind, payload_).ok());
    auto bytes = fileBytes();
    bytes.resize(bytes.size() - 3);
    writeBytes(bytes);

    std::vector<std::uint8_t> loaded;
    const util::Status status =
        readSnapshotFile(path_, kClusterStateKind, &loaded);
    EXPECT_EQ(status.code(), util::StatusCode::kDataLoss)
        << status.message();
    EXPECT_FALSE(status.message().empty());
}

TEST_F(SnapshotFile, RejectsCorruptedPayload)
{
    ASSERT_TRUE(
        writeSnapshotFile(path_, kClusterStateKind, payload_).ok());
    auto bytes = fileBytes();
    bytes[26] ^= 0x40; // inside the payload
    writeBytes(bytes);

    std::vector<std::uint8_t> loaded;
    const util::Status status =
        readSnapshotFile(path_, kClusterStateKind, &loaded);
    EXPECT_EQ(status.code(), util::StatusCode::kDataLoss)
        << status.message();
    EXPECT_NE(status.message().find("CRC"), std::string::npos)
        << status.message();
}

TEST_F(SnapshotFile, RejectsBadMagic)
{
    ASSERT_TRUE(
        writeSnapshotFile(path_, kClusterStateKind, payload_).ok());
    auto bytes = fileBytes();
    bytes[0] = 'X';
    writeBytes(bytes);

    std::vector<std::uint8_t> loaded;
    const util::Status status =
        readSnapshotFile(path_, kClusterStateKind, &loaded);
    EXPECT_EQ(status.code(), util::StatusCode::kDataLoss)
        << status.message();
    EXPECT_NE(status.message().find("magic"), std::string::npos)
        << status.message();
}

TEST_F(SnapshotFile, RejectsWrongFormatVersion)
{
    // Forge an otherwise-valid image (correct CRC) with version + 1:
    // the version check must fire before anything is interpreted.
    ASSERT_TRUE(
        writeSnapshotFile(path_, kClusterStateKind, payload_).ok());
    auto bytes = fileBytes();
    bytes[8] = static_cast<std::uint8_t>(kFormatVersion + 1);
    const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
    for (int i = 0; i < 4; ++i)
        bytes[bytes.size() - 4 + i] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    writeBytes(bytes);

    std::vector<std::uint8_t> loaded;
    const util::Status status =
        readSnapshotFile(path_, kClusterStateKind, &loaded);
    EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition)
        << status.message();
    EXPECT_NE(status.message().find("version"), std::string::npos)
        << status.message();
}

TEST_F(SnapshotFile, RejectsWrongPayloadKind)
{
    ASSERT_TRUE(
        writeSnapshotFile(path_, kSweepStateKind, payload_).ok());
    std::vector<std::uint8_t> loaded;
    const util::Status status =
        readSnapshotFile(path_, kClusterStateKind, &loaded);
    EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition)
        << status.message();
    EXPECT_FALSE(status.message().empty());
}

TEST_F(SnapshotFile, RejectsMissingFile)
{
    std::vector<std::uint8_t> loaded;
    const util::Status status =
        readSnapshotFile("no_such_file.snap", kClusterStateKind,
                         &loaded);
    EXPECT_EQ(status.code(), util::StatusCode::kNotFound)
        << status.message();
    EXPECT_FALSE(status.message().empty());
}

// --------------------------------------------------------------------
// RNG state round-trip
// --------------------------------------------------------------------

TEST(RngSnapshot, StateRoundTripReplaysBitIdentically)
{
    util::Rng rng(12345);
    for (int i = 0; i < 100; ++i)
        rng.next();
    rng.normal(); // buffer a spare normal (Marsaglia polar)

    const util::RngState saved = rng.state();
    std::vector<double> expected;
    for (int i = 0; i < 50; ++i) {
        expected.push_back(rng.uniform());
        expected.push_back(rng.normal());
        expected.push_back(
            static_cast<double>(rng.uniformInt(0, 1000)));
    }

    util::Rng replay(999); // different seed; state overrides it
    replay.setState(saved);
    for (std::size_t i = 0; i < expected.size(); i += 3) {
        EXPECT_EQ(replay.uniform(), expected[i]);
        EXPECT_EQ(replay.normal(), expected[i + 1]);
        EXPECT_EQ(static_cast<double>(replay.uniformInt(0, 1000)),
                  expected[i + 2]);
    }
}

// --------------------------------------------------------------------
// Epoch guard round-trip
// --------------------------------------------------------------------

TEST(EpochGuardSnapshot, RoundTrip)
{
    core::EpochGuardConfig config;
    config.mttSdcYears = 1.0; // small threshold => trips are reachable
    core::EpochGuard guard(config);
    const util::Tick hour = 3600ull * util::kTicksPerSec;
    for (int i = 0; i < 3000000; ++i)
        guard.recordError(hour / 2);

    Serializer out;
    guard.saveState(out);
    core::EpochGuard restored(config);
    Deserializer in(out.data());
    ASSERT_TRUE(restored.restoreState(in));
    EXPECT_EQ(restored.errorsThisEpoch(), guard.errorsThisEpoch());
    EXPECT_EQ(restored.totalErrors(), guard.totalErrors());
    EXPECT_EQ(restored.trips(), guard.trips());
    EXPECT_EQ(restored.tripped(hour / 2), guard.tripped(hour / 2));
}

TEST(EpochGuardSnapshot, RejectsDifferentConfiguration)
{
    core::EpochGuard guard;
    Serializer out;
    guard.saveState(out);

    core::EpochGuardConfig other;
    other.epochLength /= 2;
    core::EpochGuard restored(other);
    Deserializer in(out.data());
    EXPECT_FALSE(restored.restoreState(in));
    EXPECT_NE(in.error().find("epoch"), std::string::npos);
}

// --------------------------------------------------------------------
// Fault-schedule cursor
// --------------------------------------------------------------------

fault::CampaignConfig
smallCampaign(std::uint64_t seed)
{
    fault::CampaignConfig config;
    config.intensity = 1.0;
    config.seed = seed;
    config.horizonSeconds = 7 * 86400.0;
    config.targets = 64;
    config.nodeFailuresPerHour = 1.0e-2;
    config.demotionsPerHour = 1.0e-2;
    return config;
}

TEST(ScheduleCursor, SaveRestoreKeepsPosition)
{
    fault::ScheduleCursor cursor(
        fault::FaultCampaign(smallCampaign(1)).schedule());
    ASSERT_GT(cursor.size(), 4u);
    cursor.advance();
    cursor.advance();

    Serializer out;
    cursor.save(out);
    fault::ScheduleCursor restored(
        fault::FaultCampaign(smallCampaign(1)).schedule());
    Deserializer in(out.data());
    ASSERT_TRUE(restored.restore(in));
    EXPECT_EQ(restored.index(), 2u);
    EXPECT_EQ(restored.nextTimeSeconds(), cursor.nextTimeSeconds());
}

TEST(ScheduleCursor, RejectsDifferentCampaignRealization)
{
    fault::ScheduleCursor cursor(
        fault::FaultCampaign(smallCampaign(1)).schedule());
    Serializer out;
    cursor.save(out);

    fault::ScheduleCursor other(
        fault::FaultCampaign(smallCampaign(2)).schedule());
    Deserializer in(out.data());
    EXPECT_FALSE(other.restore(in));
    EXPECT_NE(in.error().find("campaign"), std::string::npos);
}

// --------------------------------------------------------------------
// Digest trail
// --------------------------------------------------------------------

TEST(DigestTrail, FirstDivergence)
{
    DigestTrail a;
    a.epochSeconds = 100.0;
    a.digests = {1, 2, 3, 4};
    DigestTrail b = a;
    EXPECT_EQ(DigestTrail::firstDivergence(a, b), std::nullopt);

    b.digests[2] = 99;
    EXPECT_EQ(DigestTrail::firstDivergence(a, b),
              std::optional<std::size_t>(2));

    b = a;
    b.digests.pop_back(); // strict prefix: diverges at its length
    EXPECT_EQ(DigestTrail::firstDivergence(a, b),
              std::optional<std::size_t>(3));

    b = a;
    b.epochSeconds = 50.0; // cadence mismatch: nothing comparable
    EXPECT_EQ(DigestTrail::firstDivergence(a, b),
              std::optional<std::size_t>(0));
}

// --------------------------------------------------------------------
// Cluster simulator: save -> resume bit-identity
// --------------------------------------------------------------------

std::vector<traces::Job>
testTrace()
{
    traces::JobTraceModel model;
    model.numJobs = 2000;
    model.systemNodes = 192;
    model.spanSeconds = 10 * 86400.0;
    return traces::GrizzlyTraceGenerator(model, 11).generate();
}

sched::ClusterConfig
testConfig()
{
    sched::ClusterConfig config;
    config.nodes = 192;
    config.heteroDmr = true;
    config.marginAware = true;
    return config;
}

/**
 * Run straight through and via a mid-run save -> restore -> resume,
 * then require bit-identical metrics and digest trails.
 */
void
expectResumeBitIdentical(const sched::ClusterConfig &config,
                         const std::vector<traces::Job> &jobs,
                         double stop_after_seconds)
{
    sched::RunOptions options;
    options.digestEverySeconds = 6 * 3600.0;

    sched::ClusterSimulator straight(config);
    const sched::RunOutcome full = straight.run(jobs, options);
    ASSERT_TRUE(full.completed);
    ASSERT_GT(full.digests.digests.size(), 2u);

    std::vector<std::uint8_t> state;
    sched::RunOptions stopping = options;
    stopping.stopAfterSeconds = stop_after_seconds;
    stopping.snapshotSink =
        [&](const std::vector<std::uint8_t> &bytes) { state = bytes; };
    sched::ClusterSimulator interrupted(config);
    const sched::RunOutcome partial = interrupted.run(jobs, stopping);
    ASSERT_FALSE(partial.completed);
    ASSERT_FALSE(state.empty());

    sched::ClusterSimulator resumed(config);
    const util::Status restored = resumed.restoreState(state, jobs);
    ASSERT_TRUE(restored.ok()) << restored.message();
    const sched::RunOutcome rest = resumed.resume(options);
    ASSERT_TRUE(rest.completed);

    EXPECT_TRUE(sched::metricsIdentical(full.metrics, rest.metrics));
    const auto divergence =
        DigestTrail::firstDivergence(full.digests, rest.digests);
    EXPECT_EQ(divergence, std::nullopt)
        << "replay diverged at digest epoch " << *divergence;
    EXPECT_EQ(full.digests.digests.size(), rest.digests.digests.size());
}

TEST(ClusterSnapshot, ResumeMatchesStraightThroughFaultFree)
{
    expectResumeBitIdentical(testConfig(), testTrace(), 4 * 86400.0);
}

/**
 * Margin-unaware allocation consumes RNG draws and the fault campaign
 * exercises the schedule cursor, requeues, and checkpointing - the
 * full stochastic surface.
 */
sched::ClusterConfig
faultedConfig()
{
    sched::ClusterConfig config = testConfig();
    config.marginAware = false;
    config.faults.intensity = 4.0;
    config.faults.uncorrectablePerHour = 2.0e-4;
    config.faults.nodeFailuresPerHour = 2.0e-5;
    config.faults.demotionsPerHour = 1.0e-4;
    config.faults.horizonSeconds = 10 * 86400.0;
    config.resilience.checkpointIntervalSeconds = 1800.0;
    config.resilience.checkpointOverheadFraction = 0.02;
    return config;
}

TEST(ClusterSnapshot, ResumeMatchesStraightThroughWithFaults)
{
    expectResumeBitIdentical(faultedConfig(), testTrace(), 5 * 86400.0);
}

TEST(ClusterSnapshot, SaveRestoreSaveIsByteIdentical)
{
    // By day 5 about a thousand attempts have come and gone through
    // the running set, and killed ones through the resubmit queue.  A
    // restored simulator rebuilds both from the image; resuming with
    // the same stop time stops again at once, and its image must not
    // depend on how the containers were built.
    const auto jobs = testTrace();
    std::vector<std::vector<std::uint8_t>> images;
    sched::RunOptions options;
    options.digestEverySeconds = 6 * 3600.0;
    options.stopAfterSeconds = 5 * 86400.0;
    options.snapshotSink =
        [&](const std::vector<std::uint8_t> &bytes) {
            images.push_back(bytes);
        };

    sched::ClusterSimulator first(faultedConfig());
    const sched::RunOutcome partial = first.run(jobs, options);
    ASSERT_FALSE(partial.completed);
    EXPECT_GT(partial.metrics.jobsCompleted, 900u);
    EXPECT_GT(partial.metrics.requeues, 0u);
    ASSERT_EQ(images.size(), 1u);

    sched::ClusterSimulator second(faultedConfig());
    const util::Status restored = second.restoreState(images[0], jobs);
    ASSERT_TRUE(restored.ok()) << restored.message();
    const sched::RunOutcome again = second.resume(options);
    ASSERT_FALSE(again.completed);
    EXPECT_EQ(again.eventsProcessed, partial.eventsProcessed);
    ASSERT_EQ(images.size(), 2u);
    EXPECT_EQ(images[1], images[0]);
}

TEST(ClusterSnapshot, RejectsOutOfOrderRunningJobsAndResubmits)
{
    // Running jobs are kept ordered by start seq and by estimated end
    // time, resubmits by (time, seq), so an image with a repeated seq,
    // a NaN estimate or swapped resubmits has no in-memory form:
    // restore must refuse it, not drop or reorder entries.  The
    // running list follows a fixed 401-byte prefix (fingerprints,
    // capacity, RNG, counters, fault cursor, accumulators, metrics).
    // Then come 45-byte running records (seq, job index, end time,
    // estimate, ...), 16-byte pending entries and 20-byte resubmits,
    // each list after its u64 count.
    constexpr std::size_t kList = 401;
    constexpr std::size_t kRunning = 45;
    constexpr std::size_t kEstimate = 8 + 4 + 8;
    constexpr std::size_t kPending = 16;
    constexpr std::size_t kResubmit = 20;
    const auto count_at = [](const std::vector<std::uint8_t> &image,
                             std::size_t offset) {
        Deserializer in(image.data() + offset, 8);
        return static_cast<std::size_t>(in.readU64());
    };

    // Hourly images of a run whose frequent UE kills keep several
    // requeued jobs waiting at once.
    sched::ClusterConfig config = faultedConfig();
    config.faults.uncorrectablePerHour = 1.0e-2;
    const auto jobs = testTrace();
    std::vector<std::vector<std::uint8_t>> images;
    sched::RunOptions options;
    options.snapshotEverySeconds = 3600.0;
    options.snapshotSink =
        [&](const std::vector<std::uint8_t> &bytes) {
            images.push_back(bytes);
        };
    ASSERT_TRUE(sched::ClusterSimulator(config).run(jobs, options)
                    .completed);

    const auto expect_rejected = [&](const std::vector<std::uint8_t> &bad,
                                     const char *reason) {
        sched::ClusterSimulator resumed(config);
        const util::Status status = resumed.restoreState(bad, jobs);
        EXPECT_EQ(status.code(), util::StatusCode::kDataLoss)
            << status.message();
        EXPECT_NE(status.message().find(reason), std::string::npos)
            << status.message();
    };

    bool swapped_resubmits = false;
    for (const std::vector<std::uint8_t> &image : images) {
        const std::size_t running = count_at(image, kList);
        ASSERT_LE(running, config.nodes);
        const std::size_t pending_at = kList + 8 + running * kRunning;
        const std::size_t resubmits_at =
            pending_at + 8 + count_at(image, pending_at) * kPending;
        ASSERT_LT(resubmits_at, image.size());
        if (running < 2 || count_at(image, resubmits_at) < 2)
            continue;

        std::vector<std::uint8_t> repeated = image;
        std::copy_n(image.begin() + kList + 8, 8,
                    repeated.begin() + kList + 8 + kRunning);
        expect_rejected(repeated, "start order");

        Serializer nan;
        nan.writeDouble(std::numeric_limits<double>::quiet_NaN());
        std::vector<std::uint8_t> unestimated = image;
        std::copy(nan.data().begin(), nan.data().end(),
                  unestimated.begin() + kList + 8 + kEstimate);
        expect_rejected(unestimated, "NaN");

        std::vector<std::uint8_t> reordered = image;
        const auto first = reordered.begin() + resubmits_at + 8;
        std::swap_ranges(first, first + kResubmit, first + kResubmit);
        expect_rejected(reordered, "resubmits out of");
        swapped_resubmits = true;
        break;
    }
    EXPECT_TRUE(swapped_resubmits)
        << "no hourly image held two running jobs and two resubmits";
}

TEST(ClusterSnapshot, PeriodicSnapshotsAllRestorable)
{
    const auto jobs = testTrace();
    const sched::ClusterConfig config = testConfig();

    std::vector<std::vector<std::uint8_t>> states;
    sched::RunOptions options;
    options.digestEverySeconds = 86400.0;
    options.snapshotEverySeconds = 2 * 86400.0;
    options.snapshotSink =
        [&](const std::vector<std::uint8_t> &bytes) {
            states.push_back(bytes);
        };
    sched::ClusterSimulator sim(config);
    const sched::RunOutcome full = sim.run(jobs, options);
    ASSERT_TRUE(full.completed);
    ASSERT_GE(states.size(), 3u);

    for (const auto &state : states) {
        sched::ClusterSimulator resumed(config);
        const util::Status restored = resumed.restoreState(state, jobs);
        ASSERT_TRUE(restored.ok()) << restored.message();
        const sched::RunOutcome rest = resumed.resume({});
        EXPECT_TRUE(
            sched::metricsIdentical(full.metrics, rest.metrics));
    }
}

TEST(ClusterSnapshot, RejectsDifferentConfiguration)
{
    const auto jobs = testTrace();
    std::vector<std::uint8_t> state;
    sched::RunOptions options;
    options.stopAfterSeconds = 2 * 86400.0;
    options.snapshotSink =
        [&](const std::vector<std::uint8_t> &bytes) { state = bytes; };
    sched::ClusterSimulator sim(testConfig());
    sim.run(jobs, options);
    ASSERT_FALSE(state.empty());

    sched::ClusterConfig other = testConfig();
    other.speedups.at800 = 1.25;
    sched::ClusterSimulator mismatched(other);
    const util::Status status = mismatched.restoreState(state, jobs);
    EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition)
        << status.message();
    EXPECT_NE(status.message().find("configuration"), std::string::npos)
        << status.message();
}

TEST(ClusterSnapshot, RejectsDifferentTrace)
{
    const auto jobs = testTrace();
    std::vector<std::uint8_t> state;
    sched::RunOptions options;
    options.stopAfterSeconds = 2 * 86400.0;
    options.snapshotSink =
        [&](const std::vector<std::uint8_t> &bytes) { state = bytes; };
    sched::ClusterSimulator sim(testConfig());
    sim.run(jobs, options);

    auto other_jobs = jobs;
    other_jobs[100].runtimeSeconds += 1.0;
    sched::ClusterSimulator resumed(testConfig());
    const util::Status status =
        resumed.restoreState(state, other_jobs);
    EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition)
        << status.message();
    EXPECT_NE(status.message().find("trace"), std::string::npos)
        << status.message();
}

TEST(ClusterSnapshot, FileLevelCorruptionIsRejected)
{
    const auto jobs = testTrace();
    std::vector<std::uint8_t> state;
    sched::RunOptions options;
    options.stopAfterSeconds = 2 * 86400.0;
    options.snapshotSink =
        [&](const std::vector<std::uint8_t> &bytes) { state = bytes; };
    sched::ClusterSimulator sim(testConfig());
    sim.run(jobs, options);
    ASSERT_FALSE(state.empty());

    const std::string path = "test_snapshot_cluster.snap";
    const util::Status wrote =
        sched::ClusterSimulator::writeStateFile(path, state);
    ASSERT_TRUE(wrote.ok()) << wrote.message();

    // Intact file restores.
    sched::ClusterSimulator resumed(testConfig());
    const util::Status restored = resumed.restoreFile(path, jobs);
    ASSERT_TRUE(restored.ok()) << restored.message();

    // Flip one byte in the middle: the CRC must catch it.
    {
        std::fstream file(path, std::ios::binary | std::ios::in |
                                    std::ios::out);
        file.seekp(200);
        char byte = 0;
        file.seekg(200);
        file.get(byte);
        byte = static_cast<char>(byte ^ 0x01);
        file.seekp(200);
        file.put(byte);
    }
    sched::ClusterSimulator corrupt(testConfig());
    const util::Status status = corrupt.restoreFile(path, jobs);
    EXPECT_EQ(status.code(), util::StatusCode::kDataLoss)
        << status.message();
    EXPECT_NE(status.message().find("CRC"), std::string::npos)
        << status.message();
    std::remove(path.c_str());
}

// --------------------------------------------------------------------
// Keeper: last-good generation rotation
// --------------------------------------------------------------------

/** Removes every generation of `keeper` on scope exit. */
struct KeeperCleanup
{
    const Keeper &keeper;
    ~KeeperCleanup()
    {
        for (unsigned g = 0; g < keeper.keep(); ++g)
            std::remove(keeper.generationPath(g).c_str());
    }
};

std::vector<std::uint8_t>
payloadBytes(std::uint8_t tag)
{
    return std::vector<std::uint8_t>(64, tag);
}

TEST(Keeper, GenerationPaths)
{
    const Keeper keeper("run.snap", 3);
    EXPECT_EQ(keeper.generationPath(0), "run.snap");
    EXPECT_EQ(keeper.generationPath(1), "run.snap.1");
    EXPECT_EQ(keeper.generationPath(2), "run.snap.2");
}

TEST(Keeper, SaveRotatesNewestFirst)
{
    const Keeper keeper("test_keeper_rotate.snap", 3);
    const KeeperCleanup cleanup{keeper};
    for (std::uint8_t tag = 1; tag <= 4; ++tag) {
        const util::Status saved =
            keeper.save(kClusterStateKind, payloadBytes(tag));
        ASSERT_TRUE(saved.ok()) << saved.message();
    }

    // After four saves with keep=3, generations hold tags 4, 3, 2;
    // tag 1 rotated off the end.
    for (unsigned g = 0; g < 3; ++g) {
        std::vector<std::uint8_t> payload;
        const util::Status read = readSnapshotFile(
            keeper.generationPath(g), kClusterStateKind, &payload);
        ASSERT_TRUE(read.ok()) << read.message();
        EXPECT_EQ(payload, payloadBytes(static_cast<std::uint8_t>(4 - g)))
            << "generation " << g;
    }
}

TEST(Keeper, LoadLatestValidPrefersGenerationZero)
{
    const Keeper keeper("test_keeper_load.snap", 3);
    const KeeperCleanup cleanup{keeper};
    ASSERT_TRUE(keeper.save(kClusterStateKind, payloadBytes(1)).ok());
    ASSERT_TRUE(keeper.save(kClusterStateKind, payloadBytes(2)).ok());

    const util::Result<Keeper::Loaded> loaded =
        keeper.loadLatestValid(kClusterStateKind);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(loaded.value().generation, 0u);
    EXPECT_EQ(loaded.value().payload, payloadBytes(2));
    EXPECT_TRUE(loaded.value().skipped.empty());
}

TEST(Keeper, LoadLatestValidSkipsCorruptNewest)
{
    const Keeper keeper("test_keeper_skip.snap", 3);
    const KeeperCleanup cleanup{keeper};
    ASSERT_TRUE(keeper.save(kClusterStateKind, payloadBytes(1)).ok());
    ASSERT_TRUE(keeper.save(kClusterStateKind, payloadBytes(2)).ok());

    // Corrupt generation 0; the walk must fall back to generation 1
    // and report the skip with its structured code.
    {
        std::fstream file(keeper.generationPath(0),
                          std::ios::binary | std::ios::in |
                              std::ios::out);
        file.seekp(40);
        file.put('\x7f');
    }
    const util::Result<Keeper::Loaded> loaded =
        keeper.loadLatestValid(kClusterStateKind);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(loaded.value().generation, 1u);
    EXPECT_EQ(loaded.value().payload, payloadBytes(1));
    ASSERT_EQ(loaded.value().skipped.size(), 1u);
    EXPECT_EQ(loaded.value().skipped[0].code(),
              util::StatusCode::kDataLoss);
}

TEST(Keeper, LoadLatestValidReportsMissingRotation)
{
    const Keeper keeper("test_keeper_none.snap", 2);
    const util::Result<Keeper::Loaded> loaded =
        keeper.loadLatestValid(kClusterStateKind);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST(Keeper, LoadLatestValidSummarizesTotalLoss)
{
    const Keeper keeper("test_keeper_loss.snap", 2);
    const KeeperCleanup cleanup{keeper};
    ASSERT_TRUE(keeper.save(kClusterStateKind, payloadBytes(1)).ok());
    ASSERT_TRUE(keeper.save(kClusterStateKind, payloadBytes(2)).ok());
    for (unsigned g = 0; g < 2; ++g) {
        std::ofstream file(keeper.generationPath(g),
                           std::ios::binary | std::ios::trunc);
        file << "garbage";
    }
    const util::Result<Keeper::Loaded> loaded =
        keeper.loadLatestValid(kClusterStateKind);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
}

// --------------------------------------------------------------------
// Construction-time config validation
// --------------------------------------------------------------------

TEST(ConfigValidation, ClusterConfigRejectsBadFractions)
{
    sched::ClusterConfig config;
    config.groupFractions = {0.5, 0.4, 0.3}; // sums to 1.2
    EXPECT_EXIT(sched::ClusterSimulator sim(config),
                ::testing::ExitedWithCode(1), "groupFractions");
}

TEST(ConfigValidation, ClusterConfigRejectsZeroNodes)
{
    sched::ClusterConfig config;
    config.nodes = 0;
    EXPECT_EXIT(sched::ClusterSimulator sim(config),
                ::testing::ExitedWithCode(1), "nodes");
}

TEST(ConfigValidation, ClusterConfigRejectsZeroBackfillDepth)
{
    sched::ClusterConfig config;
    config.backfillDepth = 0;
    EXPECT_EXIT(sched::ClusterSimulator sim(config),
                ::testing::ExitedWithCode(1), "backfillDepth");
}

TEST(ConfigValidation, SpeedupTableRejectsInvertedSpeedups)
{
    sched::ClusterConfig config;
    config.speedups.at800 = 1.05;
    config.speedups.at600 = 1.15; // faster than the faster group
    EXPECT_EXIT(sched::ClusterSimulator sim(config),
                ::testing::ExitedWithCode(1), "at600");
}

TEST(ConfigValidation, SpeedupTableRejectsNan)
{
    sched::ClusterConfig config;
    config.speedups.at800 = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EXIT(sched::ClusterSimulator sim(config),
                ::testing::ExitedWithCode(1), "at800");
}

TEST(ConfigValidation, ResiliencePolicyRejectsInconsistentBackoff)
{
    sched::ClusterConfig config;
    config.resilience.requeueBackoffBaseSeconds = 7200.0;
    config.resilience.requeueBackoffCapSeconds = 60.0;
    EXPECT_EXIT(sched::ClusterSimulator sim(config),
                ::testing::ExitedWithCode(1),
                "requeueBackoffCapSeconds");
}

TEST(ConfigValidation, ResiliencePolicyRejectsOverheadAboveOne)
{
    sched::ClusterConfig config;
    config.resilience.checkpointOverheadFraction = 1.5;
    EXPECT_EXIT(sched::ClusterSimulator sim(config),
                ::testing::ExitedWithCode(1),
                "checkpointOverheadFraction");
}

TEST(ConfigValidation, CampaignConfigRejectsNegativeRate)
{
    fault::CampaignConfig config;
    config.uncorrectablePerHour = -1.0;
    EXPECT_EXIT(fault::FaultCampaign campaign(config),
                ::testing::ExitedWithCode(1), "uncorrectablePerHour");
}

TEST(ConfigValidation, CampaignConfigRejectsZeroTargets)
{
    fault::CampaignConfig config;
    config.targets = 0;
    EXPECT_EXIT(fault::FaultCampaign campaign(config),
                ::testing::ExitedWithCode(1), "targets");
}

TEST(ConfigValidation, JobTraceModelRejectsInvertedFractions)
{
    traces::JobTraceModel model;
    model.under25Fraction = 0.9;
    model.under50Fraction = 0.5;
    EXPECT_EXIT(traces::GrizzlyTraceGenerator generator(model, 1),
                ::testing::ExitedWithCode(1), "under25Fraction");
}

TEST(ConfigValidation, JobTraceModelRejectsZeroNodes)
{
    traces::JobTraceModel model;
    model.systemNodes = 0;
    EXPECT_EXIT(traces::GrizzlyTraceGenerator generator(model, 1),
                ::testing::ExitedWithCode(1), "systemNodes");
}

TEST(ConfigValidation, JobTraceModelRejectsZeroSpan)
{
    traces::JobTraceModel model;
    model.spanSeconds = 0.0;
    EXPECT_EXIT(traces::GrizzlyTraceGenerator generator(model, 1),
                ::testing::ExitedWithCode(1), "spanSeconds");
}

TEST(ConfigValidation, RunOptionsRejectNonPositiveDigestCadence)
{
    sched::ClusterSimulator sim(testConfig());
    sched::RunOptions options;
    options.digestEverySeconds = 0.0;
    EXPECT_EXIT(sim.run(testTrace(), options),
                ::testing::ExitedWithCode(1), "digestEverySeconds");
}

// --------------------------------------------------------------------
// Degenerate trace models
// --------------------------------------------------------------------

TEST(TraceDegenerate, ZeroJobsYieldEmptyTrace)
{
    traces::JobTraceModel model;
    model.numJobs = 0;
    traces::GrizzlyTraceGenerator generator(model, 3);
    EXPECT_TRUE(generator.generate().empty());
}

TEST(TraceDegenerate, EmptyTraceRunsToCompletion)
{
    sched::ClusterSimulator sim(testConfig());
    const sched::ClusterMetrics metrics = sim.run({});
    EXPECT_EQ(metrics.jobsCompleted, 0u);
    EXPECT_EQ(metrics.meanNodeUtilization, 0.0);
}

} // namespace
