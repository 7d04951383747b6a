/**
 * @file
 * Tests for the trace generators and the cluster scheduler: trace
 * calibration (load, usage classes), conservation invariants, EASY
 * backfill behaviour, margin-aware allocation, and the Fig. 17
 * orderings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "fault/fault.hh"
#include "sched/cluster_sim.hh"
#include "traces/job_trace.hh"
#include "traces/memory_usage.hh"
#include "util/status.hh"

namespace
{

using namespace hdmr;
using namespace hdmr::sched;
using namespace hdmr::traces;

// --------------------------------------------------------------------
// Memory-usage traces (Fig. 1)
// --------------------------------------------------------------------

TEST(UsageTraces, FractionsMatchModel)
{
    UsageModel model;
    MemoryUsageTraceGenerator generator(model, 5);
    const auto jobs = generator.generate(5000);
    const auto analysis = analyzeUsage(jobs);
    EXPECT_EQ(analysis.jobs, 5000u);
    EXPECT_NEAR(analysis.fractionUnder50, model.under50Fraction, 0.03);
    EXPECT_NEAR(analysis.fractionUnder25, model.under25Fraction, 0.03);
}

TEST(UsageTraces, UtilizationWithinBounds)
{
    MemoryUsageTraceGenerator generator(UsageModel{}, 6);
    const auto job = generator.generateJob(16);
    EXPECT_EQ(job.utilization.size(), 16u);
    for (const auto &series : job.utilization)
        for (const double u : series) {
            EXPECT_GE(u, 0.0);
            EXPECT_LE(u, 1.0);
        }
    EXPECT_LE(job.peakUtilization(), 0.97);
}

TEST(UsageTraces, UsageClassDistribution)
{
    UsageModel model;
    MemoryUsageTraceGenerator generator(model, 7);
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 20000; ++i)
        ++counts[generator.sampleUsageClass()];
    EXPECT_NEAR(counts[0] / 20000.0, 0.55, 0.02);
    EXPECT_NEAR((counts[0] + counts[1]) / 20000.0, 0.80, 0.02);
}

// --------------------------------------------------------------------
// Job traces (Grizzly)
// --------------------------------------------------------------------

TEST(JobTrace, CalibratedToTargetLoad)
{
    JobTraceModel model;
    model.numJobs = 20000;
    GrizzlyTraceGenerator generator(model, 9);
    const auto jobs = generator.generate();
    EXPECT_EQ(jobs.size(), 20000u);
    EXPECT_TRUE(std::is_sorted(jobs.begin(), jobs.end(),
                               [](const Job &a, const Job &b) {
                                   return a.submitSeconds <
                                          b.submitSeconds;
                               }));
    const double offered =
        traceNodeSeconds(jobs) /
        (model.systemNodes * model.spanSeconds);
    EXPECT_NEAR(offered, model.targetUtilization, 0.02);
    for (const auto &job : jobs) {
        EXPECT_GE(job.nodes, 1u);
        EXPECT_GE(job.walltimeSeconds, job.runtimeSeconds);
        EXPECT_LE(job.usageClass, 2u);
    }
}

// --------------------------------------------------------------------
// Cluster simulator
// --------------------------------------------------------------------

std::vector<Job>
smallTrace(std::size_t jobs = 6000, std::uint64_t seed = 11)
{
    JobTraceModel model;
    model.numJobs = jobs;
    model.spanSeconds = 14.0 * 86400;
    model.systemNodes = 256;
    GrizzlyTraceGenerator generator(model, seed);
    auto trace = generator.generate();
    // Clamp node counts to the small test system.
    for (auto &job : trace)
        job.nodes = std::min(job.nodes, 200u);
    return trace;
}

ClusterConfig
smallCluster(bool hdmr, bool aware)
{
    ClusterConfig config;
    config.nodes = 256;
    config.heteroDmr = hdmr;
    config.marginAware = aware;
    return config;
}

TEST(ClusterSim, AllJobsComplete)
{
    const auto trace = smallTrace();
    ClusterSimulator sim(smallCluster(false, false));
    const auto metrics = sim.run(trace);
    EXPECT_EQ(metrics.jobsCompleted, trace.size());
    EXPECT_GT(metrics.meanExecSeconds, 0.0);
    EXPECT_GE(metrics.meanQueueSeconds, 0.0);
    EXPECT_NEAR(metrics.meanTurnaroundSeconds,
                metrics.meanExecSeconds + metrics.meanQueueSeconds,
                1.0);
}

TEST(ClusterSim, ConventionalExecMatchesTrace)
{
    const auto trace = smallTrace();
    ClusterSimulator sim(smallCluster(false, true));
    const auto metrics = sim.run(trace);
    double mean_runtime = 0.0;
    for (const auto &job : trace)
        mean_runtime += job.runtimeSeconds;
    mean_runtime /= static_cast<double>(trace.size());
    EXPECT_NEAR(metrics.meanExecSeconds, mean_runtime, 1.0);
}

TEST(ClusterSim, HeteroDmrShortensExecution)
{
    const auto trace = smallTrace();
    const auto base =
        ClusterSimulator(smallCluster(false, true)).run(trace);
    const auto hdmr =
        ClusterSimulator(smallCluster(true, true)).run(trace);
    EXPECT_LT(hdmr.meanExecSeconds, base.meanExecSeconds);
    EXPECT_LT(hdmr.meanTurnaroundSeconds, base.meanTurnaroundSeconds);
    // Only <50 %-usage jobs accelerate; most eligible ones should.
    EXPECT_GT(hdmr.acceleratedFraction, 0.7);
}

TEST(ClusterSim, MarginAwareBeatsDefaultScheduler)
{
    const auto trace = smallTrace();
    const auto aware =
        ClusterSimulator(smallCluster(true, true)).run(trace);
    const auto unaware =
        ClusterSimulator(smallCluster(true, false)).run(trace);
    EXPECT_LT(aware.meanExecSeconds, unaware.meanExecSeconds * 1.001);
    EXPECT_GT(aware.acceleratedFraction,
              unaware.acceleratedFraction - 0.02);
}

TEST(ClusterSim, MoreNodesCutQueueing)
{
    const auto trace = smallTrace();
    auto small = smallCluster(false, false);
    auto big = small;
    big.nodes = 300;
    const auto base = ClusterSimulator(small).run(trace);
    const auto more = ClusterSimulator(big).run(trace);
    EXPECT_LT(more.meanQueueSeconds, base.meanQueueSeconds);
    EXPECT_NEAR(more.meanExecSeconds, base.meanExecSeconds, 1.0);
}

TEST(ClusterSim, OversizedJobsAreSkippedNotHung)
{
    auto trace = smallTrace(100, 13);
    trace[10].nodes = 100000; // larger than the system
    ClusterSimulator sim(smallCluster(false, false));
    const auto metrics = sim.run(trace);
    EXPECT_EQ(metrics.jobsCompleted, trace.size() - 1);
}

// --------------------------------------------------------------------
// Chaos-overlay schedule (drift campaigns feeding the cluster layer)
// --------------------------------------------------------------------

TEST(ClusterOverlay, ExcursionWindowRaisesUeHazard)
{
    const auto trace = smallTrace();
    auto config = smallCluster(true, true);
    config.faults.intensity = 1.0;
    config.faults.uncorrectablePerHour = 2.0e-4;
    config.faults.horizonSeconds = 14.0 * 86400;

    const auto cool = ClusterSimulator(config).run(trace);

    // One fleet-wide hot window covering the whole trace: every job
    // start sees the multiplied hazard.
    fault::FaultEvent window;
    window.kind = fault::FaultKind::kTemperatureExcursion;
    window.atSeconds = 0.0;
    window.durationSeconds = 30.0 * 86400;
    config.scheduleOverlay.push_back(window);
    config.excursionUeMultiplier = 8.0;
    const auto hot = ClusterSimulator(config).run(trace);

    EXPECT_EQ(hot.excursions, 1u);
    EXPECT_EQ(cool.excursions, 0u);
    EXPECT_GT(hot.jobKills, cool.jobKills);
    // Kills are recoverable: the machine still finishes the trace.
    EXPECT_EQ(hot.jobsCompleted + hot.jobsDropped, trace.size());
}

TEST(ClusterOverlay, DemotionsAreCountedAndSlowTheMachine)
{
    const auto trace = smallTrace();
    auto config = smallCluster(true, true);
    const auto plain = ClusterSimulator(config).run(trace);

    for (unsigned i = 0; i < 120; ++i) {
        fault::FaultEvent demotion;
        demotion.kind = fault::FaultKind::kGroupDemotion;
        demotion.atSeconds = 3600.0 * (i + 1);
        demotion.target = i * 2;
        config.scheduleOverlay.push_back(demotion);
    }
    const auto demoted = ClusterSimulator(config).run(trace);

    EXPECT_EQ(demoted.nodesDemoted, 120u);
    EXPECT_EQ(demoted.jobsCompleted + demoted.jobsDropped,
              trace.size());
    // Nodes pushed into slower margin groups can only hurt.
    EXPECT_GT(demoted.meanTurnaroundSeconds,
              plain.meanTurnaroundSeconds);
}

TEST(ClusterOverlay, OverlayIsFingerprintedIntoTheConfigDigest)
{
    auto config = smallCluster(true, true);
    const std::uint64_t bare = ClusterSimulator(config).configDigest();

    fault::FaultEvent window;
    window.kind = fault::FaultKind::kTemperatureExcursion;
    window.atSeconds = 7200.0;
    window.durationSeconds = 3600.0;
    config.scheduleOverlay.push_back(window);
    const std::uint64_t overlaid =
        ClusterSimulator(config).configDigest();
    EXPECT_NE(bare, overlaid);

    // ... and so is the excursion multiplier the overlay arms.
    auto hotter = config;
    hotter.excursionUeMultiplier = 8.0;
    EXPECT_NE(overlaid, ClusterSimulator(hotter).configDigest());
}

TEST(ClusterOverlay, SnapshotNeverResumesUnderForeignOverlay)
{
    const auto trace = smallTrace();
    auto config = smallCluster(true, true);
    fault::FaultEvent window;
    window.kind = fault::FaultKind::kTemperatureExcursion;
    window.atSeconds = 86400.0;
    window.durationSeconds = 6.0 * 3600;
    config.scheduleOverlay.push_back(window);

    // Interrupt mid-run and capture the state image.
    std::vector<std::uint8_t> image;
    RunOptions options;
    options.digestEverySeconds = 43200.0;
    options.stopAfterSeconds = 3.0 * 86400;
    options.snapshotSink =
        [&](const std::vector<std::uint8_t> &state) { image = state; };
    ClusterSimulator stopped(config);
    const auto partial = stopped.run(trace, options);
    ASSERT_FALSE(partial.completed);
    ASSERT_FALSE(image.empty());

    // A simulator armed with a different drift realization must
    // reject the image outright.
    auto other = config;
    other.scheduleOverlay[0].atSeconds = 2.0 * 86400;
    ClusterSimulator foreign(other);
    const util::Status foreign_status =
        foreign.restoreState(image, trace);
    EXPECT_EQ(foreign_status.code(),
              util::StatusCode::kFailedPrecondition)
        << foreign_status.toString();
    EXPECT_FALSE(foreign_status.message().empty());

    // The matching configuration restores and finishes with exactly
    // the metrics and digest trail of an uninterrupted run.
    RunOptions straight_options;
    straight_options.digestEverySeconds = 43200.0;
    const auto straight =
        ClusterSimulator(config).run(trace, straight_options);
    ClusterSimulator resumed_sim(config);
    const util::Status restored =
        resumed_sim.restoreState(image, trace);
    ASSERT_TRUE(restored.ok()) << restored.message();
    const auto resumed = resumed_sim.resume(straight_options);
    ASSERT_TRUE(resumed.completed);
    EXPECT_TRUE(metricsIdentical(straight.metrics, resumed.metrics));
    EXPECT_EQ(snapshot::DigestTrail::firstDivergence(straight.digests,
                                                     resumed.digests),
              std::nullopt);
}

// --------------------------------------------------------------------
// Pinned outcomes
// --------------------------------------------------------------------

/** FNV-1a over every ClusterMetrics field and the digest trail. */
std::uint64_t
outcomeDigest(const RunOutcome &outcome)
{
    const ClusterMetrics &m = outcome.metrics;
    snapshot::Fnv1a hash;
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(m.jobsCompleted), m.ueInjected,
          m.jobKills, m.requeues, m.nodesFailed, m.nodesDemoted,
          m.excursions, m.jobsDropped, m.tolerantUes, m.criticalUes,
          m.jobsDegraded, m.pagesDegraded})
        hash.addU64(v);
    for (const double v :
         {m.meanExecSeconds, m.meanQueueSeconds, m.meanTurnaroundSeconds,
          m.meanNodeUtilization, m.acceleratedFraction,
          m.lostNodeSeconds, m.checkpointOverheadSeconds,
          m.dataQualityPenalty, m.copyNodeSeconds,
          m.dmrCopyNodeSeconds})
        hash.addDouble(v);
    hash.addDouble(outcome.digests.epochSeconds);
    hash.addU64(outcome.digests.digests.size());
    for (const std::uint64_t d : outcome.digests.digests)
        hash.addU64(d);
    return hash.value();
}

TEST(ClusterSim, OutcomeDigestPinnedAcrossPolicies)
{
    // Recorded results of every scheduling feature: a refactor of the
    // event loop, the backfill pass or the running-job bookkeeping
    // must leave all of them bit-identical.  At a 6-hour cadence each
    // digest hashes the live running set in start order, the pending
    // queue and the resubmit queue.  Re-record only for a deliberate
    // change of results.
    JobTraceModel model;
    model.numJobs = 2000;
    model.systemNodes = 192;
    model.spanSeconds = 10 * 86400.0;
    const auto trace = GrizzlyTraceGenerator(model, 11).generate();

    ClusterConfig base;
    base.nodes = 192;
    base.heteroDmr = true;
    base.marginAware = true;

    // Margin-unaware draws, UE kills with requeue backoff, node
    // failures, demotions and checkpointing.
    ClusterConfig faulted = base;
    faulted.marginAware = false;
    faulted.faults.intensity = 4.0;
    faulted.faults.uncorrectablePerHour = 2.0e-4;
    faulted.faults.nodeFailuresPerHour = 2.0e-5;
    faulted.faults.demotionsPerHour = 1.0e-4;
    faulted.faults.horizonSeconds = 10 * 86400.0;
    faulted.resilience.checkpointIntervalSeconds = 1800.0;
    faulted.resilience.checkpointOverheadFraction = 0.02;

    // Hundreds of kills whose capped-exponential backoffs overlap, so
    // resubmits leave their queue out of seq order.
    ClusterConfig hetrel = base;
    hetrel.placement.mode = core::PlacementMode::kHetReliability;
    hetrel.faults.intensity = 1.0;
    hetrel.faults.uncorrectablePerHour = 1.0e-2;
    hetrel.faults.horizonSeconds = 10 * 86400.0;

    ClusterConfig overlay = base;
    overlay.faults.intensity = 1.0;
    overlay.faults.uncorrectablePerHour = 2.0e-4;
    overlay.faults.horizonSeconds = 10 * 86400.0;
    fault::FaultEvent window;
    window.kind = fault::FaultKind::kTemperatureExcursion;
    window.atSeconds = 2 * 86400.0;
    window.durationSeconds = 12 * 3600.0;
    overlay.scheduleOverlay.push_back(window);
    for (unsigned i = 0; i < 40; ++i) {
        fault::FaultEvent demotion;
        demotion.kind = fault::FaultKind::kGroupDemotion;
        demotion.atSeconds = 86400.0 + 3600.0 * i;
        demotion.target = i * 3;
        overlay.scheduleOverlay.push_back(demotion);
    }

    ClusterConfig shallow = base;
    shallow.backfillDepth = 4;

    const struct
    {
        const char *name;
        const ClusterConfig &config;
        std::uint64_t digest;
    } kPinned[] = {
        {"margin-aware", base, 0xcdfa7e9bcf01ef42ull},
        {"faulted", faulted, 0x1a429ebf96262e94ull},
        {"het-reliability", hetrel, 0xbaa9baec13f26788ull},
        {"overlay", overlay, 0xa1c25759a166ddedull},
        {"backfill-depth-4", shallow, 0x8282cadfee6d758dull},
    };
    RunOptions options;
    options.digestEverySeconds = 6 * 3600.0;
    for (const auto &pinned : kPinned) {
        const RunOutcome outcome =
            ClusterSimulator(pinned.config).run(trace, options);
        ASSERT_TRUE(outcome.completed) << pinned.name;
        EXPECT_GT(outcome.digests.digests.size(), 30u) << pinned.name;
        EXPECT_EQ(outcomeDigest(outcome), pinned.digest)
            << pinned.name << ": 0x" << std::hex
            << outcomeDigest(outcome);
        const ClusterMetrics &m = outcome.metrics;
        EXPECT_EQ(m.jobsCompleted + m.jobsDropped, trace.size())
            << pinned.name;
        EXPECT_GT(m.meanQueueSeconds, 0.0) << pinned.name;
        if (&pinned.config == &faulted) {
            EXPECT_GT(m.requeues, 0u);
            EXPECT_GT(m.nodesFailed, 0u);
            EXPECT_GT(m.nodesDemoted, 0u);
        } else if (&pinned.config == &hetrel) {
            EXPECT_GT(m.tolerantUes, 0u);
            EXPECT_GT(m.requeues, 100u);
        } else if (&pinned.config == &overlay) {
            EXPECT_GT(m.excursions, 0u);
            EXPECT_GT(m.nodesDemoted, 0u);
        }
    }
}

} // namespace
