/**
 * @file
 * Tests for heterogeneous-reliability placement: the deterministic
 * per-job criticality model, the placement-policy semantics
 * (eligibility, replicated share, tolerant-strike probability),
 * the criticality-split UE accounting in the cluster simulator, and
 * snapshot/resume bit-identity while placement state is active.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/placement.hh"
#include "sched/cluster_sim.hh"
#include "snapshot/digest.hh"
#include "traces/job_trace.hh"
#include "util/status.hh"
#include "workloads/criticality.hh"

namespace
{

using namespace hdmr;
using core::PlacementMode;
using core::PlacementPolicy;

// ---------------------------------------------------------------------
// Criticality model
// ---------------------------------------------------------------------

TEST(CriticalityModel, SameSeedAssignsIdentically)
{
    const wl::CriticalityConfig config;
    wl::CriticalityModel a(config);
    wl::CriticalityModel b(config);
    for (std::uint32_t job = 0; job < 2000; ++job) {
        const wl::JobCriticality ca = a.jobCriticality(job);
        const wl::JobCriticality cb = b.jobCriticality(job);
        ASSERT_EQ(ca.appClass, cb.appClass);
        ASSERT_EQ(ca.tolerantFraction, cb.tolerantFraction);
        for (std::uint64_t page = 0; page < 8; ++page) {
            ASSERT_EQ(a.pageTolerant(job, page, ca.tolerantFraction),
                      b.pageTolerant(job, page, cb.tolerantFraction));
        }
    }
}

TEST(CriticalityModel, DifferentSeedReassigns)
{
    const wl::CriticalityConfig config;
    wl::CriticalityConfig reseeded = config;
    reseeded.seed ^= 1;
    wl::CriticalityModel a(config);
    wl::CriticalityModel b(reseeded);
    unsigned differing = 0;
    for (std::uint32_t job = 0; job < 2000; ++job) {
        const wl::JobCriticality ca = a.jobCriticality(job);
        const wl::JobCriticality cb = b.jobCriticality(job);
        differing += (ca.appClass != cb.appClass ||
                      ca.tolerantFraction != cb.tolerantFraction)
                         ? 1
                         : 0;
    }
    EXPECT_GT(differing, 1000u);
}

TEST(CriticalityModel, ClassMixAndJitterMatchConfig)
{
    const wl::CriticalityConfig config;
    wl::CriticalityModel model(config);
    std::array<unsigned, wl::kAppClassCount> counts = {};
    constexpr std::uint32_t kJobs = 20000;
    for (std::uint32_t job = 0; job < kJobs; ++job) {
        const wl::JobCriticality crit = model.jobCriticality(job);
        ASSERT_LT(crit.appClass, wl::kAppClassCount);
        ++counts[crit.appClass];
        const double mean = config.tolerantMean[crit.appClass];
        EXPECT_GE(crit.tolerantFraction,
                  std::max(0.0, mean - config.tolerantJitter));
        EXPECT_LE(crit.tolerantFraction,
                  std::min(1.0, mean + config.tolerantJitter));
    }
    for (unsigned cls = 0; cls < wl::kAppClassCount; ++cls) {
        EXPECT_NEAR(static_cast<double>(counts[cls]) / kJobs,
                    config.classWeights[cls], 0.02);
    }
}

TEST(CriticalityModel, PageDrawHonoursExtremesAndFraction)
{
    const std::uint64_t seed = 0xfeed;
    unsigned tolerant = 0;
    for (std::uint64_t page = 0; page < 4000; ++page) {
        EXPECT_FALSE(wl::pageIsTolerant(seed, 7, page, 0.0));
        EXPECT_TRUE(wl::pageIsTolerant(seed, 7, page, 1.0));
        tolerant += wl::pageIsTolerant(seed, 7, page, 0.6) ? 1 : 0;
    }
    EXPECT_NEAR(tolerant / 4000.0, 0.6, 0.05);
}

TEST(CriticalityConfig, DigestSensitiveToEveryField)
{
    const wl::CriticalityConfig base;
    const std::uint64_t digest = base.digest();

    wl::CriticalityConfig c = base;
    c.seed ^= 1;
    EXPECT_NE(c.digest(), digest);
    c = base;
    c.classWeights = {0.30, 0.45, 0.25};
    EXPECT_NE(c.digest(), digest);
    c = base;
    c.tolerantMean[2] = 0.25;
    EXPECT_NE(c.digest(), digest);
    c = base;
    c.tolerantJitter = 0.05;
    EXPECT_NE(c.digest(), digest);
}

void
expectInvalid(const hdmr::util::Status &status, const char *field)
{
    EXPECT_EQ(status.code(), hdmr::util::StatusCode::kInvalidArgument)
        << status.message();
    EXPECT_NE(status.message().find(field), std::string::npos)
        << status.message();
}

TEST(Criticality, ValidateNamesTheOffendingField)
{
    wl::CriticalityConfig bad;
    bad.classWeights = {0.5, 0.5, 0.5};
    expectInvalid(bad.validate(), "classWeights");

    bad = wl::CriticalityConfig{};
    bad.classWeights[0] = -0.1;
    expectInvalid(bad.validate(), "classWeights");

    bad = wl::CriticalityConfig{};
    bad.tolerantMean[1] = 1.5;
    expectInvalid(bad.validate(), "tolerantMean");

    bad = wl::CriticalityConfig{};
    bad.tolerantJitter = 0.75;
    expectInvalid(bad.validate(), "tolerantJitter");

    // Construction still dies (checkOk at the model boundary).
    bad = wl::CriticalityConfig{};
    bad.tolerantJitter = 0.75;
    EXPECT_DEATH(wl::CriticalityModel model(bad), "tolerantJitter");
}

// ---------------------------------------------------------------------
// Placement policy
// ---------------------------------------------------------------------

TEST(Placement, HeteroDmrKeepsSeedSemantics)
{
    PlacementPolicy policy; // default mode: kHeteroDmr
    for (const double tf : {0.0, 0.3, 0.75, 1.0}) {
        EXPECT_FALSE(policy.unreplicatedTolerant(tf));
        EXPECT_EQ(policy.replicatedShare(tf), 1.0);
        EXPECT_EQ(policy.tolerantStrikeProbability(tf), 0.0);
        EXPECT_TRUE(policy.marginEligible(0, tf));
        EXPECT_TRUE(policy.marginEligible(1, tf));
        EXPECT_FALSE(policy.marginEligible(2, tf));
    }
}

TEST(Placement, HetReliabilityWidensEligibility)
{
    PlacementPolicy policy;
    policy.mode = PlacementMode::kHetReliability;

    EXPECT_TRUE(policy.unreplicatedTolerant(0.2));
    EXPECT_FALSE(policy.unreplicatedTolerant(0.0));
    EXPECT_DOUBLE_EQ(policy.replicatedShare(0.75), 0.25);
    EXPECT_DOUBLE_EQ(policy.tolerantStrikeProbability(0.75), 0.75);

    // High-usage (>= 50 %) jobs: only a tolerant fraction above 1/3
    // shrinks the replicated footprint (0.75 x share) under the 50 %
    // copy headroom.
    EXPECT_FALSE(policy.marginEligible(2, 0.2));
    EXPECT_TRUE(policy.marginEligible(2, 0.5));
    // Low/mid-usage jobs stay eligible regardless.
    EXPECT_TRUE(policy.marginEligible(0, 0.0));
    EXPECT_TRUE(policy.marginEligible(1, 0.0));
}

TEST(Placement, HybridThresholdSplitsJobs)
{
    PlacementPolicy policy;
    policy.mode = PlacementMode::kHybrid;

    // Below the threshold: full Hetero-DMR semantics.
    EXPECT_FALSE(policy.unreplicatedTolerant(0.49));
    EXPECT_EQ(policy.replicatedShare(0.49), 1.0);
    EXPECT_EQ(policy.tolerantStrikeProbability(0.49), 0.0);
    EXPECT_FALSE(policy.marginEligible(2, 0.49));

    // At/above the threshold: HRM semantics.
    EXPECT_TRUE(policy.unreplicatedTolerant(0.5));
    EXPECT_DOUBLE_EQ(policy.replicatedShare(0.5), 0.5);
    EXPECT_DOUBLE_EQ(policy.tolerantStrikeProbability(0.5), 0.5);
    EXPECT_TRUE(policy.marginEligible(2, 0.5));
}

TEST(Placement, DigestSensitiveToEveryField)
{
    const PlacementPolicy base;
    const std::uint64_t digest = base.digest();

    PlacementPolicy p = base;
    p.mode = PlacementMode::kHetReliability;
    EXPECT_NE(p.digest(), digest);
    p = base;
    p.hybridTolerantThreshold = 0.6;
    EXPECT_NE(p.digest(), digest);
    p = base;
    p.degradePenalty = 2.0;
    EXPECT_NE(p.digest(), digest);
    p = base;
    p.usageRepresentative[1] = 0.4;
    EXPECT_NE(p.digest(), digest);
}

TEST(Placement, ValidateNamesTheOffendingField)
{
    PlacementPolicy bad;
    bad.mode = static_cast<PlacementMode>(7);
    expectInvalid(bad.validate(), "PlacementPolicy.mode");

    bad = PlacementPolicy{};
    bad.hybridTolerantThreshold = 1.5;
    expectInvalid(bad.validate(),
                  "PlacementPolicy.hybridTolerantThreshold");

    bad = PlacementPolicy{};
    bad.degradePenalty = -1.0;
    expectInvalid(bad.validate(), "PlacementPolicy.degradePenalty");

    bad = PlacementPolicy{};
    bad.usageRepresentative = {0.5, 0.25, 0.75};
    expectInvalid(bad.validate(),
                  "PlacementPolicy.usageRepresentative");
}

// ---------------------------------------------------------------------
// Cluster-simulator integration
// ---------------------------------------------------------------------

std::vector<traces::Job>
placementTrace()
{
    traces::JobTraceModel model;
    model.numJobs = 800;
    model.spanSeconds = 7.0 * 86400.0;
    model.systemNodes = 64;
    traces::GrizzlyTraceGenerator generator(model, 42);
    auto trace = generator.generate();
    // Clamp node counts to the small test system.
    for (auto &job : trace)
        job.nodes = std::min(job.nodes, 64u);
    return trace;
}

sched::ClusterConfig
placementCluster(PlacementMode mode, double ue_per_hour = 1.0e-2)
{
    sched::ClusterConfig config;
    config.nodes = 64;
    config.heteroDmr = true;
    config.marginAware = true;
    config.placement.mode = mode;
    config.faults.intensity = 1.0;
    config.faults.uncorrectablePerHour = ue_per_hour;
    config.faults.horizonSeconds = 7.0 * 86400.0;
    return config;
}

TEST(ClusterPlacement, DefaultPlacementAccountingIsNeutral)
{
    // Under the default (Hetero-DMR) placement, the new accounting
    // must describe exactly the seed behaviour: every UE is critical
    // and kills, nothing degrades, and the copy tax is paid in full.
    const auto trace = placementTrace();
    const auto metrics =
        sched::ClusterSimulator(
            placementCluster(PlacementMode::kHeteroDmr))
            .run(trace);
    EXPECT_GT(metrics.ueInjected, 0u);
    EXPECT_EQ(metrics.tolerantUes, 0u);
    EXPECT_EQ(metrics.criticalUes, metrics.ueInjected);
    EXPECT_EQ(metrics.jobKills, metrics.ueInjected);
    EXPECT_EQ(metrics.jobsDegraded, 0u);
    EXPECT_EQ(metrics.pagesDegraded, 0u);
    EXPECT_EQ(metrics.dataQualityPenalty, 0.0);
    EXPECT_GT(metrics.dmrCopyNodeSeconds, 0.0);
    EXPECT_EQ(metrics.copyNodeSeconds, metrics.dmrCopyNodeSeconds);
}

TEST(ClusterPlacement, HetReliabilityReclaimsAndDegrades)
{
    const auto trace = placementTrace();
    const auto metrics =
        sched::ClusterSimulator(
            placementCluster(PlacementMode::kHetReliability))
            .run(trace);

    // Capacity: the unreplicated tolerant share shrinks the copy tax.
    EXPECT_GT(metrics.dmrCopyNodeSeconds, 0.0);
    EXPECT_LT(metrics.copyNodeSeconds, metrics.dmrCopyNodeSeconds);
    const double reclaimed =
        1.0 - metrics.copyNodeSeconds / metrics.dmrCopyNodeSeconds;
    EXPECT_GT(reclaimed, 0.3);

    // Degradation: tolerant strikes continue with a billed penalty,
    // and every UE lands in exactly one page-class bucket.
    EXPECT_GT(metrics.tolerantUes, 0u);
    EXPECT_GT(metrics.jobsDegraded, 0u);
    EXPECT_EQ(metrics.pagesDegraded, metrics.tolerantUes);
    EXPECT_GT(metrics.dataQualityPenalty, 0.0);
    EXPECT_EQ(metrics.ueInjected,
              metrics.tolerantUes + metrics.criticalUes);
    EXPECT_EQ(metrics.jobKills, metrics.criticalUes);
}

TEST(ClusterPlacement, AllTolerantControlNeverKills)
{
    const auto trace = placementTrace();
    sched::ClusterConfig config =
        placementCluster(PlacementMode::kHetReliability);
    config.criticality.tolerantMean = {1.0, 1.0, 1.0};
    config.criticality.tolerantJitter = 0.0;
    const auto metrics = sched::ClusterSimulator(config).run(trace);
    EXPECT_GT(metrics.ueInjected, 0u);
    EXPECT_EQ(metrics.jobKills, 0u);
    EXPECT_EQ(metrics.requeues, 0u);
    EXPECT_EQ(metrics.tolerantUes, metrics.ueInjected);
    EXPECT_EQ(metrics.jobsCompleted, trace.size());
}

TEST(ClusterPlacement, PlacementFingerprintedIntoConfigDigest)
{
    const auto dmr = placementCluster(PlacementMode::kHeteroDmr);
    auto hetrel = placementCluster(PlacementMode::kHetReliability);
    EXPECT_NE(sched::ClusterSimulator(dmr).configDigest(),
              sched::ClusterSimulator(hetrel).configDigest());

    auto reseeded = dmr;
    reseeded.criticality.seed ^= 1;
    EXPECT_NE(sched::ClusterSimulator(dmr).configDigest(),
              sched::ClusterSimulator(reseeded).configDigest());

    hetrel.placement.degradePenalty = 2.0;
    EXPECT_NE(
        sched::ClusterSimulator(
            placementCluster(PlacementMode::kHetReliability))
            .configDigest(),
        sched::ClusterSimulator(hetrel).configDigest());
}

TEST(ClusterPlacement, SnapshotResumeBitIdenticalWithPlacement)
{
    const auto trace = placementTrace();
    const auto config =
        placementCluster(PlacementMode::kHetReliability);

    sched::RunOptions options;
    options.digestEverySeconds = 21600.0;
    sched::ClusterSimulator straight(config);
    const sched::RunOutcome full = straight.run(trace, options);
    ASSERT_TRUE(full.completed);
    EXPECT_GT(full.metrics.tolerantUes, 0u);

    std::vector<std::uint8_t> image;
    sched::RunOptions stopping = options;
    stopping.stopAfterSeconds = 3.5 * 86400.0;
    stopping.snapshotSink =
        [&image](const std::vector<std::uint8_t> &state) {
            image = state;
        };
    sched::ClusterSimulator interrupted(config);
    const sched::RunOutcome partial =
        interrupted.run(trace, stopping);
    ASSERT_FALSE(partial.completed);
    ASSERT_FALSE(image.empty());

    sched::ClusterSimulator resumed_sim(config);
    const util::Status restored =
        resumed_sim.restoreState(image, trace);
    ASSERT_TRUE(restored.ok()) << restored.message();
    const sched::RunOutcome resumed = resumed_sim.resume(options);
    ASSERT_TRUE(resumed.completed);
    EXPECT_TRUE(
        sched::metricsIdentical(full.metrics, resumed.metrics));
    EXPECT_FALSE(snapshot::DigestTrail::firstDivergence(
                     full.digests, resumed.digests)
                     .has_value());
}

TEST(ClusterPlacement, SnapshotRejectsDifferentPlacement)
{
    const auto trace = placementTrace();
    std::vector<std::uint8_t> image;
    sched::RunOptions stopping;
    stopping.stopAfterSeconds = 2.0 * 86400.0;
    stopping.snapshotSink =
        [&image](const std::vector<std::uint8_t> &state) {
            image = state;
        };
    sched::ClusterSimulator source(
        placementCluster(PlacementMode::kHetReliability));
    source.run(trace, stopping);
    ASSERT_FALSE(image.empty());

    sched::ClusterSimulator other(
        placementCluster(PlacementMode::kHybrid));
    const util::Status status = other.restoreState(image, trace);
    EXPECT_EQ(status.code(),
              util::StatusCode::kFailedPrecondition)
        << status.toString();
    EXPECT_FALSE(status.message().empty());
}

} // namespace
