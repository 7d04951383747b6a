/**
 * @file
 * Fault-injection subsystem tests: campaign determinism and nesting,
 * node-layer delivery through the mode controller's fault surface,
 * the quarantine/margin-demotion policy, and cluster-layer kill /
 * requeue / capacity accounting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/mode_controller.hh"
#include "core/replication.hh"
#include "dram/controller.hh"
#include "fault/campaign.hh"
#include "fault/drift_chaos.hh"
#include "fault/injector.hh"
#include "sched/cluster_sim.hh"
#include "sim/event_queue.hh"
#include "traces/job_trace.hh"
#include "util/status.hh"
#include "util/units.hh"

namespace
{

using namespace hdmr;
using namespace hdmr::fault;

// --------------------------------------------------------------------
// Campaign engine
// --------------------------------------------------------------------

CampaignConfig
channelCampaign(double intensity)
{
    CampaignConfig config;
    config.intensity = intensity;
    config.horizonSeconds = 30.0 * 24 * 3600;
    config.targets = 8;
    // Rates chosen so one campaign expands to a few hundred events:
    // large enough for stable count assertions, small enough to stay
    // fast.
    config.uncorrectablePerHour = 1.0e-2;
    config.burstsPerHour = 2.0e-2;
    config.driftEventsPerHour = 5.0e-3;
    config.excursionsPerHour = 1.0e-2;
    return config;
}

TEST(FaultCampaign, ZeroIntensityIsDisabledAndEmpty)
{
    const auto config = channelCampaign(0.0);
    EXPECT_FALSE(config.enabled());
    EXPECT_TRUE(FaultCampaign(config).schedule().empty());
}

TEST(FaultCampaign, ScheduleIsDeterministicAndTimeSorted)
{
    const auto a = FaultCampaign(channelCampaign(1.0)).schedule();
    const auto b = FaultCampaign(channelCampaign(1.0)).schedule();
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].atSeconds, b[i].atSeconds);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].target, b[i].target);
        EXPECT_EQ(a[i].magnitude, b[i].magnitude);
        EXPECT_EQ(a[i].durationSeconds, b[i].durationSeconds);
        if (i > 0) {
            EXPECT_GE(a[i].atSeconds, a[i - 1].atSeconds);
        }
        EXPECT_LT(a[i].atSeconds, channelCampaign(1.0).horizonSeconds);
        EXPECT_LT(a[i].target, 8u);
        if (a[i].kind == FaultKind::kTemperatureExcursion) {
            EXPECT_GT(a[i].durationSeconds, 0.0);
        }
        if (a[i].kind == FaultKind::kErrorBurst) {
            EXPECT_GE(a[i].magnitude, 1.0);
        }
    }
}

TEST(FaultCampaign, IntensityScalesEventCount)
{
    const auto low = FaultCampaign(channelCampaign(1.0)).schedule();
    const auto high = FaultCampaign(channelCampaign(4.0)).schedule();
    EXPECT_GT(low.size(), 0u);
    // Poisson counts at 4x the rate: far more events, with slack for
    // sampling noise.
    EXPECT_GT(high.size(), 2 * low.size());
}

TEST(FaultCampaign, KindStreamsAreIndependent)
{
    // Enabling the other fault kinds must not perturb the UE stream.
    auto only_ue = channelCampaign(1.0);
    only_ue.burstsPerHour = 0.0;
    only_ue.driftEventsPerHour = 0.0;
    only_ue.excursionsPerHour = 0.0;
    const auto isolated = FaultCampaign(only_ue).schedule();

    std::vector<FaultEvent> from_full;
    for (const auto &fault : FaultCampaign(channelCampaign(1.0)).schedule())
        if (fault.kind == FaultKind::kTransientUncorrectable)
            from_full.push_back(fault);

    ASSERT_FALSE(isolated.empty());
    ASSERT_EQ(isolated.size(), from_full.size());
    for (std::size_t i = 0; i < isolated.size(); ++i) {
        EXPECT_EQ(isolated[i].atSeconds, from_full[i].atSeconds);
        EXPECT_EQ(isolated[i].target, from_full[i].target);
    }
}

TEST(FaultCampaign, KillTimesAreNestedAcrossRates)
{
    // One uniform draw per (job, attempt) mapped through the
    // exponential inverse CDF: deterministic, and strictly decreasing
    // in the rate, so higher intensities kill a superset of jobs.
    for (unsigned job = 1; job <= 40; ++job) {
        for (unsigned attempt = 1; attempt <= 3; ++attempt) {
            const double slow =
                FaultCampaign::killTimeSeconds(7, job, attempt, 1.0e-6);
            const double fast =
                FaultCampaign::killTimeSeconds(7, job, attempt, 4.0e-6);
            EXPECT_GT(slow, 0.0);
            EXPECT_LT(fast, slow);
            EXPECT_EQ(slow, FaultCampaign::killTimeSeconds(7, job,
                                                           attempt,
                                                           1.0e-6));
        }
    }
    // Different attempts re-roll; zero rate never kills.
    EXPECT_NE(FaultCampaign::killTimeSeconds(7, 1, 1, 1.0e-6),
              FaultCampaign::killTimeSeconds(7, 1, 2, 1.0e-6));
    EXPECT_TRUE(std::isinf(
        FaultCampaign::killTimeSeconds(7, 1, 1, 0.0)));
}

TEST(FaultAccounting, MergeAndCounterExport)
{
    FaultAccounting a;
    a.injected = 3;
    a.uncorrectable = 1;
    FaultAccounting b;
    b.injected = 2;
    b.excursions = 4;
    a.merge(b);
    EXPECT_EQ(a.injected, 5u);
    EXPECT_EQ(a.uncorrectable, 1u);
    EXPECT_EQ(a.excursions, 4u);
}

// --------------------------------------------------------------------
// Node-layer delivery and the quarantine policy
// --------------------------------------------------------------------

core::ModeControllerConfig
hdmrChannelConfig()
{
    core::ModeControllerConfig config;
    config.specSetting = dram::MemorySetting::manufacturerSpec();
    config.fastSetting = dram::MemorySetting::exploitFreqLatMargins();
    config.plan = core::ReplicationManager::planChannel(
        core::ReplicationMode::kHeteroDmr);
    return config;
}

TEST(NodeFaultInjector, DeliversEveryChannelScopedKind)
{
    sim::EventQueue events;
    auto mc_config = hdmrChannelConfig();
    auto cc = core::ModeController::buildControllerConfig(mc_config, 1);
    dram::MemoryController controller(events, cc);
    core::ModeController mode(events, controller, nullptr,
                              [](std::uint64_t) { return true; },
                              mc_config);

    std::vector<FaultEvent> schedule;
    schedule.push_back({1.0e-6, FaultKind::kTransientUncorrectable, 0});
    schedule.push_back({2.0e-6, FaultKind::kErrorBurst, 0, 5.0});
    schedule.push_back({3.0e-6, FaultKind::kMarginDrift, 0, 200.0});
    FaultEvent excursion;
    excursion.atSeconds = 4.0e-6;
    excursion.kind = FaultKind::kTemperatureExcursion;
    excursion.durationSeconds = 2.0e-6;
    schedule.push_back(excursion);
    // Cluster-scoped kind: counted, not delivered to a channel.
    schedule.push_back({5.0e-6, FaultKind::kNodeFailure, 0});

    NodeFaultInjector injector(events, {&mode});
    injector.arm(schedule);
    events.run();

    EXPECT_EQ(mode.stats().uncorrectedErrors, 1u);
    EXPECT_EQ(mode.stats().corrections, 5u);
    EXPECT_EQ(mode.stats().marginDriftMts, 200u);
    const auto &acct = injector.accounting();
    EXPECT_EQ(acct.injected, 5u);
    EXPECT_EQ(acct.uncorrectable, 1u);
    EXPECT_EQ(acct.detectedErrors, 5u);
    EXPECT_EQ(acct.marginDriftMts, 200u);
    EXPECT_EQ(acct.excursions, 1u);
    EXPECT_EQ(acct.nodeFailures, 1u);
}

TEST(NodeFaultInjector, HorizonDropsLateEvents)
{
    sim::EventQueue events;
    auto mc_config = hdmrChannelConfig();
    auto cc = core::ModeController::buildControllerConfig(mc_config, 1);
    dram::MemoryController controller(events, cc);
    core::ModeController mode(events, controller, nullptr,
                              [](std::uint64_t) { return true; },
                              mc_config);
    std::vector<FaultEvent> schedule;
    schedule.push_back({1.0e-6, FaultKind::kErrorBurst, 0, 1.0});
    schedule.push_back({1.0, FaultKind::kErrorBurst, 0, 1.0});

    NodeFaultInjector injector(events, {&mode});
    injector.arm(schedule, util::kTicksPerMs);
    events.run();
    EXPECT_EQ(injector.accounting().injected, 1u);
}

TEST(QuarantinePolicy, RepeatedRecoveriesDemoteDownToQuarantine)
{
    sim::EventQueue events;
    auto mc_config = hdmrChannelConfig();
    mc_config.quarantine.demoteAfterRecoveries = 1;
    auto cc = core::ModeController::buildControllerConfig(mc_config, 1);
    dram::MemoryController controller(events, cc);
    core::ModeController mode(events, controller, nullptr,
                              [](std::uint64_t) { return true; },
                              mc_config);

    ASSERT_TRUE(mode.fastOperationEnabled());
    ASSERT_EQ(mode.fastRateMts(), 4000u);

    // Each UE triggers one demotion step: 4000 -> 3800 -> 3600 -> 3400.
    mode.injectUncorrectable();
    EXPECT_EQ(mode.fastRateMts(), 3800u);
    EXPECT_FALSE(mode.fastOperationEnabled()); // re-profiling downtime
    events.run(events.curTick() + util::kTicksPerMs);
    EXPECT_TRUE(mode.fastOperationEnabled());

    mode.injectUncorrectable();
    mode.injectUncorrectable();
    EXPECT_EQ(mode.fastRateMts(), 3400u);
    EXPECT_FALSE(mode.quarantined());

    // 3400 MT/s is the last exploitable step above the 3200 MT/s spec:
    // the next demotion quarantines the channel at specification.
    mode.injectUncorrectable();
    EXPECT_TRUE(mode.quarantined());
    EXPECT_EQ(mode.fastRateMts(), 3200u);
    EXPECT_EQ(mode.stats().demotions, 4u);
    EXPECT_EQ(mode.stats().quarantines, 1u);

    // Quarantined channels never run fast again: no re-enable event
    // fires, and injected bursts are no-ops at specification.
    events.run();
    EXPECT_FALSE(mode.fastOperationEnabled());
    mode.injectDetectedErrors(100);
    EXPECT_EQ(mode.stats().corrections, 0u);
}

TEST(UncorrectablePath, FailedRecoveryReadsSurfaceThroughController)
{
    sim::EventQueue events;
    auto mc_config = hdmrChannelConfig();
    mc_config.readErrorProbability = 1.0;       // every fast read errors
    mc_config.recoveryFailureProbability = 1.0; // every recovery fails
    auto cc = core::ModeController::buildControllerConfig(mc_config, 1);
    dram::MemoryController controller(events, cc);
    core::ModeController mode(events, controller, nullptr,
                              [](std::uint64_t) { return true; },
                              mc_config);

    for (int i = 0; i < 16; ++i) {
        dram::MemRequest request;
        request.address = 0x100000 + 64 * i;
        controller.enqueueRead(std::move(request));
        events.run(events.curTick() + util::kTicksPerMs);
    }

    EXPECT_EQ(mode.stats().corrections, 16u);
    EXPECT_EQ(mode.stats().uncorrectedErrors, 16u);
    EXPECT_EQ(controller.stats().uncorrectableErrors, 16u);
}

// --------------------------------------------------------------------
// Cluster layer
// --------------------------------------------------------------------

std::vector<traces::Job>
smallTrace()
{
    traces::JobTraceModel model;
    model.numJobs = 3000;
    model.spanSeconds = 7.0 * 24 * 3600;
    model.systemNodes = 200;
    traces::GrizzlyTraceGenerator generator(model, 7);
    return generator.generate();
}

sched::ClusterConfig
smallCluster()
{
    sched::ClusterConfig config;
    config.nodes = 200;
    config.heteroDmr = true;
    config.marginAware = true;
    return config;
}

/** Cluster-layer fault rates, per node-hour at intensity 1. */
void
armClusterFaults(sched::ClusterConfig &config, double intensity)
{
    config.faults.intensity = intensity;
    config.faults.uncorrectablePerHour = 1.0e-3;
    config.faults.horizonSeconds = 7.0 * 24 * 3600;
}

TEST(ClusterFaults, ZeroCampaignReproducesFaultFreeRunExactly)
{
    const auto jobs = smallTrace();
    const auto plain = sched::ClusterSimulator(smallCluster()).run(jobs);

    auto config = smallCluster();
    config.faults.uncorrectablePerHour = 1.0; // armed but intensity 0
    config.faults.nodeFailuresPerHour = 1.0;
    config.faults.demotionsPerHour = 1.0;
    config.resilience.requeueBackoffBaseSeconds = 999.0;
    const auto gated = sched::ClusterSimulator(config).run(jobs);

    EXPECT_EQ(plain.jobsCompleted, gated.jobsCompleted);
    EXPECT_EQ(plain.meanExecSeconds, gated.meanExecSeconds);
    EXPECT_EQ(plain.meanQueueSeconds, gated.meanQueueSeconds);
    EXPECT_EQ(plain.meanTurnaroundSeconds, gated.meanTurnaroundSeconds);
    EXPECT_EQ(plain.meanNodeUtilization, gated.meanNodeUtilization);
    EXPECT_EQ(gated.ueInjected, 0u);
    EXPECT_EQ(gated.jobKills, 0u);
    EXPECT_EQ(gated.requeues, 0u);
    EXPECT_EQ(gated.lostNodeSeconds, 0.0);
}

TEST(ClusterFaults, EveryUeKillsAndRequeuesExactlyOnce)
{
    const auto jobs = smallTrace();
    auto config = smallCluster();
    armClusterFaults(config, 2.0);
    const auto metrics = sched::ClusterSimulator(config).run(jobs);

    EXPECT_GT(metrics.ueInjected, 0u);
    EXPECT_EQ(metrics.ueInjected, metrics.jobKills);
    EXPECT_EQ(metrics.jobKills, metrics.requeues);
    // Killed jobs are requeued, not lost: everything completes.
    EXPECT_EQ(metrics.jobsCompleted, jobs.size());
    EXPECT_EQ(metrics.jobsDropped, 0u);
    EXPECT_GT(metrics.lostNodeSeconds, 0.0);
}

TEST(ClusterFaults, TurnaroundDegradesMonotonicallyWithIntensity)
{
    const auto jobs = smallTrace();
    double previous = 0.0;
    std::uint64_t previous_kills = 0;
    for (const double intensity : {0.0, 2.0, 8.0}) {
        auto config = smallCluster();
        armClusterFaults(config, intensity);
        const auto metrics = sched::ClusterSimulator(config).run(jobs);
        if (intensity > 0.0) {
            EXPECT_GT(metrics.meanTurnaroundSeconds, previous);
            EXPECT_GT(metrics.jobKills, previous_kills);
        }
        previous = metrics.meanTurnaroundSeconds;
        previous_kills = metrics.jobKills;
    }
}

TEST(ClusterFaults, CheckpointingSalvagesLostWork)
{
    const auto jobs = smallTrace();
    auto config = smallCluster();
    armClusterFaults(config, 8.0);
    const auto bare = sched::ClusterSimulator(config).run(jobs);

    config.resilience.checkpointIntervalSeconds = 1800.0;
    config.resilience.checkpointOverheadFraction = 0.02;
    const auto ckpt = sched::ClusterSimulator(config).run(jobs);

    EXPECT_GT(bare.lostNodeSeconds, 0.0);
    EXPECT_LT(ckpt.lostNodeSeconds, bare.lostNodeSeconds);
    EXPECT_GT(ckpt.checkpointOverheadSeconds, 0.0);
    EXPECT_EQ(ckpt.jobsCompleted, jobs.size());
}

TEST(ClusterFaults, FailuresAndDemotionsReshapeTheMachine)
{
    const auto jobs = smallTrace();
    const auto plain = sched::ClusterSimulator(smallCluster()).run(jobs);

    auto config = smallCluster();
    config.faults.intensity = 1.0;
    config.faults.nodeFailuresPerHour = 1.0e-3;
    config.faults.demotionsPerHour = 4.0e-3;
    config.faults.horizonSeconds = 7.0 * 24 * 3600;
    const auto metrics = sched::ClusterSimulator(config).run(jobs);

    EXPECT_GT(metrics.nodesFailed, 0u);
    EXPECT_GT(metrics.nodesDemoted, 0u);
    // Every job either completes on the surviving capacity or is
    // dropped because no surviving partition can ever hold it.
    EXPECT_EQ(metrics.jobsCompleted + metrics.jobsDropped, jobs.size());
    // Fewer, slower nodes can only hurt mean turnaround.
    EXPECT_GT(metrics.meanTurnaroundSeconds,
              plain.meanTurnaroundSeconds);
}

// --------------------------------------------------------------------
// Drift chaos campaign
// --------------------------------------------------------------------

DriftScenarioConfig
driftScenario()
{
    DriftScenarioConfig scenario;
    scenario.drift.seed = 0xd21f7u;
    scenario.drift.modules = 3;
    scenario.drift.horizonHours = 1100.0;
    scenario.drift.agingMtsPerKiloHour = 1000.0;
    scenario.drift.agingSigma = 0.0; // every module at the median rate
    scenario.drift.diurnalAmplitudeC = 12.0;
    scenario.drift.spikesPerKiloHour = 3.0;
    scenario.marginStepMts = 200.0;
    scenario.targetsPerModule = 2;
    scenario.excursionThresholdC = 10.0;
    scenario.spikeBurstErrors = 50.0;
    return scenario;
}

bool
sameEvent(const FaultEvent &a, const FaultEvent &b)
{
    return a.atSeconds == b.atSeconds && a.kind == b.kind &&
           a.target == b.target && a.magnitude == b.magnitude &&
           a.durationSeconds == b.durationSeconds;
}

TEST(DriftChaos, ScheduleIsDeterministic)
{
    const DriftChaosCampaign a(driftScenario());
    const DriftChaosCampaign b(driftScenario());
    ASSERT_EQ(a.schedule().size(), b.schedule().size());
    for (size_t i = 0; i < a.schedule().size(); ++i)
        EXPECT_TRUE(sameEvent(a.schedule()[i], b.schedule()[i]));
    EXPECT_EQ(a.model().digest(), b.model().digest());
    EXPECT_TRUE(std::is_sorted(a.schedule().begin(), a.schedule().end(),
                               [](const FaultEvent &x,
                                  const FaultEvent &y) {
                                   return x.atSeconds < y.atSeconds;
                               }));
}

TEST(DriftChaos, MarginCrossingsMatchTheAnalyticCurve)
{
    // With agingSigma = 0 every module erodes at exactly the median
    // rate, so erosion(h) = 1000 * (h/1000) crosses k * 200 MT/s at
    // h = 200 k hours: five crossings inside 1100 h, fanned out to
    // each of the module's schedule targets.
    const auto scenario = driftScenario();
    const DriftChaosCampaign chaos(scenario);
    const auto crossings = chaos.schedule(FaultKind::kMarginDrift);
    ASSERT_EQ(crossings.size(), static_cast<size_t>(
                                    5 * scenario.drift.modules *
                                    scenario.targetsPerModule));
    for (const FaultEvent &ev : crossings) {
        const double hour = ev.atSeconds / 3600.0;
        const double steps = hour / 200.0;
        EXPECT_NEAR(steps, std::round(steps), 1e-9);
        EXPECT_DOUBLE_EQ(ev.magnitude, scenario.marginStepMts);
        EXPECT_LT(ev.target, scenario.drift.modules *
                                 scenario.targetsPerModule);
    }
}

TEST(DriftChaos, ExcursionWindowsAreFleetWideAndBounded)
{
    const auto scenario = driftScenario();
    const DriftChaosCampaign chaos(scenario);
    const auto windows =
        chaos.schedule(FaultKind::kTemperatureExcursion);
    ASSERT_FALSE(windows.empty());
    for (const FaultEvent &ev : windows) {
        EXPECT_EQ(ev.target, 0u);
        EXPECT_GT(ev.durationSeconds, 0.0);
        EXPECT_LE(ev.atSeconds + ev.durationSeconds,
                  scenario.drift.horizonHours * 3600.0 + 1e-6);
    }

    // Raising the threshold above the diurnal amplitude closes every
    // window.
    auto cool = scenario;
    cool.excursionThresholdC = scenario.drift.diurnalAmplitudeC + 1.0;
    const DriftChaosCampaign quiet(cool);
    EXPECT_TRUE(
        quiet.schedule(FaultKind::kTemperatureExcursion).empty());
}

TEST(DriftChaos, ClusterScheduleMapsKindsForTheClusterLayer)
{
    const DriftChaosCampaign chaos(driftScenario());
    const auto cluster = chaos.clusterSchedule();
    const auto drifts = chaos.schedule(FaultKind::kMarginDrift);
    const auto windows =
        chaos.schedule(FaultKind::kTemperatureExcursion);
    EXPECT_EQ(cluster.size(), drifts.size() + windows.size());

    size_t demotions = 0;
    for (const FaultEvent &ev : cluster) {
        // Bursts have no cluster-layer consumer and must not leak.
        ASSERT_NE(ev.kind, FaultKind::kErrorBurst);
        if (ev.kind == FaultKind::kGroupDemotion) {
            EXPECT_DOUBLE_EQ(ev.magnitude, 1.0); // one margin group
            ++demotions;
        } else {
            ASSERT_EQ(ev.kind, FaultKind::kTemperatureExcursion);
        }
    }
    EXPECT_EQ(demotions, drifts.size());
}

TEST(DriftChaos, ComposeWithMergesTimeSorted)
{
    const DriftChaosCampaign chaos(driftScenario());
    const FaultCampaign base(channelCampaign(1.0));
    const auto merged = chaos.composeWith(base);
    EXPECT_EQ(merged.size(),
              base.schedule().size() + chaos.schedule().size());
    EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(),
                               [](const FaultEvent &a,
                                  const FaultEvent &b) {
                                   return a.atSeconds < b.atSeconds;
                               }));
}

TEST(DriftChaos, ValidateRejectsBadScenario)
{
    const auto expect_invalid = [](const util::Status &status,
                                   const char *field) {
        EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
            << status.message();
        EXPECT_NE(status.message().find(field), std::string::npos)
            << status.message();
    };
    DriftScenarioConfig scenario = driftScenario();
    scenario.marginStepMts = 0.0;
    expect_invalid(scenario.validate(), "marginStepMts");
    scenario = driftScenario();
    scenario.targetsPerModule = 0;
    expect_invalid(scenario.validate(), "targetsPerModule");
    scenario = driftScenario();
    scenario.excursionThresholdC = -1.0;
    expect_invalid(scenario.validate(), "excursionThresholdC");
    scenario = driftScenario();
    scenario.spikeBurstErrors =
        -std::numeric_limits<double>::infinity();
    expect_invalid(scenario.validate(), "spikeBurstErrors");
    // Construction still dies on a bad scenario (checkOk at the CLI
    // boundary).
    scenario = driftScenario();
    scenario.marginStepMts = 0.0;
    EXPECT_EXIT(DriftChaosCampaign campaign(scenario),
                ::testing::ExitedWithCode(1), "marginStepMts");
}

} // namespace
