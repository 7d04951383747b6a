#include "drift_campaign.hh"

#include <cstdint>
#include <cstdio>

#include "snapshot/digest.hh"
#include "util/status.hh"

namespace hdmr::bench
{

fault::DriftScenarioConfig
referenceScenario(double horizon_hours, unsigned modules,
                  unsigned targets_per_module, double aging_rate,
                  double spikes_per_kilo_hour)
{
    fault::DriftScenarioConfig scenario;
    scenario.drift.seed = 0xd21f7;
    scenario.drift.modules = modules;
    scenario.drift.horizonHours = horizon_hours;
    scenario.drift.agingMtsPerKiloHour = aging_rate;
    scenario.drift.agingSigma = 0.5;
    scenario.drift.agingExponent = 1.0;
    scenario.drift.cohortSize = 8;
    scenario.drift.cohortCorrelation = 0.5;
    scenario.drift.diurnalAmplitudeC = 12.0;
    scenario.drift.diurnalPeakHour = 14.0;
    scenario.drift.spikesPerKiloHour = spikes_per_kilo_hour;
    scenario.drift.spikeMeanHours = 0.25;
    scenario.drift.spikeErrorMultiplier = 6.0;
    scenario.marginStepMts = 200.0;
    scenario.targetsPerModule = targets_per_module;
    scenario.excursionThresholdC = 10.0;
    scenario.spikeBurstErrors = 200.0;
    return scenario;
}

void
runInterruptResumeCheck(const sched::ClusterConfig &config,
                        const std::vector<traces::Job> &jobs,
                        double stop_after_seconds,
                        double digest_every_seconds, Harness &harness)
{
    sched::RunOptions options;
    options.digestEverySeconds = digest_every_seconds;

    sched::ClusterSimulator straight(config);
    const sched::RunOutcome full = straight.run(jobs, options);
    harness.check(full.completed && !full.digests.digests.empty(),
                  "straight-through run records a digest trail");

    std::vector<std::uint8_t> image;
    sched::RunOptions stopping = options;
    stopping.stopAfterSeconds = stop_after_seconds;
    stopping.snapshotSink =
        [&image](const std::vector<std::uint8_t> &state) {
            image = state;
        };
    sched::ClusterSimulator interrupted(config);
    const sched::RunOutcome partial = interrupted.run(jobs, stopping);
    harness.check(!partial.completed && !image.empty(),
                  "mid-campaign interrupt emits a snapshot");

    sched::ClusterSimulator resumed_sim(config);
    const util::Status restored =
        resumed_sim.restoreState(image, jobs);
    if (!restored.ok())
        std::fprintf(stderr, "%s: restore failed: %s\n",
                     harness.name().c_str(),
                     restored.message().c_str());
    harness.check(restored.ok(), "mid-campaign snapshot restores");
    if (!restored.ok())
        return;
    const sched::RunOutcome resumed = resumed_sim.resume(options);
    harness.check(resumed.completed,
                  "resumed campaign runs to completion");
    harness.check(sched::metricsIdentical(full.metrics, resumed.metrics),
                  "resumed metrics bit-identical to straight-through");
    harness.check(!snapshot::DigestTrail::firstDivergence(
                       full.digests, resumed.digests)
                       .has_value(),
                  "digest trail identical across interrupt/resume");
}

} // namespace hdmr::bench
