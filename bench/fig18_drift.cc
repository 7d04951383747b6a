/**
 * @file
 * Fig. 18 (drift extension): margin-drift chaos campaign - what happens
 * to Hetero-DMR's fleet when the margins themselves move.
 *
 * The reference scenario arms a seeded margin::MarginDriftModel (aging
 * erosion with correlated cohorts, a diurnal temperature sinusoid,
 * transient voltage-noise spikes) through fault::DriftChaosCampaign and
 * replays the Grizzly trace three ways:
 *
 *   conventional            no margin exploitation (speedup anchor)
 *   hetero-dmr-clean        static margins, organic faults only - the
 *                           paper's world, and the loss baseline
 *   static-margin-drift     the fleet flies the qualification-time
 *                           margins into the drift: every erosion
 *                           crossing lands as an error-storm demotion,
 *                           UEs run elevated (errors eaten between the
 *                           crossing and the reactive ladder noticing),
 *                           hot windows carry the full UE multiplier
 *
 * and prints the static leg's throughput loss against the clean one.
 * A verify::SdcAudit pair (drift error-burst overlay vs. none) proves
 * drift raises detected-error pressure without a single additional
 * silent escape, and `--smoke` additionally proves a mid-campaign
 * interrupt/resume bit-identical to the straight-through run via the
 * state-digest trail.
 *
 * Flags: `--smoke` (alone) runs the deterministic self-checking
 * campaign ctest registers as fig18_drift_smoke; otherwise the
 * standard SweepRunner flags apply (--snapshot-every, --resume-from,
 * --telemetry-out, ... - see --help).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "drift_campaign.hh"
#include "ecc/bamboo.hh"
#include "fault/drift_chaos.hh"
#include "sched/cluster_sim.hh"
#include "snapshot/serializer.hh"
#include "snapshot_cli.hh"
#include "traces/job_trace.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "verify/audit.hh"

namespace
{

using namespace hdmr;

/** Organic fault rates shared by every faulted leg (fig18 baseline). */
constexpr double kUePerHour = 1.0e-4;
constexpr double kNodeFailuresPerHour = 2.0e-6;
constexpr double kDemotionsPerHour = 1.0e-5;
/** UE elevation while a static-margin fleet flies eroded margins. */
constexpr double kStaticDriftUeFactor = 4.0;

sched::ClusterConfig
legConfig(bool hdmr, const std::vector<fault::FaultEvent> &overlay,
          double ue_per_hour, double horizon_seconds, unsigned nodes,
          const sched::SpeedupTable &speedups)
{
    sched::ClusterConfig config;
    config.nodes = nodes;
    config.heteroDmr = hdmr;
    config.marginAware = hdmr;
    config.speedups = speedups;
    config.faults.intensity = 1.0;
    config.faults.uncorrectablePerHour = ue_per_hour;
    config.faults.nodeFailuresPerHour = kNodeFailuresPerHour;
    config.faults.demotionsPerHour = kDemotionsPerHour;
    config.faults.horizonSeconds = horizon_seconds;
    config.scheduleOverlay = overlay;
    return config;
}

/** Throughput loss of `leg` vs. `baseline` (1 - relative throughput). */
double
throughputLoss(const sched::ClusterMetrics &baseline,
               const sched::ClusterMetrics &leg)
{
    if (leg.meanTurnaroundSeconds <= 0.0)
        return 0.0;
    return 1.0 -
           baseline.meanTurnaroundSeconds / leg.meanTurnaroundSeconds;
}

std::size_t
countKind(const std::vector<fault::FaultEvent> &schedule,
          fault::FaultKind kind)
{
    std::size_t n = 0;
    for (const fault::FaultEvent &ev : schedule)
        n += ev.kind == kind ? 1 : 0;
    return n;
}

bool
schedulesIdentical(const std::vector<fault::FaultEvent> &a,
                   const std::vector<fault::FaultEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].atSeconds != b[i].atSeconds || a[i].kind != b[i].kind ||
            a[i].target != b[i].target ||
            a[i].magnitude != b[i].magnitude ||
            a[i].durationSeconds != b[i].durationSeconds)
            return false;
    }
    return true;
}

/**
 * The SDC leg pair: the same audit fleet with and without the drift
 * scenario's error-burst overlay.  Run with the constructed-escape
 * sampler branch off (escapeLambda = 0) so "zero silent escapes" is a
 * literal raw count, then once more with importance sampling on to
 * show the 2^-64 escape bound itself survives the drift bursts.
 */
void
runSdcSection(const fault::DriftScenarioConfig &scenario,
              double accesses_per_hour, bench::Harness &harness)
{
    const auto escape =
        static_cast<unsigned>(verify::AccessClass::kSilentEscape);
    fault::DriftChaosCampaign chaos(scenario);
    const std::vector<fault::FaultEvent> bursts =
        chaos.schedule(fault::FaultKind::kErrorBurst);

    verify::SdcAuditConfig quiet;
    quiet.modules = scenario.drift.modules;
    quiet.hours = static_cast<unsigned>(scenario.drift.horizonHours);
    quiet.accessesPerHour = accesses_per_hour;
    quiet.escapeLambda = 0.0; // natural wide draws only
    verify::SdcAuditConfig drifted = quiet;
    drifted.scheduleOverlay = bursts;

    verify::SdcAudit baseline(quiet);
    baseline.run();
    verify::SdcAudit drift(drifted);
    drift.run();
    const verify::SdcAuditReport base_report = baseline.report();
    const verify::SdcAuditReport drift_report = drift.report();

    std::printf("\nSDC containment under drift (%zu burst events):\n"
                "  %-28s %18s %18s\n"
                "  %-28s %18llu %18llu\n"
                "  %-28s %18llu %18llu\n",
                bursts.size(), "", "baseline", "drift",
                "detected errors",
                static_cast<unsigned long long>(
                    base_report.detectedErrors),
                static_cast<unsigned long long>(
                    drift_report.detectedErrors),
                "silent escapes (raw)",
                static_cast<unsigned long long>(
                    base_report.total.raw[escape]),
                static_cast<unsigned long long>(
                    drift_report.total.raw[escape]));

    harness.check(base_report.total.unclassified == 0 &&
                      drift_report.total.unclassified == 0,
                  "every audited access classified");
    harness.check(drift_report.detectedErrors > base_report.detectedErrors,
                  "drift bursts raise detected-error pressure");
    harness.check(drift_report.total.raw[escape] <=
                      base_report.total.raw[escape],
                  "zero silent-escape increase under drift");

    // Importance-sampled pass: the measured per-wide-error escape
    // probability stays consistent with the codec's analytic bound.
    verify::SdcAuditConfig sampled = drifted;
    sampled.escapeLambda = 0.5;
    sampled.wideOversample = 0.5;
    verify::SdcAudit tail(sampled);
    tail.run();
    harness.check(tail.report().escapeConsistentWith(
                      ecc::BambooCodec::escapeProbability8BPlus(), 2.0),
                  "escape rate under drift consistent with 2^-64 bound");
}

/** The deterministic self-checking campaign ctest gates on. */
int
runSmoke(bench::Harness &harness)
{
    // A compressed scenario: one week, 64 nodes, aging fast enough
    // that most modules cross a margin step inside the horizon.
    const double horizon_hours = 7.0 * 24.0;
    const fault::DriftScenarioConfig scenario =
        bench::referenceScenario(horizon_hours, 8, 4, 1500.0, 12.0);

    std::printf("FIG. 18 DRIFT (smoke): %u drift modules x %.0f h\n\n",
                scenario.drift.modules, horizon_hours);

    // Schedule determinism and realization fingerprinting.
    fault::DriftChaosCampaign chaos(scenario);
    fault::DriftChaosCampaign again(scenario);
    harness.check(schedulesIdentical(chaos.schedule(), again.schedule()) &&
                      chaos.model().digest() == again.model().digest(),
                  "drift schedule is a pure function of the scenario");
    const std::vector<fault::FaultEvent> overlay =
        chaos.clusterSchedule();
    harness.check(countKind(overlay, fault::FaultKind::kGroupDemotion) > 0 &&
                      countKind(overlay,
                                fault::FaultKind::kTemperatureExcursion) > 0 &&
                      countKind(chaos.schedule(),
                                fault::FaultKind::kErrorBurst) > 0,
                  "reference scenario produces all three drift event kinds");

    snapshot::Serializer out;
    chaos.model().save(out);
    {
        margin::MarginDriftModel same(scenario.drift);
        snapshot::Deserializer in(out.data());
        harness.check(same.restore(in) && in.ok() && in.remaining() == 0,
                      "drift realization fingerprint round-trips");
    }
    {
        margin::DriftConfig other = scenario.drift;
        other.seed ^= 1;
        margin::MarginDriftModel different(other);
        snapshot::Deserializer in(out.data());
        harness.check(!different.restore(in),
                      "fingerprint rejects a different drift realization");
    }

    // The fleet sweep on a one-week trace slice.
    traces::JobTraceModel trace_model;
    trace_model.numJobs = 1200;
    trace_model.spanSeconds = 7.0 * 86400.0;
    trace_model.systemNodes = 64;
    traces::GrizzlyTraceGenerator generator(trace_model, 42);
    const auto jobs = generator.generate();

    sched::SpeedupTable speedups;
    speedups.at800 = 1.13;
    speedups.at600 = 1.10;

    const sched::ClusterConfig clean_config =
        legConfig(true, {}, kUePerHour, trace_model.spanSeconds,
                  trace_model.systemNodes, speedups);
    const sched::ClusterConfig static_config = legConfig(
        true, overlay, kUePerHour * kStaticDriftUeFactor,
        trace_model.spanSeconds, trace_model.systemNodes, speedups);

    const auto clean =
        sched::ClusterSimulator(clean_config).run(jobs);
    const auto statm =
        sched::ClusterSimulator(static_config).run(jobs);

    harness.check(statm.nodesDemoted > clean.nodesDemoted &&
                      statm.excursions > 0,
                  "drift overlay lands demotions and hot windows");

    std::printf("\nthroughput loss vs clean: static %.2f%%\n",
                throughputLoss(clean, statm) * 100.0);

    // Interrupt/resume bit-identity on the most eventful leg.
    bench::runInterruptResumeCheck(static_config, jobs,
                                   trace_model.spanSeconds / 2.0,
                                   21600.0, harness);

    // SDC containment: drift bursts on a small audit fleet.
    runSdcSection(bench::referenceScenario(8.0, 2, 1, 0.0, 500.0), 1.0e8,
                  harness);
    return harness.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness("fig18_drift");
    bool smoke = false;
    harness.flag("--smoke", &smoke,
                 "deterministic self-checking campaign (takes no "
                 "other flag)");
    bench::SweepRunner runner(harness);
    harness.parse(argc, argv);
    if (smoke) {
        if (argc != 2)
            util::fatal("fig18_drift: --smoke takes no other flags");
        return runSmoke(harness);
    }
    runner.start();

    traces::JobTraceModel trace_model;
    traces::GrizzlyTraceGenerator generator(trace_model, 42);
    const auto jobs = generator.generate();

    const double horizon_hours = trace_model.spanSeconds / 3600.0;
    const fault::DriftScenarioConfig scenario =
        bench::referenceScenario(horizon_hours, 64, 16, 100.0, 2.0);
    fault::DriftChaosCampaign chaos(scenario);
    const std::vector<fault::FaultEvent> overlay =
        chaos.clusterSchedule();

    std::printf("FIG. 18 DRIFT: margin-drift chaos campaign\n");
    std::printf("trace: %zu jobs / %u nodes / %.0f days\n",
                jobs.size(), trace_model.systemNodes,
                trace_model.spanSeconds / 86400.0);
    std::printf("drift schedule: %zu demotion crossings, %zu hot "
                "windows, %zu voltage-noise bursts\n\n",
                countKind(overlay, fault::FaultKind::kGroupDemotion),
                countKind(overlay,
                          fault::FaultKind::kTemperatureExcursion),
                countKind(chaos.schedule(),
                          fault::FaultKind::kErrorBurst));

    sched::SpeedupTable speedups;
    speedups.at800 = 1.13;
    speedups.at600 = 1.10;

    const auto conventional = runner.leg(
        "conventional",
        legConfig(false, {}, kUePerHour, trace_model.spanSeconds,
                  trace_model.systemNodes, speedups),
        jobs);
    const auto clean = runner.leg(
        "hetero-dmr-clean",
        legConfig(true, {}, kUePerHour, trace_model.spanSeconds,
                  trace_model.systemNodes, speedups),
        jobs);
    const auto statm = runner.leg(
        "static-margin-drift",
        legConfig(true, overlay, kUePerHour * kStaticDriftUeFactor,
                  trace_model.spanSeconds, trace_model.systemNodes,
                  speedups),
        jobs);
    if (runner.stoppedEarly())
        return runner.finish();

    util::Table table({"leg", "UE kills", "requeues", "demoted",
                       "hot windows", "mean turnaround (h)",
                       "speedup vs conv"});
    const auto row = [&](const char *label,
                         const sched::ClusterMetrics &m) {
        table.row()
            .cell(label)
            .cell(static_cast<double>(m.jobKills), 0)
            .cell(static_cast<double>(m.requeues), 0)
            .cell(static_cast<double>(m.nodesDemoted), 0)
            .cell(static_cast<double>(m.excursions), 0)
            .cell(m.meanTurnaroundSeconds / 3600.0, 2)
            .cell(conventional.meanTurnaroundSeconds /
                      m.meanTurnaroundSeconds,
                  3);
    };
    row("conventional", conventional);
    row("hetero-dmr-clean", clean);
    row("static-margin-drift", statm);
    table.print();

    std::printf("\nthroughput loss vs static-margin clean baseline:\n"
                "  static margins under drift   %6.2f%%\n",
                throughputLoss(clean, statm) * 100.0);

    runSdcSection(bench::referenceScenario(24.0, 4, 1, 0.0, 250.0), 2.0e8,
                  harness);
    return runner.finish();
}
