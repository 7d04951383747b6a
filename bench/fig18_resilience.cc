/**
 * @file
 * Fig. 18 (extension): resilience campaign - how much of Hetero-DMR's
 * system-wide turnaround speedup survives as injected fault intensity
 * rises.
 *
 * The campaign sweeps a global intensity knob over three cluster-scoped
 * fault processes: job-killing uncorrectable errors (recovery read of
 * the original also fails; the job is killed and requeued with capped
 * exponential backoff), permanent whole-node failures, and node margin
 * reclassifications (a node drops one margin group).  Retained speedup
 * is speedup(intensity) / speedup(0); at intensity 0 the simulation is
 * bit-identical to Fig. 17's.  UE kill times use nested per-(job,
 * attempt) realizations, so each intensity's faults are a superset of
 * the previous one's and the retained-speedup curve is monotone by
 * construction, not by luck.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "sched/cluster_sim.hh"
#include "snapshot_cli.hh"
#include "traces/job_trace.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace hdmr;

    bench::Harness harness("fig18_resilience");
    bench::SweepRunner runner(harness);
    harness.parse(argc, argv);
    runner.start();

    traces::JobTraceModel trace_model;
    traces::GrizzlyTraceGenerator generator(trace_model, 42);
    const auto jobs = generator.generate();
    std::printf("FIG. 18: Fault-injection campaign (system-wide)\n");
    std::printf("trace: %zu jobs / %u nodes / %.0f days\n\n",
                jobs.size(), trace_model.systemNodes,
                trace_model.spanSeconds / 86400.0);

    sched::SpeedupTable speedups;
    speedups.at800 = 1.13;
    speedups.at600 = 1.10;

    auto simulate = [&](const std::string &label, bool hdmr,
                        double intensity, bool checkpoint) {
        sched::ClusterConfig config;
        config.heteroDmr = hdmr;
        config.marginAware = hdmr;
        config.speedups = speedups;
        config.faults.intensity = intensity;
        // Base rates per node-hour at intensity 1.  Over the 4-month
        // trace (~3.3M busy node-hours) these inject on the order of
        // 300 job-killing UEs, 9 node failures and 40 demotions.
        config.faults.uncorrectablePerHour = 1.0e-4;
        config.faults.nodeFailuresPerHour = 2.0e-6;
        config.faults.demotionsPerHour = 1.0e-5;
        config.faults.horizonSeconds = trace_model.spanSeconds;
        if (checkpoint) {
            config.resilience.checkpointIntervalSeconds = 1800.0;
            config.resilience.checkpointOverheadFraction = 0.02;
        }
        return runner.leg(label, config, jobs);
    };

    const auto conventional = simulate("conventional", false, 0.0,
                                       false);
    const auto clean = simulate("hetero-dmr-clean", true, 0.0, false);
    const double clean_speedup = conventional.meanTurnaroundSeconds /
                                 clean.meanTurnaroundSeconds;

    const double intensities[] = {0.0, 1.0, 2.0, 4.0, 6.0, 8.0};

    util::Table table({"intensity", "UE kills", "requeues",
                       "nodes failed", "nodes demoted",
                       "mean turnaround (h)", "retained speedup"});
    sched::ClusterMetrics worst;
    for (const double intensity : intensities) {
        const auto m = simulate(
            "intensity-" + std::to_string(intensity), true, intensity,
            false);
        if (runner.stoppedEarly())
            return runner.finish();
        const double speedup =
            conventional.meanTurnaroundSeconds / m.meanTurnaroundSeconds;
        table.row()
            .cell(intensity, 1)
            .cell(static_cast<double>(m.jobKills), 0)
            .cell(static_cast<double>(m.requeues), 0)
            .cell(static_cast<double>(m.nodesFailed), 0)
            .cell(static_cast<double>(m.nodesDemoted), 0)
            .cell(m.meanTurnaroundSeconds / 3600.0, 2)
            .cell(speedup / clean_speedup, 3);
        worst = m;
    }
    table.print();

    // Checkpointing recovers part of the lost work at the worst swept
    // intensity.
    const auto ckpt =
        simulate("checkpointed", true, intensities[5], true);
    if (runner.stoppedEarly())
        return runner.finish();
    std::printf("\nat intensity %.1f, 30-min checkpoints (2%% overhead):"
                "\n  turnaround %.2f h -> %.2f h, lost node-seconds "
                "%.0f -> %.0f\n",
                intensities[5], worst.meanTurnaroundSeconds / 3600.0,
                ckpt.meanTurnaroundSeconds / 3600.0,
                worst.lostNodeSeconds, ckpt.lostNodeSeconds);

    // One aligned "name  value" line per metric, sorted by name; whole
    // values print as integers.
    const std::pair<const char *, double> accounting[] = {
        {"cluster.checkpoint_overhead_seconds",
         worst.checkpointOverheadSeconds},
        {"cluster.copy_node_seconds", worst.copyNodeSeconds},
        {"cluster.critical_ues", static_cast<double>(worst.criticalUes)},
        {"cluster.data_quality_penalty", worst.dataQualityPenalty},
        {"cluster.dmr_copy_node_seconds", worst.dmrCopyNodeSeconds},
        {"cluster.excursions", static_cast<double>(worst.excursions)},
        {"cluster.job_kills", static_cast<double>(worst.jobKills)},
        {"cluster.jobs_completed",
         static_cast<double>(worst.jobsCompleted)},
        {"cluster.jobs_degraded", static_cast<double>(worst.jobsDegraded)},
        {"cluster.jobs_dropped", static_cast<double>(worst.jobsDropped)},
        {"cluster.lost_node_seconds", worst.lostNodeSeconds},
        {"cluster.nodes_demoted", static_cast<double>(worst.nodesDemoted)},
        {"cluster.nodes_failed", static_cast<double>(worst.nodesFailed)},
        {"cluster.pages_degraded",
         static_cast<double>(worst.pagesDegraded)},
        {"cluster.requeues", static_cast<double>(worst.requeues)},
        {"cluster.tolerant_ues", static_cast<double>(worst.tolerantUes)},
        {"cluster.ue_injected", static_cast<double>(worst.ueInjected)},
    };
    std::printf("\ncampaign accounting at intensity %.1f:\n",
                intensities[5]);
    for (const auto &[name, value] : accounting) {
        if (value == std::floor(value) && value < 1e15)
            std::printf("%-37s%lld\n", name, static_cast<long long>(value));
        else
            std::printf("%-37s%g\n", name, value);
    }
    return runner.finish();
}
