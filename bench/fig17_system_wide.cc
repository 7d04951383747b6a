/**
 * @file
 * Fig. 17: system-wide evaluation - job execution time, queueing
 * delay and turnaround time of an HPC system with Hetero-DMR and the
 * margin-aware job scheduler, vs a conventional system, a
 * default-scheduler ablation, and the "+17% nodes" sanity check.
 */

#include <cstdio>

#include "sched/cluster_sim.hh"
#include "snapshot_cli.hh"
#include "traces/job_trace.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace hdmr;

    bench::Harness harness("fig17_system_wide");
    bench::SweepRunner runner(harness);
    harness.parse(argc, argv);
    runner.start();

    traces::JobTraceModel trace_model;
    traces::GrizzlyTraceGenerator generator(trace_model, 42);
    const auto jobs = generator.generate();
    std::printf("FIG. 17: System-wide simulation\n");
    std::printf("trace: %zu jobs / %u nodes / %.0f days, offered "
                "utilization %.0f%% (Grizzly-like)\n\n",
                jobs.size(), trace_model.systemNodes,
                trace_model.spanSeconds / 86400.0,
                100.0 * traces::traceNodeSeconds(jobs) /
                    (trace_model.systemNodes * trace_model.spanSeconds));

    // Node-level Hetero-DMR speedups measured by the node simulator
    // (Fig. 12 weighted across hierarchies, <50 % usage bucket).
    sched::SpeedupTable speedups;
    speedups.at800 = 1.13;
    speedups.at600 = 1.10;

    auto simulate = [&](const char *label, bool hdmr, bool aware,
                        unsigned nodes) {
        sched::ClusterConfig config;
        config.heteroDmr = hdmr;
        config.marginAware = aware;
        config.nodes = nodes;
        config.speedups = speedups;
        return runner.leg(label, config, jobs);
    };

    const auto conventional =
        simulate("conventional", false, false, 1490);
    const auto hdmr = simulate("hetero-dmr", true, true, 1490);
    const auto hdmr_default =
        simulate("hetero-dmr-default-sched", true, false, 1490);
    const auto more_nodes =
        simulate("conventional-more-nodes", false, false, 1743); // +17 %
    if (runner.stoppedEarly())
        return runner.finish();

    util::Table table({"system", "mean exec (h)", "mean queue (h)",
                       "mean turnaround (h)", "utilization"});
    auto add = [&](const char *label,
                   const sched::ClusterMetrics &m) {
        table.row()
            .cell(label)
            .cell(m.meanExecSeconds / 3600.0, 2)
            .cell(m.meanQueueSeconds / 3600.0, 2)
            .cell(m.meanTurnaroundSeconds / 3600.0, 2)
            .cell(util::formatPercent(m.meanNodeUtilization, 0));
    };
    add("conventional", conventional);
    add("Hetero-DMR + margin-aware sched", hdmr);
    add("Hetero-DMR + default sched", hdmr_default);
    add("conventional + 17% nodes", more_nodes);
    table.print();

    std::printf("\nHetero-DMR vs conventional:\n");
    std::printf("  execution-time speedup:  %s (paper: 1.17x)\n",
                util::formatSpeedup(conventional.meanExecSeconds /
                                    hdmr.meanExecSeconds)
                    .c_str());
    std::printf("  queueing-delay change:   %+.0f%% (paper: -34%%)\n",
                (hdmr.meanQueueSeconds / conventional.meanQueueSeconds -
                 1.0) *
                    100.0);
    std::printf("  turnaround speedup:      %s (paper: 1.4x)\n",
                util::formatSpeedup(conventional.meanTurnaroundSeconds /
                                    hdmr.meanTurnaroundSeconds)
                    .c_str());
    std::printf("  margin-aware vs default: %s turnaround "
                "(paper: 1.2x)\n",
                util::formatSpeedup(
                    hdmr_default.meanTurnaroundSeconds /
                    hdmr.meanTurnaroundSeconds)
                    .c_str());
    std::printf("  +17%% nodes queue delta:  %+.0f%% (paper: -33%%, "
                "close to Hetero-DMR's reduction)\n",
                (more_nodes.meanQueueSeconds /
                     conventional.meanQueueSeconds -
                 1.0) *
                    100.0);
    return runner.finish();
}
