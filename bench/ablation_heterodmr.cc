/**
 * @file
 * Ablation study of Hetero-DMR's design choices (Section III-A1 /
 * III-E): the proactive-cleaning batch size (the "100x write batch")
 * and the frequency-transition latency.  Shows why 12,800-line
 * batches are needed once a read<->write switch costs ~1 us, and how
 * sensitive the design is if the JEDEC-compliant transition were
 * slower or faster.
 *
 * Its one flag, --telemetry-out (bench::Harness), exports every
 * ablation point as a metric.
 */

#include <cstdio>
#include <string>

#include "harness.hh"
#include "node/config.hh"
#include "node/node_system.hh"
#include "util/table.hh"

namespace
{

using namespace hdmr;

/** Run one ablation point and publish its exec time. */
node::NodeStats
runPoint(bench::Harness &harness, const node::NodeConfig &config,
         const std::string &metric)
{
    const node::NodeStats stats = node::NodeSystem(config).run();
    harness.addSimulated(stats.execSeconds, stats.memOps);
    harness.registry()
        .gauge("ablation." + metric + ".exec_seconds")
        .set(stats.execSeconds);
    return stats;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hdmr::node;

    bench::Harness harness("ablation_heterodmr");
    harness.parse(argc, argv);
    telemetry::Registry &registry = harness.registry();

    NodeConfig base;
    base.hierarchy = HierarchyConfig::hierarchy1();
    base.workload = wl::benchmarkByName("lulesh"); // write-heavy
    base.memOpsPerCore = 40000;
    base.warmupOpsPerCore = 20000;
    base.memorySystem = MemorySystemKind::kCommercialBaseline;
    const double baseline =
        runPoint(harness, base, "baseline").execSeconds;

    base.memorySystem = MemorySystemKind::kHeteroDmr;

    std::printf("ABLATION: Hetero-DMR design knobs (lulesh, "
                "Hierarchy 1, speedup vs Commercial Baseline)\n\n");

    std::printf("(a) proactive-cleaning batch size per write-mode "
                "window (paper: 12800 = 100x a 128-entry buffer):\n");
    util::Table batch({"clean lines/window", "speedup",
                       "write-mode entries/ms"});
    for (const std::size_t lines : {0ul, 1600ul, 12800ul, 51200ul}) {
        auto config = base;
        config.cleanLinesPerWriteMode = lines;
        const auto stats = runPoint(
            harness, config, "batch_lines_" + std::to_string(lines));
        registry
            .gauge("ablation.batch_lines_" + std::to_string(lines) +
                   ".speedup")
            .set(baseline / stats.execSeconds);
        batch.row()
            .cell(static_cast<long long>(lines))
            .cell(util::formatSpeedup(baseline / stats.execSeconds))
            .cell(static_cast<double>(stats.writeModeEntries) /
                      (stats.execSeconds * 1e3),
                  1);
    }
    batch.print();

    std::printf("\n(b) frequency-transition latency (paper: ~1 us for "
                "the Fig. 9/10 sequence):\n");
    util::Table transition({"transition latency", "speedup"});
    for (const double us : {0.1, 0.5, 1.0, 2.0, 5.0}) {
        auto config = base;
        config.frequencyTransitionUs = us;
        const auto stats = runPoint(
            harness, config, "transition_us_" + util::formatDouble(us, 1));
        registry
            .gauge("ablation.transition_us_" +
                   util::formatDouble(us, 1) + ".speedup")
            .set(baseline / stats.execSeconds);
        transition.row()
            .cell(util::formatDouble(us, 1) + " us")
            .cell(util::formatSpeedup(baseline / stats.execSeconds));
    }
    transition.print();

    std::printf("\n(c) node-level margin sensitivity:\n");
    util::Table margin({"node margin", "speedup"});
    for (const unsigned mts : {200u, 400u, 600u, 800u}) {
        auto config = base;
        config.nodeMarginMts = mts;
        const auto stats = runPoint(
            harness, config, "margin_mts_" + std::to_string(mts));
        registry
            .gauge("ablation.margin_mts_" + std::to_string(mts) +
                   ".speedup")
            .set(baseline / stats.execSeconds);
        margin.row()
            .cell(std::to_string(mts) + " MT/s")
            .cell(util::formatSpeedup(baseline / stats.execSeconds));
    }
    margin.print();

    return harness.finish();
}
