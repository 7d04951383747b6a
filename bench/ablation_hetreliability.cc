/**
 * @file
 * Heterogeneous-reliability placement ablation: what Hetero-DMR's
 * 50 % copy tax actually buys, and how much of it criticality-aware
 * placement (Luo et al.'s HRM applied to margin exploitation) can
 * reclaim without giving up margin-UE containment.
 *
 * Three placement architectures compete on the same fleet:
 *
 *   hetero-dmr        the paper's design - every fast page carries a
 *                     full copy, any margin UE kills the attempt;
 *   het-reliability   tolerant pages live *unreplicated* on the fast
 *                     modules; a UE striking one downgrades the page
 *                     and the job continues with a recorded
 *                     data-quality penalty, while critical-page UEs
 *                     keep the full kill/requeue/quarantine ladder;
 *   hybrid            per-job: HRM above a tolerant-fraction
 *                     threshold, full Hetero-DMR below it.
 *
 * Sections, each self-checked (gated, not just printed):
 *
 *   1. node capacity (fig12 pipeline): NodeSystem-measured Hetero-DMR
 *      speedups weighted across the Fig. 1 usage buckets x Sec. III-D3
 *      margin groups x application classes - HRM's slimmer replicated
 *      share makes high-usage tolerant jobs margin-eligible, so its
 *      weighted capacity must meet or beat full DMR's;
 *   2. fleet sweep (fig17 pipeline) under the PR 6 drift-chaos
 *      overlay: Het-Reliability must reclaim >= 40 % of the
 *      node-seconds Hetero-DMR spends on copies at equal-or-better
 *      mean turnaround, with every UE accounted to exactly one page
 *      class; an all-tolerant control proves the graceful-degradation
 *      path literally never kills or requeues;
 *   3. SDC audit with page-criticality classification: zero
 *      critical-page silent escapes as a raw count with the
 *      constructed-escape sampler off, and the sampled escape rate
 *      still consistent with the 2^-64 codec bound;
 *   4. interrupt/resume bit-identity of the het-reliability leg via
 *      metrics equality and the state-digest trail.
 *
 * Flags: `--smoke` (alone) runs the deterministic self-checking
 * campaign ctest registers as ablation_hetreliability_smoke; otherwise
 * the standard SweepRunner flags apply (--snapshot-every,
 * --resume-from, --telemetry-out, ... - see --help).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/placement.hh"
#include "drift_campaign.hh"
#include "ecc/bamboo.hh"
#include "fault/drift_chaos.hh"
#include "node/config.hh"
#include "node/node_system.hh"
#include "sched/cluster_sim.hh"
#include "snapshot_cli.hh"
#include "traces/job_trace.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "verify/audit.hh"
#include "workloads/criticality.hh"

namespace
{

using namespace hdmr;

/** Organic fault rates shared by every faulted leg. */
constexpr double kNodeFailuresPerHour = 2.0e-6;
constexpr double kDemotionsPerHour = 1.0e-5;
/** Tolerant-page fraction audited in the SDC section (a solver-class
 *  footprint; the split must still pin every escape to a class). */
constexpr double kAuditTolerantFraction = 0.75;

sched::ClusterConfig
legConfig(bool hdmr, core::PlacementMode mode,
          const std::vector<fault::FaultEvent> &overlay,
          double ue_per_hour, double horizon_seconds, unsigned nodes,
          const sched::SpeedupTable &speedups)
{
    sched::ClusterConfig config;
    config.nodes = nodes;
    config.heteroDmr = hdmr;
    config.marginAware = hdmr;
    config.speedups = speedups;
    config.placement.mode = mode;
    config.faults.intensity = 1.0;
    config.faults.uncorrectablePerHour = ue_per_hour;
    config.faults.nodeFailuresPerHour = kNodeFailuresPerHour;
    config.faults.demotionsPerHour = kDemotionsPerHour;
    config.faults.horizonSeconds = horizon_seconds;
    config.scheduleOverlay = overlay;
    config.excursionUeMultiplier = 2.0;
    return config;
}

/** Capacity share the placement reclaimed from the DMR copy tax. */
double
reclaimedShare(const sched::ClusterMetrics &m)
{
    if (m.dmrCopyNodeSeconds <= 0.0)
        return 0.0;
    return 1.0 - m.copyNodeSeconds / m.dmrCopyNodeSeconds;
}

// ---------------------------------------------------------------------
// Section 1: node capacity through the fig12 pipeline.
// ---------------------------------------------------------------------

/** Node-level Hetero-DMR speedups measured by the node simulator. */
struct NodeSpeedups
{
    double at800 = 1.0;
    double at600 = 1.0;
};

NodeSpeedups
measureNodeSpeedups(std::uint64_t mem_ops)
{
    NodeSpeedups result;
    double runs = 0.0, sum800 = 0.0, sum600 = 0.0;
    // One bandwidth-bound and one write-heavy representative.
    for (const char *name : {"hpcg", "lulesh"}) {
        node::NodeConfig config;
        config.hierarchy = node::HierarchyConfig::hierarchy1();
        config.workload = wl::benchmarkByName(name);
        config.memOpsPerCore = mem_ops;
        config.warmupOpsPerCore = mem_ops / 2;
        config.memorySystem = node::MemorySystemKind::kCommercialBaseline;
        const double baseline =
            node::NodeSystem(config).run().execSeconds;
        config.memorySystem = node::MemorySystemKind::kHeteroDmr;
        config.nodeMarginMts = 800;
        sum800 += baseline / node::NodeSystem(config).run().execSeconds;
        config.nodeMarginMts = 600;
        sum600 += baseline / node::NodeSystem(config).run().execSeconds;
        runs += 1.0;
    }
    result.at800 = sum800 / runs;
    result.at600 = sum600 / runs;
    return result;
}

/**
 * Fleet-capacity speedup of one placement: the measured node speedups
 * weighted across the Fig. 1 usage buckets, the Sec. III-D3 margin
 * groups, and the application-class mix - a job contributes its margin
 * group's speedup only where `marginEligible` lets it run fast.
 */
double
placementWeightedSpeedup(const core::PlacementPolicy &policy,
                         const wl::CriticalityConfig &criticality,
                         const NodeSpeedups &node)
{
    const double usage_weight[3] = {0.55, 0.25, 0.20}; // Fig. 1
    const double margin_weight[2] = {0.62, 0.36};      // Sec. III-D3
    const double margin_speedup[2] = {node.at800, node.at600};
    double total = 0.02; // no-margin group runs at 1.0
    for (unsigned group = 0; group < 2; ++group) {
        double bucket_sum = 0.0;
        for (unsigned bucket = 0; bucket < 3; ++bucket) {
            double class_sum = 0.0;
            for (unsigned cls = 0; cls < wl::kAppClassCount; ++cls) {
                const bool eligible = policy.marginEligible(
                    bucket, criticality.tolerantMean[cls]);
                class_sum +=
                    criticality.classWeights[cls] *
                    (eligible ? margin_speedup[group] : 1.0);
            }
            bucket_sum += usage_weight[bucket] * class_sum;
        }
        total += margin_weight[group] * bucket_sum;
    }
    return total;
}

void
runNodeSection(std::uint64_t mem_ops, bench::Harness &harness)
{
    const NodeSpeedups node = measureNodeSpeedups(mem_ops);
    const wl::CriticalityConfig criticality;

    std::printf("node speedups (NodeSystem, hpcg+lulesh mean): "
                "%.3f @0.8 GT/s, %.3f @0.6 GT/s\n\n",
                node.at800, node.at600);
    harness.check(node.at800 > 1.0 && node.at600 > 1.0 &&
                      node.at800 >= node.at600,
                  "measured node speedups ordered by margin");

    util::Table table(
        {"placement", ">=50% bucket eligible classes", "weighted capacity"});
    double weighted[3] = {0.0, 0.0, 0.0};
    const core::PlacementMode modes[3] = {
        core::PlacementMode::kHeteroDmr,
        core::PlacementMode::kHetReliability,
        core::PlacementMode::kHybrid};
    for (unsigned i = 0; i < 3; ++i) {
        core::PlacementPolicy policy;
        policy.mode = modes[i];
        weighted[i] =
            placementWeightedSpeedup(policy, criticality, node);
        std::string eligible;
        for (unsigned cls = 0; cls < wl::kAppClassCount; ++cls) {
            if (policy.marginEligible(2, criticality.tolerantMean[cls])) {
                if (!eligible.empty())
                    eligible += ", ";
                eligible += wl::appClassName(cls);
            }
        }
        table.row()
            .cell(core::toString(modes[i]))
            .cell(eligible.empty() ? "none" : eligible)
            .cell(util::formatSpeedup(weighted[i]));
    }
    table.print();

    harness.check(weighted[0] > 1.0, "hetero-dmr exploits margin capacity");
    harness.check(weighted[1] >= weighted[0] + 1.0e-6,
                  "het-reliability widens margin-eligible capacity");
    harness.check(weighted[2] >= weighted[0] &&
                      weighted[2] <= weighted[1] + 1.0e-9,
                  "hybrid capacity sits between dmr and het-reliability");
}

// ---------------------------------------------------------------------
// Section 2: fleet-sweep gates.
// ---------------------------------------------------------------------

void
printFleetTable(const sched::ClusterMetrics &conventional,
                const char *const labels[4],
                const sched::ClusterMetrics *const legs[4])
{
    util::Table table({"leg", "UE kills", "tolerant UEs",
                       "pages degraded", "copy tax reclaimed",
                       "mean turnaround (h)", "speedup vs conv"});
    for (unsigned i = 0; i < 4; ++i) {
        const sched::ClusterMetrics &m = *legs[i];
        table.row()
            .cell(labels[i])
            .cell(static_cast<double>(m.jobKills), 0)
            .cell(static_cast<double>(m.tolerantUes), 0)
            .cell(static_cast<double>(m.pagesDegraded), 0)
            .cell(util::formatDouble(reclaimedShare(m) * 100.0, 1) + "%")
            .cell(m.meanTurnaroundSeconds / 3600.0, 2)
            .cell(conventional.meanTurnaroundSeconds /
                      m.meanTurnaroundSeconds,
                  3);
    }
    table.print();
}

void
runFleetChecks(const sched::ClusterMetrics &dmr,
               const sched::ClusterMetrics &hetrel,
               const sched::ClusterMetrics &hybrid, bench::Harness &harness)
{
    // Capacity: the HRM placement must reclaim >= 40 % of the
    // node-seconds full DMR spends holding copies, with the hybrid
    // landing between the two extremes.
    harness.check(reclaimedShare(dmr) == 0.0,
                  "hetero-dmr pays the full copy tax");
    harness.check(dmr.dmrCopyNodeSeconds > 0.0 &&
                      reclaimedShare(hetrel) >= 0.40,
                  "het-reliability reclaims >= 40% of the copy tax");
    harness.check(reclaimedShare(hybrid) > 0.0 &&
                      reclaimedShare(hybrid) <= reclaimedShare(hetrel) + 1e-9,
                  "hybrid reclaim between dmr and het-reliability");

    // Turnaround: reclaiming capacity must not cost schedule quality.
    harness.check(hetrel.meanTurnaroundSeconds <=
                      dmr.meanTurnaroundSeconds * 1.000001,
                  "het-reliability turnaround no worse than dmr");

    // Degradation semantics: tolerant strikes downgrade and continue,
    // critical strikes kill - and every UE lands in exactly one bucket.
    harness.check(hetrel.tolerantUes > 0 && hetrel.jobsDegraded > 0 &&
                      hetrel.pagesDegraded == hetrel.tolerantUes &&
                      hetrel.dataQualityPenalty > 0.0,
                  "tolerant-page strikes degrade, continue, and are billed");
    harness.check(hetrel.ueInjected ==
                          hetrel.tolerantUes + hetrel.criticalUes &&
                      hetrel.jobKills == hetrel.criticalUes,
                  "every UE accounted to exactly one page class");
    harness.check(dmr.tolerantUes == 0 && dmr.jobsDegraded == 0 &&
                      dmr.jobKills == dmr.ueInjected,
                  "full dmr keeps the kill-on-any-UE ladder");
}

void
runAllTolerantControl(const sched::ClusterConfig &hetrel_config,
                      const std::vector<traces::Job> &jobs,
                      bench::Harness &harness,
                      sched::ClusterMetrics *out = nullptr)
{
    // Control: with every page tolerant, the graceful-degradation path
    // must absorb every UE burst - literally zero kills and requeues.
    sched::ClusterConfig config = hetrel_config;
    config.criticality.tolerantMean = {1.0, 1.0, 1.0};
    config.criticality.tolerantJitter = 0.0;
    const sched::ClusterMetrics control =
        out != nullptr ? *out
                       : sched::ClusterSimulator(config).run(jobs);
    harness.check(control.ueInjected > 0 && control.jobKills == 0 &&
                      control.requeues == 0 &&
                      control.tolerantUes == control.ueInjected &&
                      control.dataQualityPenalty > 0.0,
                  "all-tolerant control: UE bursts continue, never kill");
}

// ---------------------------------------------------------------------
// Section 3: SDC audit with page-criticality classification.
// ---------------------------------------------------------------------

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
    quiet.oracle.tolerantPageFraction = kAuditTolerantFraction;
    verify::SdcAuditConfig drifted = quiet;
    drifted.scheduleOverlay = bursts;

    verify::SdcAudit baseline(quiet);
    baseline.run();
    verify::SdcAudit drift(drifted);
    drift.run();
    const verify::SdcAuditReport base_report = baseline.report();
    const verify::SdcAuditReport drift_report = drift.report();

    std::printf("\nSDC page-class containment (%zu burst events):\n"
                "  %-28s %18s %18s\n"
                "  %-28s %18llu %18llu\n"
                "  %-28s %18llu %18llu\n"
                "  %-28s %18llu %18llu\n",
                bursts.size(), "", "baseline", "drift",
                "detected errors",
                static_cast<unsigned long long>(
                    base_report.detectedErrors),
                static_cast<unsigned long long>(
                    drift_report.detectedErrors),
                "critical-page escapes (raw)",
                static_cast<unsigned long long>(
                    base_report.total.escapesByPageClass[0]),
                static_cast<unsigned long long>(
                    drift_report.total.escapesByPageClass[0]),
                "tolerant-page escapes (raw)",
                static_cast<unsigned long long>(
                    base_report.total.escapesByPageClass[1]),
                static_cast<unsigned long long>(
                    drift_report.total.escapesByPageClass[1]));

    harness.check(base_report.total.unclassified == 0 &&
                      drift_report.total.unclassified == 0,
                  "every audited access classified");
    harness.check(drift_report.detectedErrors > base_report.detectedErrors,
                  "drift bursts raise detected-error pressure");
    harness.check(base_report.total.escapesByPageClass[0] == 0 &&
                      drift_report.total.escapesByPageClass[0] == 0,
                  "zero critical-page silent escapes (raw)");

    // Importance-sampled pass: every constructed escape must still be
    // pinned to a page class, and the measured per-wide-error escape
    // probability must stay consistent with the codec's 2^-64 bound.
    verify::SdcAuditConfig sampled = drifted;
    sampled.escapeLambda = 0.5;
    sampled.wideOversample = 0.5;
    verify::SdcAudit tail(sampled);
    tail.run();
    const verify::SdcAuditReport tail_report = tail.report();
    harness.check(tail_report.total.escapesByPageClass[0] +
                          tail_report.total.escapesByPageClass[1] ==
                      tail_report.total.raw[escape],
                  "page-class split covers every sampled escape");
    harness.check(tail_report.escapeConsistentWith(
                      ecc::BambooCodec::escapeProbability8BPlus(), 2.0),
                  "sampled escape rate consistent with 2^-64 bound");
}

/** The deterministic self-checking campaign ctest gates on. */
int
runSmoke(bench::Harness &harness)
{
    std::printf("HET-RELIABILITY ABLATION (smoke)\n\n");

    runNodeSection(40000, harness);

    // Section 2: a one-week 64-node fleet slice under the drift
    // overlay, with the UE hazard pushed high enough that tolerant
    // strikes actually land inside the horizon.
    const double horizon_hours = 7.0 * 24.0;
    const fault::DriftScenarioConfig scenario =
        bench::referenceScenario(horizon_hours, 8, 4, 1500.0, 12.0);
    const std::vector<fault::FaultEvent> overlay =
        fault::DriftChaosCampaign(scenario).clusterSchedule();

    traces::JobTraceModel trace_model;
    trace_model.numJobs = 1200;
    trace_model.spanSeconds = 7.0 * 86400.0;
    trace_model.systemNodes = 64;
    traces::GrizzlyTraceGenerator generator(trace_model, 42);
    const auto jobs = generator.generate();

    sched::SpeedupTable speedups;
    speedups.at800 = 1.13;
    speedups.at600 = 1.10;
    const double ue_per_hour = 5.0e-3;

    const auto leg = [&](bool hdmr, core::PlacementMode mode) {
        return legConfig(hdmr, mode, overlay, ue_per_hour,
                         trace_model.spanSeconds,
                         trace_model.systemNodes, speedups);
    };
    const sched::ClusterConfig dmr_config =
        leg(true, core::PlacementMode::kHeteroDmr);
    const sched::ClusterConfig hetrel_config =
        leg(true, core::PlacementMode::kHetReliability);

    harness.check(sched::ClusterSimulator(dmr_config).configDigest() !=
                      sched::ClusterSimulator(hetrel_config).configDigest(),
                  "placement mode is fingerprinted into configDigest");

    const sched::ClusterMetrics conventional =
        sched::ClusterSimulator(
            leg(false, core::PlacementMode::kHeteroDmr))
            .run(jobs);
    const sched::ClusterMetrics dmr =
        sched::ClusterSimulator(dmr_config).run(jobs);
    const sched::ClusterMetrics hetrel =
        sched::ClusterSimulator(hetrel_config).run(jobs);
    const sched::ClusterMetrics hybrid =
        sched::ClusterSimulator(leg(true, core::PlacementMode::kHybrid))
            .run(jobs);

    std::printf("\n");
    const char *labels[4] = {"conventional", "hetero-dmr",
                             "het-reliability", "hybrid"};
    const sched::ClusterMetrics *legs[4] = {&conventional, &dmr,
                                            &hetrel, &hybrid};
    printFleetTable(conventional, labels, legs);
    std::printf("\n");

    runFleetChecks(dmr, hetrel, hybrid, harness);
    runAllTolerantControl(hetrel_config, jobs, harness);

    // Section 4: interrupt/resume on the leg carrying placement state
    // (it rides the digest trail like every other RunState field).
    bench::runInterruptResumeCheck(hetrel_config, jobs,
                                   trace_model.spanSeconds / 2.0,
                                   21600.0, harness);

    // Section 3: page-class containment on a small audit fleet.
    runSdcSection(bench::referenceScenario(8.0, 2, 1, 0.0, 500.0), 1.0e8,
                  harness);
    return harness.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness("ablation_hetreliability");
    bool smoke = false;
    harness.flag("--smoke", &smoke,
                 "deterministic self-checking campaign (takes no "
                 "other flag)");
    bench::SweepRunner runner(harness);
    harness.parse(argc, argv);
    if (smoke) {
        if (argc != 2)
            util::fatal("ablation_hetreliability: --smoke takes no "
                        "other flags");
        return runSmoke(harness);
    }
    runner.start();

    std::printf("HET-RELIABILITY ABLATION: placement sweep\n\n");
    runNodeSection(40000, harness);

    traces::JobTraceModel trace_model;
    traces::GrizzlyTraceGenerator generator(trace_model, 42);
    const auto jobs = generator.generate();

    const double horizon_hours = trace_model.spanSeconds / 3600.0;
    const fault::DriftScenarioConfig scenario =
        bench::referenceScenario(horizon_hours, 64, 16, 100.0, 2.0);
    const std::vector<fault::FaultEvent> overlay =
        fault::DriftChaosCampaign(scenario).clusterSchedule();

    std::printf("\ntrace: %zu jobs / %u nodes / %.0f days under drift "
                "overlay (%zu events)\n\n",
                jobs.size(), trace_model.systemNodes,
                trace_model.spanSeconds / 86400.0, overlay.size());

    sched::SpeedupTable speedups;
    speedups.at800 = 1.13;
    speedups.at600 = 1.10;
    const double ue_per_hour = 2.0e-4;

    const auto config = [&](bool hdmr, core::PlacementMode mode) {
        return legConfig(hdmr, mode, overlay, ue_per_hour,
                         trace_model.spanSeconds,
                         trace_model.systemNodes, speedups);
    };
    const auto conventional = runner.leg(
        "conventional", config(false, core::PlacementMode::kHeteroDmr),
        jobs);
    const auto dmr = runner.leg(
        "hetero-dmr", config(true, core::PlacementMode::kHeteroDmr),
        jobs);
    const auto hetrel = runner.leg(
        "het-reliability",
        config(true, core::PlacementMode::kHetReliability), jobs);
    const auto hybrid = runner.leg(
        "hybrid", config(true, core::PlacementMode::kHybrid), jobs);
    sched::ClusterConfig control_config =
        config(true, core::PlacementMode::kHetReliability);
    control_config.criticality.tolerantMean = {1.0, 1.0, 1.0};
    control_config.criticality.tolerantJitter = 0.0;
    auto control =
        runner.leg("het-rel-all-tolerant", control_config, jobs);
    if (runner.stoppedEarly())
        return runner.finish();

    const char *labels[4] = {"conventional", "hetero-dmr",
                             "het-reliability", "hybrid"};
    const sched::ClusterMetrics *legs[4] = {&conventional, &dmr,
                                            &hetrel, &hybrid};
    printFleetTable(conventional, labels, legs);
    std::printf("\n");

    runFleetChecks(dmr, hetrel, hybrid, harness);
    runAllTolerantControl(control_config, jobs, harness, &control);

    runSdcSection(bench::referenceScenario(24.0, 4, 1, 0.0, 250.0), 2.0e8,
                  harness);
    return runner.finish();
}
