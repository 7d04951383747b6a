/**
 * @file
 * Monitoring-overhead and adaptive-speedup evaluation of the
 * src/monitor subsystem (reported the way DAMON's eval.rst reports
 * its monitoring overhead and DAMOS gains).
 *
 * Three legs per workload shape, all on the Hetero-DMR node:
 *
 *  - baseline:  monitoring disabled (the static-threshold seed).
 *  - stat:      monitoring enabled, a stat-only scheme - pure
 *               observation, so the exec-time delta against baseline
 *               *is* the monitoring overhead the budget must bound.
 *  - adaptive:  monitoring plus the shipped phase-adaptive schemes
 *               (re-earn the deployment's static guard band while hot
 *               read-dominated phases hold, and defer discretionary
 *               write work out of those phases).
 *
 * Workload shapes: steady lulesh, and a phase-heavy lulesh whose
 * store share bursts periodically (checkpoint/output phases) - the
 * mix adaptive mode control exploits.
 *
 * Gates (--smoke, run by ctest as fig19_monitor_smoke):
 *   - stat-leg overhead <= 2 % on both workload shapes;
 *   - the sampler's self-reported overhead stays within its budget;
 *   - region count respects [1, maxRegions], splits/merges engage;
 *   - a tiny budget forces duty throttling (self-enforcement);
 *   - adaptive is no worse than baseline on the steady shape;
 *   - adaptive beats baseline on the phase-heavy shape;
 *   - the monitor digest trail is bit-identical across an in-run
 *     save/restore round trip, and a fresh sampler+engine restored
 *     from the image digests identically.
 *
 * Flags (bench::Harness; see --help): --smoke (small deterministic
 * run + the gates), --dump-schemes (print the shipped scheme text),
 * --telemetry-out.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness.hh"
#include "monitor/monitor.hh"
#include "monitor/scheme.hh"
#include "node/config.hh"
#include "node/node_system.hh"
#include "snapshot/serializer.hh"
#include "util/status.hh"

namespace
{

using namespace hdmr;

enum class Leg
{
    kBaseline,
    kStat,
    kAdaptive,
};

const char *
legName(Leg leg)
{
    switch (leg) {
      case Leg::kBaseline: return "baseline";
      case Leg::kStat: return "stat";
      case Leg::kAdaptive: return "adaptive";
    }
    return "?";
}

/**
 * Monitoring parameters the bench runs with.  The aggregation
 * interval is deliberately shorter than a workload iteration
 * (~30 us) so some aggregation windows land inside the communication
 * phases - that is what the quiet-node scheme predicate keys on.
 */
monitor::MonitorConfig
benchMonitoring()
{
    monitor::MonitorConfig mon;
    mon.enabled = true;
    mon.samplingInterval = 2 * util::kTicksPerUs;
    mon.aggregationInterval = 5 * util::kTicksPerUs;
    mon.regionUpdateInterval = 15 * util::kTicksPerUs;
    mon.minRegions = 8;
    mon.maxRegions = 64;
    mon.overheadBudget = 0.02;
    mon.sampleCheckCost = 150;
    mon.initialDuty = 0.25;
    return mon;
}

node::NodeConfig
makeConfig(bool phase_heavy, Leg leg, bool smoke)
{
    node::NodeConfig config;
    config.hierarchy = node::HierarchyConfig::hierarchy1();
    config.workload = wl::benchmarkByName("lulesh");
    config.memOpsPerCore = smoke ? 24000 : 60000;
    // Hetero-DMR prefills an entirely clean LLC (a cleaning design
    // keeps no dirty backlog), and freshly dirtied lines need the LLC
    // sets to cycle before they reach eviction depth.  The long
    // functional warm-up carries the hierarchy to its dirty
    // steady-state so the measured window exercises the write path
    // the adaptive schemes act on.
    config.warmupOpsPerCore = 150000;
    config.memorySystem = node::MemorySystemKind::kHeteroDmr;
    config.seed = 7;
    // The deployment's static per-module thresholds hold two demotion
    // steps of guard band below the qualified 4000 MT/s (they must
    // stand for the worst phase ever profiled).  All three legs start
    // at the same banded operating point; only the adaptive leg's
    // earn_margin scheme can re-earn the band online.
    config.marginGuardBandMts = 400;

    if (phase_heavy) {
        // Periodic checkpoint/output behaviour: one fifth of each
        // period writes at 0.6 (the rest compensates so the long-run
        // store share stays at lulesh's 0.18), then every rank waits
        // out the checkpoint barrier.  The period is short enough
        // that every run sees several burst/wait cycles - each burst
        // is a forced write-mode entry the adaptive policy softens,
        // and the alternation stresses the monitor's phase tracking
        // (region ages reset, node-wide samples collapse and recover).
        config.workload.writeBurstPeriodOps = 7500;
        config.workload.writeBurstDuty = 0.2;
        config.workload.writeBurstFraction = 0.6;
        config.workload.checkpointWaitUs = 10.0;
    }

    if (leg != Leg::kBaseline) {
        config.monitoring = benchMonitoring();
        if (leg == Leg::kAdaptive) {
            util::checkOk(monitor::parseSchemeConfig(
                monitor::defaultPhaseAdaptiveSchemes(),
                &config.schemes));
        } else {
            monitor::Scheme stat;
            stat.name = "stat_all";
            stat.action = monitor::SchemeAction::kStat;
            config.schemes.schemes = {stat};
        }
    }
    return config;
}

/** Run one leg and publish its metrics into the harness. */
node::NodeStats
runLeg(bench::Harness &harness, const node::NodeConfig &config,
       const std::string &metric)
{
    const node::NodeStats stats = node::NodeSystem(config).run();
    harness.addSimulated(stats.execSeconds, stats.memOps);
    const std::pair<const char *, double> gauges[] = {
        {"exec_seconds", stats.execSeconds},
        {"write_mode_entries",
         static_cast<double>(stats.writeModeEntries)},
        {"monitor_overhead_fraction", stats.monitorOverheadFraction},
        {"monitor_regions", static_cast<double>(stats.monitorRegions)},
        {"scheme_fires", static_cast<double>(stats.schemeFires)},
    };
    for (const auto &[leaf, value] : gauges)
        harness.registry()
            .gauge("fig19." + metric + "." + leaf)
            .set(value);
    return stats;
}

/** One monitor digest-trail entry: sampler state x engine state. */
std::uint64_t
monitorDigest(node::NodeSystem &sys)
{
    return sys.regionSampler()->digest() ^
           (sys.schemeEngine()->digest() * 0x9e3779b97f4a7c15ULL);
}

/**
 * Run the adaptive phase-heavy node recording one digest per
 * aggregation.  When `roundtrip_at` is hit, the complete monitor
 * state (sampler + engine) is serialized and immediately restored
 * in-place - a correct round trip must not perturb a single
 * subsequent digest.  The serialized image is returned through
 * `image` for the fresh-object restore check.
 */
std::vector<std::uint64_t>
runDigestTrail(bool smoke, std::uint64_t roundtrip_at,
               std::vector<std::uint8_t> *image, bool *roundtrip_ok)
{
    node::NodeSystem sys(makeConfig(true, Leg::kAdaptive, smoke));
    monitor::RegionSampler *sampler = sys.regionSampler();
    monitor::SchemeEngine *engine = sys.schemeEngine();
    std::vector<std::uint64_t> trail;
    sampler->setAggregationObserver([&](std::uint64_t index) {
        if (index == roundtrip_at && roundtrip_at != 0) {
            snapshot::Serializer out;
            sampler->saveState(out);
            engine->saveState(out);
            if (image)
                *image = out.data();
            snapshot::Deserializer in(out.data());
            const bool ok = sampler->restoreState(in) &&
                            engine->restoreState(in) && in.ok() &&
                            in.remaining() == 0;
            if (roundtrip_ok)
                *roundtrip_ok = ok;
        }
        trail.push_back(monitorDigest(sys));
    });
    sys.run();
    return trail;
}

/** The legs and the gates ctest's fig19_monitor_smoke enforces. */
void
runChecks(bool smoke, bench::Harness &harness)
{
    // ---- The six legs. ----
    std::printf("%-14s %-10s %12s %12s %10s %8s\n", "workload", "leg",
                "exec(us)", "wm-entries", "overhead", "fires");
    node::NodeStats stats[2][3];
    for (int shape = 0; shape < 2; ++shape) {
        for (const Leg leg :
             {Leg::kBaseline, Leg::kStat, Leg::kAdaptive}) {
            const std::string metric =
                std::string(shape ? "phase_heavy" : "steady") + "." +
                legName(leg);
            const node::NodeStats s = runLeg(
                harness, makeConfig(shape == 1, leg, smoke), metric);
            stats[shape][static_cast<int>(leg)] = s;
            std::printf("%-14s %-10s %12.2f %12llu %9.3f%% %8llu\n",
                        shape ? "phase-heavy" : "steady", legName(leg),
                        s.execSeconds * 1.0e6,
                        static_cast<unsigned long long>(
                            s.writeModeEntries),
                        s.monitorOverheadFraction * 100.0,
                        static_cast<unsigned long long>(s.schemeFires));
        }
    }

    // ---- Overhead gates (the DAMON eval.rst measurement). ----
    for (int shape = 0; shape < 2; ++shape) {
        const double base = stats[shape][0].execSeconds;
        const double stat = stats[shape][1].execSeconds;
        harness.check(stat <= base * 1.02,
                      shape ? "phase-heavy: stat-leg overhead <= 2%"
                            : "steady: stat-leg overhead <= 2%");
        harness.check(stats[shape][1].monitorOverheadFraction <=
                          benchMonitoring().overheadBudget,
                      shape ? "phase-heavy: self-reported overhead in budget"
                            : "steady: self-reported overhead in budget");
    }

    // ---- Region-model sanity. ----
    const node::NodeStats &adaptive = stats[1][2];
    harness.check(adaptive.monitorRegions >= 1 &&
                      adaptive.monitorRegions <= benchMonitoring().maxRegions,
                  "region count within [1, maxRegions]");
    harness.check(adaptive.monitorSplits > 0 && adaptive.monitorMerges > 0,
                  "region split and merge both engaged");
    harness.check(adaptive.monitorAggregations > 0 &&
                      adaptive.monitorSamples > 0,
                  "sampler observed and aggregated accesses");
    harness.check(adaptive.schemeHits > 0 && adaptive.schemeFires > 0,
                  "schemes matched and fired");

    // ---- Budget self-enforcement: a near-zero budget must throttle
    // the duty window instead of blowing through. ----
    {
        node::NodeConfig starved = makeConfig(false, Leg::kStat, true);
        starved.monitoring.overheadBudget = 1.0e-4;
        const node::NodeStats s =
            runLeg(harness, starved, "steady.starved");
        harness.check(s.monitorThrottles > 0,
                      "starved budget engages the duty throttle");
        harness.check(s.monitorOverheadFraction <= 0.005,
                      "starved budget keeps overhead near zero");
    }

    // ---- Adaptive vs static. ----
    harness.check(stats[0][2].execSeconds <= stats[0][0].execSeconds * 1.005,
                  "steady: adaptive no worse than static (<= +0.5%)");
    harness.check(stats[1][2].execSeconds < stats[1][0].execSeconds,
                  "phase-heavy: adaptive beats static baseline");
    // One channel, two demotion steps of guard band: the earn_margin
    // scheme must walk the whole band back to the qualified rate.
    harness.check(adaptive.marginPromotions == 2,
                  "earn_margin re-earned the full guard band");

    // ---- Interrupt/resume bit-identity (digest trail). ----
    std::vector<std::uint8_t> image;
    bool roundtrip_ok = false;
    const std::vector<std::uint64_t> reference =
        runDigestTrail(true, 0, nullptr, nullptr);
    const std::vector<std::uint64_t> resumed =
        runDigestTrail(true, 10, &image, &roundtrip_ok);
    harness.check(reference.size() > 12, "digest trail long enough to bite");
    harness.check(roundtrip_ok, "mid-run monitor save/restore round-trips");
    harness.check(reference == resumed,
                  "digest trail bit-identical across round trip");

    // ---- Restore into fresh objects digests identically. ----
    {
        node::NodeSystem donor(makeConfig(true, Leg::kAdaptive, true));
        monitor::RegionSampler fresh_sampler(
            donor.regionSampler()->config());
        monitor::SchemeEngine fresh_engine(
            donor.schemeEngine()->config(), nullptr);
        snapshot::Deserializer in(image);
        const bool ok = fresh_sampler.restoreState(in) &&
                        fresh_engine.restoreState(in) && in.ok() &&
                        in.remaining() == 0;
        harness.check(ok, "fresh sampler+engine restore from image");
        const std::uint64_t fresh =
            fresh_sampler.digest() ^
            (fresh_engine.digest() * 0x9e3779b97f4a7c15ULL);
        // The image was taken at aggregation 10 of the resumed run;
        // recompute what the digest was at that instant.
        std::uint64_t at_capture = 0;
        std::vector<std::uint8_t> image2;
        bool ok2 = false;
        const std::vector<std::uint64_t> again =
            runDigestTrail(true, 10, &image2, &ok2);
        at_capture = again.at(10);
        harness.check(ok2 && image2 == image,
                      "capture is deterministic across runs");
        harness.check(fresh == at_capture,
                      "fresh restore digests identically to capture");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness("fig19_monitor");
    bool smoke = false;
    bool dump_schemes = false;
    harness.flag("--smoke", &smoke, "small deterministic run + the gates");
    harness.flag("--dump-schemes", &dump_schemes,
                 "print the shipped default scheme text and exit");
    harness.parse(argc, argv);
    if (dump_schemes) {
        // The shipped default scheme text, verbatim; a ctest diffs
        // this against the checked-in copy under schemas/schemes/ so
        // the two can never drift apart.
        std::fputs(monitor::defaultPhaseAdaptiveSchemes(), stdout);
        return 0;
    }

    std::printf("Fig. 19: bounded-overhead monitoring%s\n\n",
                smoke ? " (smoke)" : "");
    runChecks(smoke, harness);
    return harness.finish();
}
