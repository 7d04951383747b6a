/**
 * @file
 * SDC containment audit driver (robustness extension).
 *
 * Runs verify::SdcAudit - the shadow-memory oracle campaign - over a
 * sampled module fleet and reports how detection-only Bamboo ECC holds
 * up end to end: every modeled unsafe-fast access is classified as
 * clean, detected-and-recovered, detected-uncorrectable, or a silent
 * escape, with the 2^-64 wide-error escape tail importance-sampled so
 * it is actually observed.  The report compares the measured
 * per-wide-error escape probability against the codec's analytic
 * bound and projects the fleet's MTT-SDC against the epoch guard's
 * one-billion-year target (Section III-B).
 *
 * Flags (bench::Harness syntax; see --help):
 *   --smoke                  short deterministic campaign plus the
 *                            self-checks ctest runs (sdc_audit_smoke):
 *                            zero unclassified accesses, escape rate
 *                            consistent with the codec bound, and
 *                            bit-identical completion after a mid-run
 *                            snapshot/resume
 *   --seed=<n>               campaign seed (default 0x5dc0417)
 *   --modules=<n>            fleet size (default 8)
 *   --hours=<n>              modeled hours per module (default 72)
 *   --accesses-per-hour=<x>  modeled accesses per module-hour
 *                            (default 2e9)
 *   --overshoot=<n>          rate steps past each module's stable
 *                            rate (default 2)
 *   --wide-oversample=<x>    minimum proposal share of wide errors
 *                            (default 0.25)
 *   --snapshot-path=<file>   write a resumable snapshot on completion
 *                            (and on SIGINT/SIGTERM; default
 *                            sdc_audit.snap when interrupted)
 *   --resume-from=<file>     resume an interrupted audit; if the
 *                            newest snapshot generation is corrupt,
 *                            older last-good generations (<file>.1,
 *                            <file>.2) are tried before giving up
 *   --telemetry-out=<dir>    export the audit's classification counts
 *                            as metrics plus a BENCH_sdc_audit.json
 *                            perf record
 *
 * The first SIGINT/SIGTERM is acted on at the next module-hour
 * (epoch) boundary: the audit writes a final snapshot and exits 130.
 * A second one skips the snapshot and exits 131 immediately.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

#include "ecc/bamboo.hh"
#include "harness.hh"
#include "snapshot/keeper.hh"
#include "snapshot/serializer.hh"
#include "util/logging.hh"
#include "verify/audit.hh"

namespace
{

using namespace hdmr;
using verify::AccessClass;
using verify::OracleCounters;
using verify::SdcAudit;
using verify::SdcAuditConfig;
using verify::SdcAuditReport;

void
printReport(const SdcAuditConfig &config, const SdcAuditReport &report)
{
    std::printf("\nclassification (fleet-wide):\n");
    std::printf("  %-24s %16s %22s\n", "class", "raw", "weighted");
    for (unsigned cls = 0; cls < verify::kAccessClassCount; ++cls) {
        std::printf("  %-24s %16" PRIu64 " %22.6g\n",
                    verify::accessClassName(
                        static_cast<AccessClass>(cls)),
                    report.total.raw[cls], report.total.weighted[cls]);
    }
    std::printf("  %-24s %16" PRIu64 "\n", "unclassified",
                report.total.unclassified);

    std::printf("\nimportance-sampled wide-error tail:\n");
    std::printf("  wide draws              %16" PRIu64
                "  (null-space constructed: %" PRIu64 ")\n",
                report.total.wideDraws, report.total.nullSpaceDraws);
    const double expected = ecc::BambooCodec::escapeProbability8BPlus();
    std::printf("  P(escape | wide error)  %16.4e  measured\n",
                report.escapesPerWideError());
    std::printf("  %-24s%16.4e  analytic 2^-64 bound\n", "",
                expected);

    std::printf("\nrecovery ladder (oracle):\n");
    std::printf("  retry attempts          %16" PRIu64 "\n",
                report.total.retryAttempts);
    std::printf("  retried recoveries      %16" PRIu64 "\n",
                report.total.retriedRecoveries);
    std::printf("  miscorrections          %16" PRIu64
                "  (escape weight %.3g)\n",
                report.total.miscorrections,
                report.total.miscorrectionWeight);

    std::printf("\nepoch-guard pressure:\n");
    std::printf("  detected errors         %16" PRIu64 "\n",
                report.detectedErrors);
    std::printf("  guard trips             %16" PRIu64 "\n",
                report.guardTrips);
    std::printf("  epochs observed         %16u\n",
                report.epochsObserved);

    const double fleet_accesses_per_hour =
        config.accessesPerHour * config.modules;
    const double mtt = report.projectedMttSdcYears(
        fleet_accesses_per_hour);
    std::printf("\nprojected MTT-SDC at %.3g accesses/hour: ",
                fleet_accesses_per_hour);
    if (std::isinf(mtt))
        std::printf("no escape weight observed (unbounded)\n");
    else
        std::printf("%.3g years\n", mtt);
    std::printf("epoch-guard design target: 1e9 years -> %s\n",
                std::isinf(mtt) || mtt >= 1.0e9 ? "MET" : "MISSED");
}

/**
 * Publish the audit's fleet-wide counters under "verify.*" and its
 * modeled work for the telemetry export.
 */
void
publish(bench::Harness &harness, const SdcAudit &audit)
{
    audit.publishTelemetry(harness.registry(), "verify");
    const SdcAuditReport report = audit.report();
    harness.addSimulated(report.modeledHours * 3600.0,
                         report.total.rawTotal());
}

/** Serialize an audit's full mutable state to bytes. */
std::vector<std::uint8_t>
stateBytes(const SdcAudit &audit)
{
    snapshot::Serializer out;
    audit.saveState(out);
    return out.data();
}

/** The checks ctest's sdc_audit_smoke gates on. */
void
runSmokeChecks(const SdcAuditConfig &config, bench::Harness &harness)
{
    // One uninterrupted reference run with the pristine oracle.
    SdcAudit reference(config);
    reference.run();
    const SdcAuditReport report = reference.report();

    const double modeled =
        config.accessesPerHour * reference.totalSteps();
    harness.check(report.total.unclassified == 0,
                  "zero unclassified accesses");
    harness.check(report.total.rawTotal() ==
                      static_cast<std::uint64_t>(modeled),
                  "every modeled access accounted for");
    harness.check(report.total.wideDraws > 0 &&
                      report.total.nullSpaceDraws > 0,
                  "wide-error tail actually sampled");
    harness.check(report.escapeConsistentWith(
                      ecc::BambooCodec::escapeProbability8BPlus(), 2.0),
                  "escape rate consistent with 2^-64 bound");
    const double mtt = report.projectedMttSdcYears(
        config.accessesPerHour * config.modules);
    harness.check(std::isinf(mtt) || mtt >= 1.0e9,
                  "projected MTT-SDC meets 1e9-year target");

    // A smaller campaign with a flaky original copy, so the recovery
    // ladder's retry rungs and the UE terminal state carry traffic.
    SdcAuditConfig flaky = config;
    flaky.modules = 1;
    flaky.hours = 2;
    flaky.accessesPerHour = 1.0e7;
    flaky.oracle.originalErrorProbability = 0.4;
    SdcAudit ladder(flaky);
    ladder.run();
    const SdcAuditReport ladder_report = ladder.report();
    harness.check(ladder_report.total.unclassified == 0 &&
                      ladder_report.total.retriedRecoveries > 0 &&
                      ladder_report.total.raw[static_cast<unsigned>(
                          AccessClass::kDetectedUe)] > 0,
                  "retry ladder and UE terminal state exercised");

    // Interrupt a second run at the midpoint, resume a third from the
    // snapshot, and require bit-identical completion.
    SdcAudit interrupted(config);
    for (std::uint64_t i = 0; i < interrupted.totalSteps() / 2; ++i)
        interrupted.step();
    const std::vector<std::uint8_t> mid = stateBytes(interrupted);

    SdcAudit resumed(config);
    snapshot::Deserializer in(mid);
    harness.check(resumed.restoreState(in) && in.ok() && in.remaining() == 0,
                  "mid-run snapshot restores");
    interrupted.run();
    resumed.run();
    harness.check(stateBytes(resumed) == stateBytes(interrupted),
                  "resumed run completes bit-identically");
    harness.check(stateBytes(interrupted) == stateBytes(reference),
                  "interrupted+resumed matches uninterrupted");

    printReport(config, report);
    publish(harness, reference);
}

} // namespace

int
main(int argc, char **argv)
{
    SdcAuditConfig config;
    config.modules = 8;
    config.hours = 72;
    config.accessesPerHour = 2.0e9;
    bool smoke = false;
    std::string snapshot_path;
    std::string resume_from;

    bench::Harness harness("sdc_audit");
    harness.flag("--smoke", &smoke,
                 "short deterministic campaign plus the self-checks");
    harness.flag("--seed", &config.seed, "campaign seed (default 0x5dc0417)");
    harness.flag("--modules", &config.modules, "fleet size (default 8)");
    harness.flag("--hours", &config.hours,
                 "modeled hours per module (default 72)");
    harness.flag("--accesses-per-hour", &config.accessesPerHour, "<x>",
                 "modeled accesses per module-hour (default 2e9)");
    harness.flag("--overshoot", &config.overshootSteps,
                 "rate steps past each module's stable rate (default 2)");
    harness.flag("--wide-oversample", &config.wideOversample, "<x>",
                 "minimum proposal share of wide errors (default 0.25)");
    harness.flag("--snapshot-path", &snapshot_path, "<file>",
                 "snapshot written on completion and on SIGINT/SIGTERM "
                 "(default sdc_audit.snap when interrupted)");
    harness.flag("--resume-from", &resume_from, "<file>",
                 "resume an interrupted audit (falls back to older "
                 "generations)");
    harness.parse(argc, argv);

    if (smoke) {
        // Small but wide-heavy: enough erroneous accesses to exercise
        // every classification path deterministically in well under a
        // second, with the wide tail oversampled so the escape
        // estimate has support.
        config.modules = 2;
        config.hours = 8;
        config.accessesPerHour = 1.0e8;
        config.wideOversample = 0.5;
        std::printf("SDC AUDIT (smoke): %u modules x %u h x %.3g "
                    "accesses/h\n",
                    config.modules, config.hours,
                    config.accessesPerHour);
        runSmokeChecks(config, harness);
        return harness.finish();
    }

    util::checkOk(config.validate());
    std::printf("SDC AUDIT: %u modules x %u h x %.3g accesses/h "
                "(overshoot %u steps, wide oversample %.2f)\n",
                config.modules, config.hours, config.accessesPerHour,
                config.overshootSteps, config.wideOversample);

    SdcAudit audit(config);
    if (!resume_from.empty()) {
        const std::string path = harness.resumeLatest(
            resume_from, snapshot::Keeper::kDefaultKeep,
            [&audit](const std::string &file) {
                return audit.resumeFromFile(file);
            });
        std::printf("resuming from %s: %" PRIu64 "/%" PRIu64
                    " module-hours done\n",
                    path.c_str(), audit.stepsDone(), audit.totalSteps());
    }
    bench::catchStopSignals();

    const std::string final_path =
        snapshot_path.empty() ? "sdc_audit.snap" : snapshot_path;
    const auto save = [&audit](const std::string &path) {
        snapshot::Serializer out;
        audit.saveState(out);
        const util::Status status = snapshot::Keeper(path).save(
            snapshot::kSdcAuditStateKind, out.data());
        if (!status.ok())
            util::fatal("sdc_audit: snapshot to '%s' failed: %s",
                        path.c_str(), status.message().c_str());
    };

    const std::uint64_t total = audit.totalSteps();
    const std::uint64_t stride = total < 10 ? 1 : total / 10;
    while (audit.step()) {
        // Epoch boundary: the only place the stop request is acted
        // on, so the snapshot always captures a whole module-hour.
        if (bench::stopRequested()) {
            save(final_path);
            std::fprintf(stderr,
                         "\nsdc_audit: interrupted at %" PRIu64 "/%"
                         PRIu64 " module-hours; state saved to %s\n"
                         "resume with: --resume-from=%s\n",
                         audit.stepsDone(), total, final_path.c_str(),
                         final_path.c_str());
            publish(harness, audit);
            return harness.finish(/*interrupted=*/true);
        }
        if (audit.stepsDone() % stride == 0) {
            std::printf("  ... %" PRIu64 "/%" PRIu64
                        " module-hours (%.3g accesses modeled)\n",
                        audit.stepsDone(), total,
                        audit.report().modeledAccesses());
        }
    }

    const SdcAuditReport report = audit.report();
    if (report.total.unclassified != 0)
        util::fatal("sdc_audit: %" PRIu64 " unclassified accesses",
                    report.total.unclassified);
    printReport(config, report);

    if (!snapshot_path.empty()) {
        save(snapshot_path);
        std::printf("snapshot written to %s\n", snapshot_path.c_str());
    }
    publish(harness, audit);
    return harness.finish();
}
