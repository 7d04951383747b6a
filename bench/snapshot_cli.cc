#include "snapshot_cli.hh"

#include <cmath>
#include <cstdio>
#include <utility>
#include <variant>

#include "snapshot/keeper.hh"
#include "snapshot/serializer.hh"
#include "util/logging.hh"

namespace hdmr::bench
{

SweepRunner::SweepRunner(Harness &harness)
    : harness_(harness), snapshotPath_(harness.name() + ".snap")
{
    harness.flag("--snapshot-every", &snapshotEvery_, "<sim s>",
                 "periodic crash-safe snapshots (0 = off)");
    harness.flag("--snapshot-path", &snapshotPath_, "<file>",
                 "snapshot file (default <name>.snap)");
    harness.flag("--snapshot-keep", &snapshotKeep_,
                 "last-good generations to keep (default 3)", 1, 64);
    harness.flag("--resume-from", &resumeFrom_, "<file>",
                 "resume an interrupted sweep (falls back to older "
                 "generations)");
    harness.flag("--digest-every", &digestEvery_, "<sim s>",
                 "state-digest cadence (default 86400)");
}

void
SweepRunner::start()
{
    if (snapshotEvery_ < 0.0)
        util::fatal("%s: --snapshot-every must be non-negative (got %g)",
                    harness_.name().c_str(), snapshotEvery_);
    if (!(digestEvery_ > 0.0))
        util::fatal("%s: --digest-every must be positive (got %g)",
                    harness_.name().c_str(), digestEvery_);
    if (!resumeFrom_.empty())
        loadResumeFile();
    catchStopSignals();
}

void
SweepRunner::loadResumeFile()
{
    // A generation must pass both the file envelope (magic/version/
    // CRC) and the sweep-level decode to count as loaded.
    const std::string path = harness_.resumeLatest(
        resumeFrom_, snapshotKeep_, [this](const std::string &file) {
            std::vector<std::uint8_t> payload;
            HDMR_RETURN_IF_ERROR(snapshot::readSnapshotFile(
                file, snapshot::kSweepStateKind, &payload));
            return decodeSweepPayload(payload);
        });
    resumeActive_ = !resumeActiveLabel_.empty();
    std::printf("resuming sweep from %s: %zu completed leg(s), active "
                "leg '%s'%s\n\n",
                path.c_str(), completed_.size(),
                resumeActive_ ? resumeActiveLabel_.c_str() : "(none)",
                resumeActiveState_.empty() ? " (not yet started)" : "");
}

util::Status
SweepRunner::decodeSweepPayload(const std::vector<std::uint8_t> &payload)
{
    // A previous generation's failed decode may have half-filled the
    // resume state; start every attempt from scratch.
    completed_.clear();
    resumeActiveLabel_.clear();
    resumeActiveState_.clear();
    harness_.registry() = telemetry::Registry{};

    snapshot::Deserializer in(payload);
    const std::string bench = in.readString();
    if (in.ok() && bench != harness_.name())
        return util::failedPrecondition(
            "snapshot belongs to benchmark '%s', not '%s'",
            bench.c_str(), harness_.name().c_str());
    // Each completed leg is at least a label length (4) plus the
    // metrics record; 8 is a safe floor for the count check.
    const std::uint64_t count = in.readCount("completed-leg list", 8);
    for (std::uint64_t i = 0; i < count && in.ok(); ++i) {
        CompletedLeg leg;
        leg.label = in.readString();
        restoreMetrics(in, &leg.metrics);
        completed_.push_back(std::move(leg));
    }
    resumeActiveLabel_ = in.readString();
    resumeActiveState_ = in.readBlob();
    HDMR_RETURN_IF_ERROR(in.status());

    // Telemetry section: presence must match this run's
    // --telemetry-out, because the registry feeds the active leg's
    // state digests.
    const bool saved_telemetry = in.readBool();
    HDMR_RETURN_IF_ERROR(in.status());
    if (saved_telemetry != harness_.telemetryEnabled())
        return util::failedPrecondition(
            "the sweep was %s --telemetry-out and this run is %s; "
            "rerun with a matching flag",
            saved_telemetry ? "saved with" : "saved without",
            harness_.telemetryEnabled() ? "using it" : "not");
    if (saved_telemetry && !harness_.registry().restore(in))
        return in.ok() ? util::dataLoss(
                             "telemetry registry restore failed")
                       : in.status();
    HDMR_RETURN_IF_ERROR(in.status());
    if (in.remaining() != 0)
        return util::dataLoss("trailing garbage after the sweep image");
    return util::Status{};
}

void
SweepRunner::writeSweepFile() const
{
    snapshot::Serializer out;
    out.writeString(harness_.name());
    out.writeU64(completed_.size());
    for (const CompletedLeg &leg : completed_) {
        out.writeString(leg.label);
        saveMetrics(out, leg.metrics);
    }
    out.writeString(activeLabel_);
    out.writeBlob(activeState_);
    out.writeBool(harness_.telemetryEnabled());
    if (harness_.telemetryEnabled())
        harness_.registry().save(out);

    const snapshot::Keeper keeper(snapshotPath_, snapshotKeep_);
    const util::Status status =
        keeper.save(snapshot::kSweepStateKind, out.data());
    if (!status.ok()) {
        // A failed periodic snapshot should not kill a long run; the
        // simulation itself is unaffected.
        std::fprintf(stderr, "warning: snapshot write failed [%s]: %s\n",
                     util::statusCodeName(status.code()),
                     status.message().c_str());
    }
}

sched::ClusterMetrics
SweepRunner::leg(const std::string &label,
                 const sched::ClusterConfig &config,
                 const std::vector<traces::Job> &jobs)
{
    if (stopped_)
        return {};

    const std::uint32_t tid = ++legIndex_;

    // Legs already completed in the resumed sweep replay from their
    // recorded metrics (and, with telemetry, from the restored
    // registry - reconciled like a live leg).
    if (nextCached_ < completed_.size()) {
        const CompletedLeg &cached = completed_[nextCached_];
        if (cached.label != label)
            util::fatal("sweep snapshot mismatch: recorded leg '%s', "
                        "benchmark asked for '%s'",
                        cached.label.c_str(), label.c_str());
        ++nextCached_;
        if (harness_.telemetryEnabled())
            reconcileLeg(label, cached.metrics);
        return cached.metrics;
    }

    // Interrupt landed between legs: save a sweep image marking this
    // leg as active-but-unstarted and stop.
    if (stopRequested()) {
        activeLabel_ = label;
        if (resumeActive_ && label == resumeActiveLabel_)
            activeState_ = resumeActiveState_;
        else
            activeState_.clear();
        writeSweepFile();
        stopped_ = true;
        return {};
    }

    sched::ClusterSimulator sim(config);
    activeLabel_ = label;
    activeState_.clear();

    telemetry::TraceRecorder &trace = harness_.trace();
    if (harness_.telemetryEnabled()) {
        sim.bindTelemetry(harness_.registry(), "cluster." + label);
        sim.bindTrace(&trace, tid);
        trace.setThreadName(tid, label);
        trace.beginSpan(label, "leg", 0.0, tid);
    }

    sched::RunOptions options;
    options.digestEverySeconds = digestEvery_;
    options.snapshotEverySeconds = snapshotEvery_;
    options.snapshotSink =
        [this](const std::vector<std::uint8_t> &state) {
            activeState_ = state;
            writeSweepFile();
        };
    options.interrupted = stopRequested;

    sched::RunOutcome outcome;
    if (resumeActive_) {
        if (label != resumeActiveLabel_)
            util::fatal("sweep snapshot mismatch: active leg '%s', "
                        "benchmark asked for '%s'",
                        resumeActiveLabel_.c_str(), label.c_str());
        resumeActive_ = false;
        if (resumeActiveState_.empty()) {
            // Interrupted before the leg started; run it fresh.
            outcome = sim.run(jobs, options);
        } else {
            const util::Status status =
                sim.restoreState(resumeActiveState_, jobs);
            if (!status.ok())
                util::fatal("cannot resume leg '%s' from '%s': %s",
                            label.c_str(), resumeFrom_.c_str(),
                            status.message().c_str());
            outcome = sim.resume(options);
        }
    } else {
        outcome = sim.run(jobs, options);
    }

    if (harness_.telemetryEnabled())
        trace.endSpan(outcome.simSeconds * 1e6, tid, label);
    harness_.addSimulated(outcome.simSeconds, outcome.eventsProcessed);

    if (!outcome.completed) {
        // The final snapshot already went through the sink.
        stopped_ = true;
        return outcome.metrics;
    }
    if (harness_.telemetryEnabled())
        reconcileLeg(label, outcome.metrics);
    completed_.push_back(CompletedLeg{label, outcome.metrics});
    nextCached_ = completed_.size();
    activeState_.clear();
    return outcome.metrics;
}

void
SweepRunner::reconcileLeg(const std::string &label,
                          const sched::ClusterMetrics &metrics) const
{
    const std::string prefix = "cluster." + label;
    const telemetry::Registry &registry = harness_.registry();
    const std::pair<const char *, std::uint64_t> counters[] = {
        {"jobs_completed", metrics.jobsCompleted},
        {"ue_injected", metrics.ueInjected},
        {"job_kills", metrics.jobKills},
        {"requeues", metrics.requeues},
        {"jobs_dropped", metrics.jobsDropped},
        {"nodes_failed", metrics.nodesFailed},
        {"nodes_demoted", metrics.nodesDemoted},
        {"tolerant_ues", metrics.tolerantUes},
        {"critical_ues", metrics.criticalUes},
        {"jobs_degraded", metrics.jobsDegraded},
        {"pages_degraded", metrics.pagesDegraded},
    };
    for (const auto &[name, expected] : counters) {
        const telemetry::Metric *metric =
            registry.find(prefix + "." + name);
        const auto *counter =
            metric != nullptr ? std::get_if<telemetry::Counter>(metric)
                              : nullptr;
        if (counter == nullptr)
            util::fatal("telemetry reconciliation: counter '%s.%s' "
                        "missing from the registry",
                        prefix.c_str(), name);
        if (counter->value() != expected)
            util::fatal("telemetry reconciliation: %s.%s is %llu but "
                        "the leg's metrics say %llu",
                        prefix.c_str(), name,
                        static_cast<unsigned long long>(counter->value()),
                        static_cast<unsigned long long>(expected));
    }

    const telemetry::Metric *metric =
        registry.find(prefix + ".turnaround_seconds");
    const auto *histogram =
        metric != nullptr
            ? std::get_if<telemetry::Log2Histogram>(metric)
            : nullptr;
    if (histogram == nullptr)
        util::fatal("telemetry reconciliation: histogram "
                    "'%s.turnaround_seconds' missing from the registry",
                    prefix.c_str());
    if (histogram->count() != metrics.jobsCompleted)
        util::fatal("telemetry reconciliation: "
                    "%s.turnaround_seconds recorded %llu samples for "
                    "%llu completed jobs",
                    prefix.c_str(),
                    static_cast<unsigned long long>(histogram->count()),
                    static_cast<unsigned long long>(
                        metrics.jobsCompleted));
    // Samples are recorded as whole seconds, so the histogram mean
    // can sit at most one second below the exact mean.
    if (metrics.jobsCompleted > 0 &&
        std::fabs(histogram->mean() - metrics.meanTurnaroundSeconds) >
            1.0)
        util::fatal("telemetry reconciliation: "
                    "%s.turnaround_seconds mean %.3f disagrees with "
                    "the leg's mean turnaround %.3f",
                    prefix.c_str(), histogram->mean(),
                    metrics.meanTurnaroundSeconds);
}

int
SweepRunner::finish()
{
    if (stopped_)
        std::fprintf(stderr,
                     "\n%s: interrupted during leg '%s'; sweep state "
                     "saved to %s\nresume with: --resume-from=%s\n",
                     harness_.name().c_str(), activeLabel_.c_str(),
                     snapshotPath_.c_str(), snapshotPath_.c_str());
    return harness_.finish(stopped_);
}

} // namespace hdmr::bench
