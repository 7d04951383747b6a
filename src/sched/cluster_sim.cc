#include "sched/cluster_sim.hh"

#include <algorithm>
#include <cmath>

#include "snapshot/serializer.hh"
#include "util/logging.hh"

namespace hdmr::sched
{

// --------------------------------------------------------------------
// Configuration validation
// --------------------------------------------------------------------

util::Status
SpeedupTable::validate() const
{
    if (!std::isfinite(at800) || !(at800 >= 1.0))
        return util::invalidArgument(
            "SpeedupTable.at800 must be a finite speedup >= 1 "
            "(got %g)",
            at800);
    if (!std::isfinite(at600) || !(at600 >= 1.0))
        return util::invalidArgument(
            "SpeedupTable.at600 must be a finite speedup >= 1 "
            "(got %g)",
            at600);
    if (at600 > at800)
        return util::invalidArgument(
            "SpeedupTable.at600 (%g) must not exceed at800 (%g): "
            "group 0 is the faster margin group",
            at600, at800);
    return util::Status{};
}

util::Status
ResiliencePolicy::validate() const
{
    if (!std::isfinite(requeueBackoffBaseSeconds) ||
        !(requeueBackoffBaseSeconds >= 0.0))
        return util::invalidArgument(
            "ResiliencePolicy.requeueBackoffBaseSeconds must be a "
            "finite non-negative duration (got %g)",
            requeueBackoffBaseSeconds);
    if (!std::isfinite(requeueBackoffCapSeconds) ||
        !(requeueBackoffCapSeconds >= requeueBackoffBaseSeconds))
        return util::invalidArgument(
            "ResiliencePolicy.requeueBackoffCapSeconds (%g) must be "
            "finite and at least the base backoff (%g)",
            requeueBackoffCapSeconds, requeueBackoffBaseSeconds);
    if (!std::isfinite(checkpointIntervalSeconds) ||
        !(checkpointIntervalSeconds >= 0.0))
        return util::invalidArgument(
            "ResiliencePolicy.checkpointIntervalSeconds must be a "
            "finite non-negative duration (got %g)",
            checkpointIntervalSeconds);
    if (!std::isfinite(checkpointOverheadFraction) ||
        !(checkpointOverheadFraction >= 0.0) ||
        checkpointOverheadFraction >= 1.0)
        return util::invalidArgument(
            "ResiliencePolicy.checkpointOverheadFraction must be a "
            "finite fraction in [0, 1) (got %g)",
            checkpointOverheadFraction);
    return util::Status{};
}

util::Status
ClusterConfig::validate() const
{
    if (nodes == 0)
        return util::invalidArgument(
            "ClusterConfig.nodes must be at least 1");
    double fraction_sum = 0.0;
    for (std::size_t g = 0; g < kGroups; ++g) {
        const double f = groupFractions[g];
        if (!std::isfinite(f) || !(f >= 0.0) || f > 1.0)
            return util::invalidArgument(
                "ClusterConfig.groupFractions[%zu] must be a finite "
                "fraction in [0, 1] (got %g)",
                g, f);
        fraction_sum += f;
    }
    if (std::abs(fraction_sum - 1.0) > 1e-6)
        return util::invalidArgument(
            "ClusterConfig.groupFractions must sum to 1 (got %g)",
            fraction_sum);
    if (backfillDepth == 0)
        return util::invalidArgument(
            "ClusterConfig.backfillDepth must be at least 1");
    if (!std::isfinite(excursionUeMultiplier) ||
        excursionUeMultiplier < 1.0)
        return util::invalidArgument(
            "ClusterConfig.excursionUeMultiplier must be a finite "
            "value >= 1 (got %g)",
            excursionUeMultiplier);
    for (std::size_t i = 0; i < scheduleOverlay.size(); ++i) {
        const fault::FaultEvent &ev = scheduleOverlay[i];
        if (!std::isfinite(ev.atSeconds) || ev.atSeconds < 0.0)
            return util::invalidArgument(
                "ClusterConfig.scheduleOverlay[%zu].atSeconds must "
                "be finite and >= 0 (got %g)",
                i, ev.atSeconds);
        if (!std::isfinite(ev.durationSeconds) ||
            ev.durationSeconds < 0.0)
            return util::invalidArgument(
                "ClusterConfig.scheduleOverlay[%zu].durationSeconds "
                "must be finite and >= 0 (got %g)",
                i, ev.durationSeconds);
    }
    HDMR_RETURN_IF_ERROR(speedups.validate());
    HDMR_RETURN_IF_ERROR(resilience.validate());
    HDMR_RETURN_IF_ERROR(faults.validate());
    HDMR_RETURN_IF_ERROR(placement.validate());
    HDMR_RETURN_IF_ERROR(criticality.validate());
    return util::Status{};
}

// --------------------------------------------------------------------
// Metrics
// --------------------------------------------------------------------

void
saveMetrics(snapshot::Serializer &out, const ClusterMetrics &m)
{
    out.writeU64(m.jobsCompleted);
    out.writeDouble(m.meanExecSeconds);
    out.writeDouble(m.meanQueueSeconds);
    out.writeDouble(m.meanTurnaroundSeconds);
    out.writeDouble(m.meanNodeUtilization);
    out.writeDouble(m.acceleratedFraction);
    out.writeU64(m.ueInjected);
    out.writeU64(m.jobKills);
    out.writeU64(m.requeues);
    out.writeU64(m.nodesFailed);
    out.writeU64(m.nodesDemoted);
    out.writeU64(m.excursions);
    out.writeU64(m.jobsDropped);
    out.writeDouble(m.lostNodeSeconds);
    out.writeDouble(m.checkpointOverheadSeconds);
    out.writeU64(m.tolerantUes);
    out.writeU64(m.criticalUes);
    out.writeU64(m.jobsDegraded);
    out.writeU64(m.pagesDegraded);
    out.writeDouble(m.dataQualityPenalty);
    out.writeDouble(m.copyNodeSeconds);
    out.writeDouble(m.dmrCopyNodeSeconds);
}

bool
restoreMetrics(snapshot::Deserializer &in, ClusterMetrics *m)
{
    m->jobsCompleted = static_cast<std::size_t>(in.readU64());
    m->meanExecSeconds = in.readDouble();
    m->meanQueueSeconds = in.readDouble();
    m->meanTurnaroundSeconds = in.readDouble();
    m->meanNodeUtilization = in.readDouble();
    m->acceleratedFraction = in.readDouble();
    m->ueInjected = in.readU64();
    m->jobKills = in.readU64();
    m->requeues = in.readU64();
    m->nodesFailed = in.readU64();
    m->nodesDemoted = in.readU64();
    m->excursions = in.readU64();
    m->jobsDropped = in.readU64();
    m->lostNodeSeconds = in.readDouble();
    m->checkpointOverheadSeconds = in.readDouble();
    m->tolerantUes = in.readU64();
    m->criticalUes = in.readU64();
    m->jobsDegraded = in.readU64();
    m->pagesDegraded = in.readU64();
    m->dataQualityPenalty = in.readDouble();
    m->copyNodeSeconds = in.readDouble();
    m->dmrCopyNodeSeconds = in.readDouble();
    return in.ok();
}

bool
metricsIdentical(const ClusterMetrics &a, const ClusterMetrics &b)
{
    return a.jobsCompleted == b.jobsCompleted &&
           a.meanExecSeconds == b.meanExecSeconds &&
           a.meanQueueSeconds == b.meanQueueSeconds &&
           a.meanTurnaroundSeconds == b.meanTurnaroundSeconds &&
           a.meanNodeUtilization == b.meanNodeUtilization &&
           a.acceleratedFraction == b.acceleratedFraction &&
           a.ueInjected == b.ueInjected && a.jobKills == b.jobKills &&
           a.requeues == b.requeues && a.nodesFailed == b.nodesFailed &&
           a.nodesDemoted == b.nodesDemoted &&
           a.excursions == b.excursions &&
           a.jobsDropped == b.jobsDropped &&
           a.lostNodeSeconds == b.lostNodeSeconds &&
           a.checkpointOverheadSeconds ==
               b.checkpointOverheadSeconds &&
           a.tolerantUes == b.tolerantUes &&
           a.criticalUes == b.criticalUes &&
           a.jobsDegraded == b.jobsDegraded &&
           a.pagesDegraded == b.pagesDegraded &&
           a.dataQualityPenalty == b.dataQualityPenalty &&
           a.copyNodeSeconds == b.copyNodeSeconds &&
           a.dmrCopyNodeSeconds == b.dmrCopyNodeSeconds;
}

// --------------------------------------------------------------------
// Construction / capacity
// --------------------------------------------------------------------

ClusterSimulator::ClusterSimulator(ClusterConfig config)
    : config_(config), criticality_(config.criticality),
      rng_(config.seed)
{
    util::checkOk(config_.validate());
    resetCapacity();
}

void
ClusterSimulator::bindTelemetry(telemetry::Registry &registry,
                                const std::string &prefix)
{
    tm_.jobsCompleted = &registry.counter(prefix + ".jobs_completed");
    tm_.ueInjected = &registry.counter(prefix + ".ue_injected");
    tm_.jobKills = &registry.counter(prefix + ".job_kills");
    tm_.requeues = &registry.counter(prefix + ".requeues");
    tm_.jobsDropped = &registry.counter(prefix + ".jobs_dropped");
    tm_.tolerantUes = &registry.counter(prefix + ".tolerant_ues");
    tm_.criticalUes = &registry.counter(prefix + ".critical_ues");
    tm_.jobsDegraded = &registry.counter(prefix + ".jobs_degraded");
    tm_.pagesDegraded =
        &registry.counter(prefix + ".pages_degraded");
    tm_.dataQualityPenalty =
        &registry.gauge(prefix + ".data_quality_penalty");
    tm_.copyNodeSeconds =
        &registry.gauge(prefix + ".copy_node_seconds");
    tm_.nodesFailed = &registry.counter(prefix + ".nodes_failed");
    tm_.nodesDemoted = &registry.counter(prefix + ".nodes_demoted");
    tm_.excursions = &registry.counter(prefix + ".excursions");
    tm_.eventsProcessed =
        &registry.counter(prefix + ".events_processed");
    tm_.queueDepth = &registry.gauge(prefix + ".queue_depth");
    tm_.busyNodeSeconds =
        &registry.gauge(prefix + ".busy_node_seconds");
    tm_.nodeUtilization =
        &registry.gauge(prefix + ".node_utilization");
    tm_.turnaroundSeconds =
        &registry.histogram(prefix + ".turnaround_seconds");
    registry_ = &registry;
}

void
ClusterSimulator::bindTrace(telemetry::TraceRecorder *trace,
                            std::uint32_t tid)
{
    trace_ = trace;
    traceTid_ = tid;
}

void
ClusterSimulator::traceInstant(const char *name, double now) const
{
    if (trace_ != nullptr)
        trace_->instant(name, "sched", now * 1e6, traceTid_);
}

void
ClusterSimulator::resetCapacity()
{
    unsigned assigned = 0;
    for (std::size_t g = 0; g < kGroups; ++g) {
        freePerGroup_[g] = static_cast<unsigned>(
            std::round(config_.groupFractions[g] * config_.nodes));
        assigned += freePerGroup_[g];
    }
    // Fix rounding drift in the largest group.
    if (assigned != config_.nodes) {
        const int drift = static_cast<int>(config_.nodes) -
                          static_cast<int>(assigned);
        freePerGroup_[0] =
            static_cast<unsigned>(static_cast<int>(freePerGroup_[0]) +
                                  drift);
    }
    totalPerGroup_ = freePerGroup_;
    pendingFailures_ = {0, 0, 0};
    pendingDemotions_ = {0, 0, 0};
}

unsigned
ClusterSimulator::totalFree() const
{
    return freePerGroup_[0] + freePerGroup_[1] + freePerGroup_[2];
}

unsigned
ClusterSimulator::capacity() const
{
    return totalPerGroup_[0] + totalPerGroup_[1] + totalPerGroup_[2];
}

std::size_t
ClusterSimulator::groupOfTarget(unsigned target) const
{
    const unsigned cap = capacity();
    if (cap == 0)
        return kGroups;
    unsigned idx = target % cap;
    for (std::size_t g = 0; g < kGroups; ++g) {
        if (idx < totalPerGroup_[g])
            return g;
        idx -= totalPerGroup_[g];
    }
    return kGroups - 1;
}

void
ClusterSimulator::applyClusterFault(const fault::FaultEvent &fault)
{
    if (fault.kind == fault::FaultKind::kTemperatureExcursion) {
        // Fleet-wide hot window: jobs started before hotUntil carry
        // the elevated UE hazard.  Overlapping windows union.
        ++st_.metrics.excursions;
        HDMR_TM_INC(tm_.excursions);
        traceInstant("temperature_excursion", fault.atSeconds);
        st_.hotUntil = std::max(
            st_.hotUntil, fault.atSeconds + fault.durationSeconds);
        return;
    }

    std::size_t g = groupOfTarget(fault.target);
    if (g >= kGroups)
        return; // no surviving nodes left to fault

    switch (fault.kind) {
      case fault::FaultKind::kNodeFailure:
        ++st_.metrics.nodesFailed;
        HDMR_TM_INC(tm_.nodesFailed);
        traceInstant("node_failure", fault.atSeconds);
        if (freePerGroup_[g] > 0) {
            --freePerGroup_[g];
            --totalPerGroup_[g];
        } else {
            // All of the group is busy: the node drops out when its
            // current job releases it.
            ++pendingFailures_[g];
        }
        break;

      case fault::FaultKind::kGroupDemotion:
        if (g == kGroups - 1) {
            // Already in the no-margin group; reclassify the fastest
            // group that still has nodes instead.
            if (totalPerGroup_[0] > 0)
                g = 0;
            else if (totalPerGroup_[1] > 0)
                g = 1;
            else
                return;
        }
        ++st_.metrics.nodesDemoted;
        HDMR_TM_INC(tm_.nodesDemoted);
        traceInstant("group_demotion", fault.atSeconds);
        if (freePerGroup_[g] > 0) {
            --freePerGroup_[g];
            --totalPerGroup_[g];
            ++freePerGroup_[g + 1];
            ++totalPerGroup_[g + 1];
        } else {
            ++pendingDemotions_[g];
        }
        break;

      default:
        break; // node-layer kinds are not delivered here
    }
}

void
ClusterSimulator::drainDeferredFaults()
{
    for (std::size_t g = 0; g < kGroups; ++g) {
        while (pendingFailures_[g] > 0 && freePerGroup_[g] > 0) {
            --pendingFailures_[g];
            --freePerGroup_[g];
            --totalPerGroup_[g];
        }
        while (g + 1 < kGroups && pendingDemotions_[g] > 0 &&
               freePerGroup_[g] > 0) {
            --pendingDemotions_[g];
            --freePerGroup_[g];
            --totalPerGroup_[g];
            ++freePerGroup_[g + 1];
            ++totalPerGroup_[g + 1];
        }
    }
}

bool
ClusterSimulator::allocate(unsigned count,
                           std::array<unsigned, kGroups> &allocated)
{
    allocated = {0, 0, 0};
    if (totalFree() < count)
        return false;

    if (config_.marginAware) {
        // The paper's policy: the fastest group with >= count free
        // nodes takes the whole job; otherwise spill across groups
        // fastest-first.
        for (std::size_t g = 0; g < kGroups; ++g) {
            if (freePerGroup_[g] >= count) {
                freePerGroup_[g] -= count;
                allocated[g] = count;
                return true;
            }
        }
        unsigned remaining = count;
        for (std::size_t g = 0; g < kGroups && remaining > 0; ++g) {
            const unsigned take =
                std::min(freePerGroup_[g], remaining);
            freePerGroup_[g] -= take;
            allocated[g] = take;
            remaining -= take;
        }
        return true;
    }

    // Margin-unaware (Slurm default): nodes come from an undifferen-
    // tiated pool; model it as hypergeometric draws across groups.
    unsigned remaining = count;
    while (remaining > 0) {
        const unsigned free_now = totalFree();
        std::uint64_t pick = rng_.uniformInt(1, free_now);
        for (std::size_t g = 0; g < kGroups; ++g) {
            if (pick <= freePerGroup_[g]) {
                const unsigned take = std::min<unsigned>(
                    remaining, std::max<unsigned>(1, remaining / 4));
                const unsigned granted =
                    std::min(freePerGroup_[g], take);
                freePerGroup_[g] -= granted;
                allocated[g] += granted;
                remaining -= granted;
                break;
            }
            pick -= freePerGroup_[g];
        }
    }
    return true;
}

double
ClusterSimulator::speedupFor(
    const traces::Job &job,
    const std::array<unsigned, kGroups> &allocated,
    double tolerant_fraction)
{
    if (!config_.heteroDmr)
        return 1.0;
    // Under Hetero-DMR a job using >= 50 % memory cannot replicate
    // (no speedup); Het-Reliability only needs the *critical* share
    // to fit beside its copy, so tolerant high-usage jobs qualify.
    if (!config_.placement.marginEligible(job.usageClass,
                                          tolerant_fraction))
        return 1.0;
    // MPI couples the job to its slowest node.
    std::size_t slowest = 0;
    for (std::size_t g = 0; g < kGroups; ++g) {
        if (allocated[g] > 0)
            slowest = g;
    }
    return config_.speedups.forGroup(slowest);
}

// --------------------------------------------------------------------
// Event loop
// --------------------------------------------------------------------

void
ClusterSimulator::initRun(const std::vector<traces::Job> &jobs,
                          double digest_every_seconds)
{
    resetCapacity();
    rng_.seed(config_.seed);
    st_ = RunState{};
    st_.jobs = &jobs;
    st_.jobState.assign(jobs.size(), JobState{});
    st_.trail.epochSeconds = digest_every_seconds;

    // Cluster-scoped campaign events.  Job-killing UEs do not come
    // from this schedule: they use nested per-(job, attempt) hazard
    // draws (FaultCampaign::killTimeSeconds) so fault realizations at
    // a higher intensity are a superset of those at a lower one.
    std::vector<fault::FaultEvent> cluster_faults;
    const auto cluster_scoped = [](const fault::FaultEvent &ev) {
        return ev.kind == fault::FaultKind::kNodeFailure ||
               ev.kind == fault::FaultKind::kGroupDemotion ||
               ev.kind == fault::FaultKind::kTemperatureExcursion;
    };
    if (config_.faults.enabled()) {
        fault::CampaignConfig fc = config_.faults;
        fc.targets = config_.nodes; // rates are per node-hour
        for (const fault::FaultEvent &ev :
             fault::FaultCampaign(fc).schedule()) {
            if (cluster_scoped(ev))
                cluster_faults.push_back(ev);
        }
    }
    // Chaos-harness overlay (drift-driven demotions and fleet-wide
    // hot windows), merged by time; campaign events win ties.
    if (!config_.scheduleOverlay.empty()) {
        for (const fault::FaultEvent &ev : config_.scheduleOverlay) {
            if (cluster_scoped(ev))
                cluster_faults.push_back(ev);
        }
        std::stable_sort(
            cluster_faults.begin(), cluster_faults.end(),
            [](const fault::FaultEvent &a, const fault::FaultEvent &b) {
                return a.atSeconds < b.atSeconds;
            });
    }
    st_.faults = fault::ScheduleCursor(std::move(cluster_faults));
    st_.active = true;
}

void
ClusterSimulator::startJob(std::uint32_t job_index, double now)
{
    const traces::Job &job = (*st_.jobs)[job_index];
    JobState &jst = st_.jobState[job_index];
    if (jst.remainingSeconds < 0.0)
        jst.remainingSeconds = job.runtimeSeconds;
    const unsigned attempt = ++jst.attempts;

    // Margin UEs strike harder while a temperature excursion holds
    // the fleet hot (error rates ~4x at 45 degC); scaling the hazard
    // preserves the nested-realization property (kill times only ever
    // move earlier).
    const double hot_factor =
        now < st_.hotUntil ? config_.excursionUeMultiplier : 1.0;
    const double ue_node_rate = config_.faults.intensity *
                                config_.faults.uncorrectablePerHour *
                                hot_factor / 3600.0;
    const double ckpt_interval =
        config_.resilience.checkpointIntervalSeconds;
    const double ckpt_ovh =
        ckpt_interval > 0.0
            ? config_.resilience.checkpointOverheadFraction
            : 0.0;

    std::array<unsigned, kGroups> allocated;
    const bool ok = allocate(job.nodes, allocated);
    hdmr_assert(ok, "startJob called without room");
    const wl::JobCriticality crit =
        criticality_.jobCriticality(job.id);
    const double speedup =
        speedupFor(job, allocated, crit.tolerantFraction);
    const double exec =
        jst.remainingSeconds / speedup * (1.0 + ckpt_ovh);
    const double est = job.walltimeSeconds / speedup;

    // Will a UE kill this attempt?  Margin UEs only strike jobs
    // actually running fast; the hazard scales with the job's node
    // count.  Under Het-Reliability semantics a strike landing on a
    // tolerant (unreplicated) page is *absorbed*: the page degrades
    // and the attempt keeps running, so we walk the (job, attempt)
    // hazard sequence until a critical page is hit or the attempt
    // outlives the horizon.  Page-class draws are pure hashes of the
    // criticality seed - no run-RNG stream is consumed - so a resumed
    // snapshot replays the identical strike sequence, and the default
    // Hetero-DMR placement (strike probability 0) reproduces the
    // single-draw seed behaviour bit for bit.
    constexpr unsigned kMaxAbsorbedStrikes = 64;
    double kill_after = std::numeric_limits<double>::infinity();
    unsigned tolerant_hits = 0;
    if (ue_node_rate > 0.0 && speedup > 1.0) {
        const double job_rate =
            ue_node_rate * static_cast<double>(job.nodes);
        const double strike_tolerant_p =
            config_.placement.tolerantStrikeProbability(
                crit.tolerantFraction);
        const std::uint64_t strike_scope =
            (static_cast<std::uint64_t>(job.id) << 20) + attempt;
        double strike_at = fault::FaultCampaign::killTimeSeconds(
            config_.faults.seed, job.id, attempt, job_rate);
        while (strike_at < exec && strike_tolerant_p > 0.0 &&
               tolerant_hits < kMaxAbsorbedStrikes &&
               wl::pageIsTolerant(config_.criticality.seed,
                                  strike_scope, tolerant_hits,
                                  strike_tolerant_p)) {
            ++tolerant_hits;
            strike_at += fault::FaultCampaign::killTimeSeconds(
                config_.faults.seed, job.id,
                attempt + (tolerant_hits << 16), job_rate);
        }
        kill_after = strike_at;
    }

    // Degradation bookkeeping: every absorbed strike is a delivered
    // UE that downgraded one tolerant page instead of killing the
    // attempt, each carrying the configured data-quality penalty.
    if (tolerant_hits > 0) {
        st_.metrics.ueInjected += tolerant_hits;
        st_.metrics.tolerantUes += tolerant_hits;
        st_.metrics.pagesDegraded += tolerant_hits;
        st_.metrics.dataQualityPenalty +=
            static_cast<double>(tolerant_hits) *
            config_.placement.degradePenalty;
        HDMR_TM_ADD(tm_.ueInjected, tolerant_hits);
        HDMR_TM_ADD(tm_.tolerantUes, tolerant_hits);
        HDMR_TM_ADD(tm_.pagesDegraded, tolerant_hits);
        HDMR_TM_GAUGE_ADD(tm_.dataQualityPenalty,
                          static_cast<double>(tolerant_hits) *
                              config_.placement.degradePenalty);
        traceInstant("page_degrade", now);
    }

    // Copy-capacity accounting: while the attempt runs fast, its
    // replicated share occupies copy capacity.  The full-replication
    // cost of the same placement is tracked alongside, so
    // 1 - copy/dmrCopy is the capacity this placement reclaims from
    // Hetero-DMR's tax (identically 0 under the default policy).
    if (speedup > 1.0) {
        const double fast_seconds = std::min(kill_after, exec);
        const unsigned usage_class =
            job.usageClass < 3 ? job.usageClass : 2;
        const double footprint =
            fast_seconds * static_cast<double>(job.nodes) *
            config_.placement.usageRepresentative[usage_class];
        const double copy =
            footprint *
            config_.placement.replicatedShare(crit.tolerantFraction);
        st_.metrics.copyNodeSeconds += copy;
        st_.metrics.dmrCopyNodeSeconds += footprint;
        HDMR_TM_GAUGE_ADD(tm_.copyNodeSeconds, copy);
    }

    RunningJob rj;
    rj.jobIndex = job_index;
    rj.allocated = allocated;
    rj.attempt = attempt;
    rj.estimatedEndTime = now + est;
    const std::uint64_t seq = st_.startSeq++;

    if (kill_after < exec) {
        // Attempt dies mid-run; metrics for the job are deferred to
        // its eventually-successful attempt.
        rj.killed = true;
        rj.endTime = now + kill_after;
        ++st_.metrics.ueInjected;
        ++st_.metrics.criticalUes;
        ++st_.metrics.jobKills;
        HDMR_TM_INC(tm_.ueInjected);
        HDMR_TM_INC(tm_.criticalUes);
        HDMR_TM_INC(tm_.jobKills);
        traceInstant("job_kill", rj.endTime);
        const double useful =
            kill_after / (1.0 + ckpt_ovh) * speedup;
        double saved = 0.0;
        if (ckpt_interval > 0.0) {
            saved = std::floor(useful / ckpt_interval) *
                    ckpt_interval;
        }
        saved = std::min(saved, jst.remainingSeconds);
        jst.remainingSeconds -= saved;
        st_.metrics.lostNodeSeconds +=
            (kill_after - saved / speedup * (1.0 + ckpt_ovh)) *
            static_cast<double>(job.nodes);
        st_.metrics.checkpointOverheadSeconds +=
            kill_after * ckpt_ovh / (1.0 + ckpt_ovh);
        st_.busyNodeSeconds += kill_after * job.nodes;
        st_.spanEnd = std::max(st_.spanEnd, rj.endTime);
    } else {
        rj.endTime = now + exec;
        st_.execSum += exec;
        const double qdelay = now - job.submitSeconds;
        st_.queueSum += qdelay;
        st_.turnaroundSum += qdelay + exec;
        st_.busyNodeSeconds += exec * job.nodes;
        ++st_.metrics.jobsCompleted;
        HDMR_TM_INC(tm_.jobsCompleted);
        HDMR_TM_RECORD(tm_.turnaroundSeconds,
                       static_cast<std::uint64_t>(qdelay + exec));
        if (config_.heteroDmr &&
            config_.placement.marginEligible(job.usageClass,
                                             crit.tolerantFraction)) {
            ++st_.eligible;
            st_.accelerated += speedup > 1.0;
        }
        if (tolerant_hits > 0) {
            ++st_.metrics.jobsDegraded;
            HDMR_TM_INC(tm_.jobsDegraded);
        }
        st_.metrics.checkpointOverheadSeconds +=
            exec * ckpt_ovh / (1.0 + ckpt_ovh);
        st_.spanEnd = std::max(st_.spanEnd, rj.endTime);
    }
    st_.estimates.insert(rj.estimate());
    st_.running.emplace_hint(st_.running.end(), seq, rj);
    st_.completions.push_back(Completion{rj.endTime, seq});
    std::push_heap(st_.completions.begin(), st_.completions.end(),
                   std::greater<>{});
}

void
ClusterSimulator::trySchedule(double now)
{
    auto &pending = st_.pending;
    const auto &jobs = *st_.jobs;

    // FCFS head + EASY backfill.  Entries consumed by an earlier
    // backfill pass are nulled in place; skip them.
    while (!pending.empty()) {
        if (pending.front().jobIndex < 0) {
            pending.pop_front();
            continue;
        }
        const traces::Job &head =
            jobs[static_cast<std::size_t>(pending.front().jobIndex)];
        if (head.nodes > capacity()) {
            // Node failures shrank the machine below the job.
            ++st_.metrics.jobsDropped;
            HDMR_TM_INC(tm_.jobsDropped);
            pending.pop_front();
            continue;
        }
        if (head.nodes > totalFree())
            break;
        startJob(static_cast<std::uint32_t>(pending.front().jobIndex),
                 now);
        pending.pop_front();
    }
    if (pending.empty())
        return;

    // Head blocked: compute its reservation ("shadow") time from the
    // running jobs' *estimated* completions, earliest first.
    const unsigned needed =
        jobs[static_cast<std::size_t>(pending.front().jobIndex)].nodes;
    double shadow_time = now;
    unsigned accumulating = totalFree();
    for (const auto &[when, nodes] : st_.estimates) {
        accumulating += nodes;
        if (accumulating >= needed) {
            shadow_time = when;
            break;
        }
    }
    // Nodes left over at the shadow time after the head starts.
    const unsigned extra_nodes =
        accumulating >= needed ? accumulating - needed : 0;

    // Backfill: a queued job may jump ahead if it fits now and either
    // finishes before the shadow time or uses few enough nodes to
    // leave the head's reservation intact.
    const std::size_t depth =
        std::min(pending.size(), config_.backfillDepth);
    for (std::size_t i = 1; i < depth; ++i) {
        if (pending[i].jobIndex < 0)
            continue;
        const auto job_index =
            static_cast<std::uint32_t>(pending[i].jobIndex);
        const traces::Job &job = jobs[job_index];
        if (job.nodes > totalFree())
            continue;
        const bool before_shadow =
            now + job.walltimeSeconds <= shadow_time;
        const bool within_extra = job.nodes <= extra_nodes;
        if (before_shadow || within_extra) {
            startJob(job_index, now);
            pending[i].jobIndex = -1; // consumed
        }
    }
    while (!pending.empty() && pending.front().jobIndex < 0)
        pending.pop_front();
}

void
ClusterSimulator::recordDigests(double now)
{
    const double every = st_.trail.epochSeconds;
    if (!(every > 0.0))
        return;
    while (static_cast<double>(st_.digestEpoch + 1) * every <= now) {
        st_.trail.digests.push_back(stateDigest());
        ++st_.digestEpoch;
    }
}

void
ClusterSimulator::emitSnapshot(const RunOptions &options) const
{
    if (!options.snapshotSink)
        return;
    snapshot::Serializer out;
    serializeState(out);
    options.snapshotSink(out.data());
}

ClusterMetrics
ClusterSimulator::finalizeMetrics() const
{
    ClusterMetrics metrics = st_.metrics;
    if (metrics.jobsCompleted > 0) {
        const auto n = static_cast<double>(metrics.jobsCompleted);
        metrics.meanExecSeconds = st_.execSum / n;
        metrics.meanQueueSeconds = st_.queueSum / n;
        metrics.meanTurnaroundSeconds = st_.turnaroundSum / n;
    }
    const double span = std::max(st_.spanEnd, st_.lastEventTime);
    if (span > 0.0) {
        metrics.meanNodeUtilization =
            st_.busyNodeSeconds / (span * config_.nodes);
    }
    if (st_.eligible > 0) {
        metrics.acceleratedFraction =
            static_cast<double>(st_.accelerated) /
            static_cast<double>(st_.eligible);
    }
    // Derived level; written post-digest, so it never perturbs the
    // replay-divergence trail (both a straight-through and a resumed
    // run overwrite it with the same final value).
    HDMR_TM_SET(tm_.nodeUtilization, metrics.meanNodeUtilization);
    return metrics;
}

RunOutcome
ClusterSimulator::runLoop(const RunOptions &options)
{
    hdmr_assert(st_.active, "runLoop without initRun/restoreState");
    const auto &jobs = *st_.jobs;
    const double inf = std::numeric_limits<double>::infinity();

    const double snap_every = options.snapshotEverySeconds;
    double next_snapshot_at =
        snap_every > 0.0
            ? (std::floor(st_.lastEventTime / snap_every) + 1.0) *
                  snap_every
            : inf;

    bool completed = true;
    bool deadline_hit = false;
    while (st_.nextArrival < jobs.size() || !st_.completions.empty() ||
           !st_.faults.done() || !st_.resubmits.empty()) {
        const double t_arrival =
            st_.nextArrival < jobs.size()
                ? jobs[st_.nextArrival].submitSeconds
                : inf;
        const double t_fault = st_.faults.nextTimeSeconds();
        const double t_resubmit =
            st_.resubmits.empty() ? inf : st_.resubmits.begin()->time;
        const double t_completion =
            st_.completions.empty() ? inf : st_.completions.front().time;

        // Tie order: faults first (capacity changes are visible to
        // anything scheduled at the same instant), then trace
        // arrivals, then resubmissions, then completions (matching
        // the fault-free arrival-before-completion order).
        enum class Kind
        {
            kFault,
            kArrival,
            kResubmit,
            kCompletion
        } kind;
        double now;
        if (!st_.faults.done() && t_fault <= t_arrival &&
            t_fault <= t_resubmit && t_fault <= t_completion) {
            kind = Kind::kFault;
            now = t_fault;
        } else if (st_.nextArrival < jobs.size() &&
                   t_arrival <= t_resubmit &&
                   t_arrival <= t_completion) {
            kind = Kind::kArrival;
            now = t_arrival;
        } else if (!st_.resubmits.empty() &&
                   t_resubmit <= t_completion) {
            kind = Kind::kResubmit;
            now = t_resubmit;
        } else {
            kind = Kind::kCompletion;
            now = t_completion;
        }

        // Decision-point bookkeeping *before* the event mutates
        // anything: digest epochs the simulation is about to cross,
        // then stop/snapshot checks.  A resumed run re-enters here
        // with the exact pre-event state, so the digest trail and the
        // replay are bit-identical.
        recordDigests(now);
        if (options.deadlineExpired && options.deadlineExpired()) {
            // Deadline early-out: no snapshot, the caller is about to
            // discard this rollout for a degraded answer anyway.
            completed = false;
            deadline_hit = true;
            break;
        }
        if (now >= options.stopAfterSeconds ||
            (options.interrupted && options.interrupted())) {
            emitSnapshot(options);
            completed = false;
            break;
        }
        if (now >= next_snapshot_at) {
            emitSnapshot(options);
            next_snapshot_at =
                (std::floor(now / snap_every) + 1.0) * snap_every;
        }

        switch (kind) {
          case Kind::kFault:
            applyClusterFault(st_.faults.current());
            st_.faults.advance();
            break;

          case Kind::kArrival: {
            const auto job_index =
                static_cast<std::uint32_t>(st_.nextArrival++);
            if (jobs[job_index].nodes > config_.nodes)
                continue; // cannot ever run
            st_.pending.push_back(
                PendingJob{static_cast<std::int64_t>(job_index), now});
            break;
          }

          case Kind::kResubmit: {
            const Resubmit resubmit = *st_.resubmits.begin();
            st_.resubmits.erase(st_.resubmits.begin());
            st_.pending.push_back(PendingJob{
                static_cast<std::int64_t>(resubmit.jobIndex),
                resubmit.time});
            break;
          }

          case Kind::kCompletion: {
            const Completion done = st_.completions.front();
            std::pop_heap(st_.completions.begin(),
                          st_.completions.end(), std::greater<>{});
            st_.completions.pop_back();
            const RunningJob rj = st_.running.extract(done.seq).mapped();
            st_.estimates.erase(st_.estimates.find(rj.estimate()));
            for (std::size_t g = 0; g < kGroups; ++g)
                freePerGroup_[g] += rj.allocated[g];
            drainDeferredFaults();
            if (rj.killed) {
                // Requeue with capped exponential backoff.
                ++st_.metrics.requeues;
                HDMR_TM_INC(tm_.requeues);
                const double backoff = std::min(
                    config_.resilience.requeueBackoffCapSeconds,
                    config_.resilience.requeueBackoffBaseSeconds *
                        std::pow(2.0, static_cast<double>(
                                          rj.attempt - 1)));
                st_.resubmits.insert(Resubmit{
                    now + backoff, rj.jobIndex, st_.resubmitSeq++});
            }
            break;
          }
        }
        st_.lastEventTime = now;
        trySchedule(now);
        ++st_.eventsProcessed;
        HDMR_TM_INC(tm_.eventsProcessed);
        HDMR_TM_SET(tm_.queueDepth,
                    static_cast<double>(st_.pending.size()));
        HDMR_TM_SET(tm_.busyNodeSeconds, st_.busyNodeSeconds);
    }

    RunOutcome outcome;
    if (completed) {
        // Terminal digest: the final state both the straight-through
        // and any resumed replay must agree on.
        st_.trail.digests.push_back(stateDigest());
    }
    outcome.metrics = finalizeMetrics();
    outcome.completed = completed;
    outcome.deadlineHit = deadline_hit;
    outcome.simSeconds = st_.lastEventTime;
    outcome.eventsProcessed = st_.eventsProcessed;
    outcome.digests = st_.trail;
    if (completed)
        st_.active = false;
    return outcome;
}

ClusterMetrics
ClusterSimulator::run(const std::vector<traces::Job> &jobs)
{
    return run(jobs, RunOptions{}).metrics;
}

RunOutcome
ClusterSimulator::run(const std::vector<traces::Job> &jobs,
                      const RunOptions &options)
{
    if (!std::isfinite(options.digestEverySeconds) ||
        !(options.digestEverySeconds > 0.0))
        util::fatal("RunOptions.digestEverySeconds must be a finite "
                    "positive duration (got %g)",
                    options.digestEverySeconds);
    if (!(options.snapshotEverySeconds >= 0.0))
        util::fatal("RunOptions.snapshotEverySeconds must be "
                    "non-negative (got %g)",
                    options.snapshotEverySeconds);
    initRun(jobs, options.digestEverySeconds);
    return runLoop(options);
}

RunOutcome
ClusterSimulator::resume(const RunOptions &options)
{
    hdmr_assert(st_.active,
                "resume() without a successful restoreState()");
    return runLoop(options);
}

// --------------------------------------------------------------------
// Digesting and serialization
// --------------------------------------------------------------------

std::uint64_t
ClusterSimulator::configDigest() const
{
    snapshot::Fnv1a hash;
    hash.addU32(config_.nodes);
    for (const double f : config_.groupFractions)
        hash.addDouble(f);
    hash.addU32(config_.heteroDmr ? 1 : 0);
    hash.addU32(config_.marginAware ? 1 : 0);
    hash.addDouble(config_.speedups.at800);
    hash.addDouble(config_.speedups.at600);
    hash.addU64(config_.backfillDepth);
    hash.addU64(config_.seed);
    const fault::CampaignConfig &fc = config_.faults;
    hash.addDouble(fc.intensity);
    hash.addU64(fc.seed);
    hash.addDouble(fc.horizonSeconds);
    hash.addU32(fc.targets);
    hash.addDouble(fc.uncorrectablePerHour);
    hash.addDouble(fc.burstsPerHour);
    hash.addDouble(fc.driftEventsPerHour);
    hash.addDouble(fc.excursionsPerHour);
    hash.addDouble(fc.nodeFailuresPerHour);
    hash.addDouble(fc.demotionsPerHour);
    hash.addDouble(fc.burstErrorsMean);
    hash.addDouble(fc.driftStepMts);
    hash.addDouble(fc.excursionMeanSeconds);
    const ResiliencePolicy &rp = config_.resilience;
    hash.addDouble(rp.requeueBackoffBaseSeconds);
    hash.addDouble(rp.requeueBackoffCapSeconds);
    hash.addDouble(rp.checkpointIntervalSeconds);
    hash.addDouble(rp.checkpointOverheadFraction);
    // Placement + criticality decide which jobs run fast and which
    // UEs degrade instead of kill: part of the campaign identity.
    hash.addU64(config_.placement.digest());
    hash.addU64(config_.criticality.digest());
    // The chaos overlay is part of the campaign realization: a
    // snapshot taken under one drift scenario must not resume under
    // another.
    hash.addDouble(config_.excursionUeMultiplier);
    hash.addU64(config_.scheduleOverlay.size());
    for (const fault::FaultEvent &ev : config_.scheduleOverlay) {
        hash.addDouble(ev.atSeconds);
        hash.addU32(static_cast<std::uint32_t>(ev.kind));
        hash.addU32(ev.target);
        hash.addDouble(ev.magnitude);
        hash.addDouble(ev.durationSeconds);
    }
    return hash.value();
}

std::uint64_t
ClusterSimulator::traceDigest(const std::vector<traces::Job> &jobs)
{
    snapshot::Fnv1a hash;
    hash.addU64(jobs.size());
    for (const traces::Job &job : jobs) {
        hash.addU32(job.id);
        hash.addDouble(job.submitSeconds);
        hash.addU32(job.nodes);
        hash.addDouble(job.runtimeSeconds);
        hash.addDouble(job.walltimeSeconds);
        hash.addU32(job.usageClass);
    }
    return hash.value();
}

std::uint64_t
ClusterSimulator::stateDigest() const
{
    snapshot::Fnv1a hash;
    for (std::size_t g = 0; g < kGroups; ++g) {
        hash.addU32(freePerGroup_[g]);
        hash.addU32(totalPerGroup_[g]);
        hash.addU32(pendingFailures_[g]);
        hash.addU32(pendingDemotions_[g]);
    }
    const util::RngState rng_state = rng_.state();
    for (const std::uint64_t word : rng_state.s)
        hash.addU64(word);
    hash.addU32(rng_state.hasSpareNormal ? 1 : 0);
    hash.addDouble(rng_state.spareNormal);

    hash.addU64(st_.nextArrival);
    hash.addU64(st_.resubmitSeq);
    hash.addU64(st_.startSeq);
    hash.addDouble(st_.hotUntil);
    hash.addU64(st_.faults.index());
    hash.addDouble(st_.execSum);
    hash.addDouble(st_.queueSum);
    hash.addDouble(st_.turnaroundSum);
    hash.addDouble(st_.busyNodeSeconds);
    hash.addU64(st_.eligible);
    hash.addU64(st_.accelerated);
    hash.addDouble(st_.lastEventTime);
    hash.addDouble(st_.spanEnd);
    hash.addU64(st_.eventsProcessed);

    hash.addU64(st_.metrics.jobsCompleted);
    hash.addU64(st_.metrics.ueInjected);
    hash.addU64(st_.metrics.jobKills);
    hash.addU64(st_.metrics.requeues);
    hash.addU64(st_.metrics.nodesFailed);
    hash.addU64(st_.metrics.nodesDemoted);
    hash.addU64(st_.metrics.excursions);
    hash.addU64(st_.metrics.jobsDropped);
    hash.addDouble(st_.metrics.lostNodeSeconds);
    hash.addDouble(st_.metrics.checkpointOverheadSeconds);
    hash.addU64(st_.metrics.tolerantUes);
    hash.addU64(st_.metrics.criticalUes);
    hash.addU64(st_.metrics.jobsDegraded);
    hash.addU64(st_.metrics.pagesDegraded);
    hash.addDouble(st_.metrics.dataQualityPenalty);
    hash.addDouble(st_.metrics.copyNodeSeconds);
    hash.addDouble(st_.metrics.dmrCopyNodeSeconds);

    // Running jobs in start order.  The estimate set holds one entry
    // per running job; a size mismatch means a lost insert or erase.
    hdmr_assert(st_.estimates.size() == st_.running.size(),
                "estimate set out of step with the running jobs");
    for (const auto &[seq, rj] : st_.running) {
        hash.addU64(seq);
        hash.addU32(rj.jobIndex);
        hash.addDouble(rj.endTime);
        hash.addDouble(rj.estimatedEndTime);
        for (const unsigned n : rj.allocated)
            hash.addU32(n);
        hash.addU32(rj.attempt);
        hash.addU32(rj.killed ? 1 : 0);
    }
    hash.addU64(st_.running.size());

    // The pending queue verbatim, including consumed backfill slots:
    // they still occupy backfill-depth window positions.
    hash.addU64(st_.pending.size());
    for (const PendingJob &pj : st_.pending) {
        hash.addU64(static_cast<std::uint64_t>(pj.jobIndex));
        hash.addDouble(pj.submit);
    }

    hash.addU64(st_.resubmits.size());
    for (const Resubmit &rs : st_.resubmits) {
        hash.addDouble(rs.time);
        hash.addU32(rs.jobIndex);
        hash.addU64(rs.seq);
    }

    hash.addU64(st_.jobState.size());
    for (const JobState &jst : st_.jobState) {
        hash.addU32(jst.attempts);
        hash.addDouble(jst.remainingSeconds);
    }

    // When telemetry is bound, the registry is part of the state a
    // resumed run must reproduce bit-identically.
    if (registry_ != nullptr)
        hash.addU64(registry_->digest());
    return hash.value();
}

void
ClusterSimulator::serializeState(snapshot::Serializer &out) const
{
    out.writeU64(configDigest());
    out.writeU64(traceDigest(*st_.jobs));

    for (std::size_t g = 0; g < kGroups; ++g) {
        out.writeU32(freePerGroup_[g]);
        out.writeU32(totalPerGroup_[g]);
        out.writeU32(pendingFailures_[g]);
        out.writeU32(pendingDemotions_[g]);
    }
    const util::RngState rng_state = rng_.state();
    for (const std::uint64_t word : rng_state.s)
        out.writeU64(word);
    out.writeBool(rng_state.hasSpareNormal);
    out.writeDouble(rng_state.spareNormal);

    out.writeU64(st_.nextArrival);
    out.writeU64(st_.resubmitSeq);
    out.writeU64(st_.startSeq);
    out.writeDouble(st_.hotUntil);
    st_.faults.save(out);
    out.writeDouble(st_.execSum);
    out.writeDouble(st_.queueSum);
    out.writeDouble(st_.turnaroundSum);
    out.writeDouble(st_.busyNodeSeconds);
    out.writeU64(st_.eligible);
    out.writeU64(st_.accelerated);
    out.writeDouble(st_.lastEventTime);
    out.writeDouble(st_.spanEnd);
    out.writeU64(st_.eventsProcessed);
    saveMetrics(out, st_.metrics);

    // Running jobs in start order: the completion heap and the
    // estimate set are rebuilt declaratively from these on restore,
    // never serialized.
    out.writeU64(st_.running.size());
    for (const auto &[seq, rj] : st_.running) {
        out.writeU64(seq);
        out.writeU32(rj.jobIndex);
        out.writeDouble(rj.endTime);
        out.writeDouble(rj.estimatedEndTime);
        for (const unsigned n : rj.allocated)
            out.writeU32(n);
        out.writeU32(rj.attempt);
        out.writeBool(rj.killed);
    }

    out.writeU64(st_.pending.size());
    for (const PendingJob &pj : st_.pending) {
        out.writeI64(pj.jobIndex);
        out.writeDouble(pj.submit);
    }

    out.writeU64(st_.resubmits.size());
    for (const Resubmit &rs : st_.resubmits) {
        out.writeDouble(rs.time);
        out.writeU32(rs.jobIndex);
        out.writeU64(rs.seq);
    }

    out.writeU64(st_.jobState.size());
    for (const JobState &jst : st_.jobState) {
        out.writeU32(jst.attempts);
        out.writeDouble(jst.remainingSeconds);
    }

    out.writeU64(st_.digestEpoch);
    st_.trail.save(out);

    // Telemetry section (must match the binding at restore time).
    // Traces are deliberately not serialized: they are observational,
    // carry wall-clock times, and never participate in digests.
    out.writeBool(registry_ != nullptr);
    if (registry_ != nullptr)
        registry_->save(out);
}

util::Status
ClusterSimulator::restoreState(const std::vector<std::uint8_t> &state,
                               const std::vector<traces::Job> &jobs)
{
    const auto reject = [&](util::Status status) {
        // Never leave a half-restored simulator behind.
        st_ = RunState{};
        resetCapacity();
        rng_.seed(config_.seed);
        return status;
    };

    // Re-derive the fresh-run baseline (notably the fault schedule the
    // cursor must be walked along).
    initRun(jobs, /*digest_every_seconds=*/1.0);

    snapshot::Deserializer in(state);
    const std::uint64_t config_digest = in.readU64();
    const std::uint64_t trace_digest = in.readU64();
    if (!in.ok())
        return reject(util::dataLoss("cluster snapshot: %s",
                                     in.error().c_str()));
    if (config_digest != configDigest())
        return reject(util::failedPrecondition(
            "cluster snapshot was taken with a different cluster "
            "configuration; refusing to resume"));
    if (trace_digest != traceDigest(jobs))
        return reject(util::failedPrecondition(
            "cluster snapshot was taken against a different job "
            "trace; refusing to resume"));

    for (std::size_t g = 0; g < kGroups; ++g) {
        freePerGroup_[g] = in.readU32();
        totalPerGroup_[g] = in.readU32();
        pendingFailures_[g] = in.readU32();
        pendingDemotions_[g] = in.readU32();
    }
    util::RngState rng_state;
    for (std::uint64_t &word : rng_state.s)
        word = in.readU64();
    rng_state.hasSpareNormal = in.readBool();
    rng_state.spareNormal = in.readDouble();
    rng_.setState(rng_state);

    st_.nextArrival = static_cast<std::size_t>(in.readU64());
    st_.resubmitSeq = in.readU64();
    st_.startSeq = in.readU64();
    st_.hotUntil = in.readDouble();
    if (!st_.faults.restore(in))
        return reject(util::dataLoss("cluster snapshot: %s",
                                     in.error().c_str()));
    st_.execSum = in.readDouble();
    st_.queueSum = in.readDouble();
    st_.turnaroundSum = in.readDouble();
    st_.busyNodeSeconds = in.readDouble();
    st_.eligible = in.readU64();
    st_.accelerated = in.readU64();
    st_.lastEventTime = in.readDouble();
    st_.spanEnd = in.readDouble();
    st_.eventsProcessed = in.readU64();
    if (!restoreMetrics(in, &st_.metrics))
        return reject(util::dataLoss("cluster snapshot: %s",
                                     in.error().c_str()));

    // Each running job is exactly 45 payload bytes (seq 8, job index
    // 4, two doubles 16, allocation 12, attempt 4, killed 1); the
    // division-based readCount check cannot be wrapped by a hostile
    // count the way `count * 45 > remaining()` could.
    const std::uint64_t running_count =
        in.readCount("cluster snapshot running-job list", 45);
    for (std::uint64_t i = 0; i < running_count; ++i) {
        const std::uint64_t seq = in.readU64();
        RunningJob rj;
        rj.jobIndex = in.readU32();
        rj.endTime = in.readDouble();
        rj.estimatedEndTime = in.readDouble();
        for (unsigned &n : rj.allocated)
            n = in.readU32();
        rj.attempt = in.readU32();
        rj.killed = in.readBool();
        if (!in.ok())
            break;
        if (rj.jobIndex >= jobs.size())
            return reject(util::dataLoss(
                "cluster snapshot: running job references a job "
                "outside the trace"));
        if (!st_.running.empty() && seq <= st_.running.rbegin()->first)
            return reject(util::dataLoss(
                "cluster snapshot: running jobs out of start order"));
        if (std::isnan(rj.estimatedEndTime))
            return reject(util::dataLoss(
                "cluster snapshot: running job has a NaN estimated "
                "end time"));
        st_.running.emplace_hint(st_.running.end(), seq, rj);
        st_.estimates.insert(rj.estimate());
        st_.completions.push_back(Completion{rj.endTime, seq});
    }
    std::make_heap(st_.completions.begin(), st_.completions.end(),
                   std::greater<>{});

    const std::uint64_t pending_count =
        in.readCount("cluster snapshot pending queue", 16);
    st_.pending.clear();
    for (std::uint64_t i = 0; i < pending_count; ++i) {
        PendingJob pj;
        pj.jobIndex = in.readI64();
        pj.submit = in.readDouble();
        if (in.ok() &&
            (pj.jobIndex < -1 ||
             pj.jobIndex >= static_cast<std::int64_t>(jobs.size())))
            return reject(util::dataLoss(
                "cluster snapshot: pending job references a job "
                "outside the trace"));
        st_.pending.push_back(pj);
    }

    const std::uint64_t resubmit_count =
        in.readCount("cluster snapshot resubmit queue", 20);
    for (std::uint64_t i = 0; i < resubmit_count; ++i) {
        Resubmit rs;
        rs.time = in.readDouble();
        rs.jobIndex = in.readU32();
        rs.seq = in.readU64();
        if (!in.ok())
            break;
        if (rs.jobIndex >= jobs.size())
            return reject(util::dataLoss(
                "cluster snapshot: resubmit references a job outside "
                "the trace"));
        if (!st_.resubmits.empty() && !(*st_.resubmits.rbegin() < rs))
            return reject(util::dataLoss(
                "cluster snapshot: resubmits out of (time, seq) "
                "order"));
        st_.resubmits.insert(st_.resubmits.end(), rs);
    }

    const std::uint64_t job_state_count = in.readU64();
    if (job_state_count != jobs.size())
        return reject(util::dataLoss(
            "cluster snapshot: per-job state table does not match "
            "the trace size"));
    for (JobState &jst : st_.jobState) {
        jst.attempts = in.readU32();
        jst.remainingSeconds = in.readDouble();
    }

    st_.digestEpoch = in.readU64();
    if (!st_.trail.restore(in))
        return reject(util::dataLoss("cluster snapshot: %s",
                                     in.error().c_str()));
    if (!in.ok())
        return reject(util::dataLoss("cluster snapshot: %s",
                                     in.error().c_str()));

    // Telemetry section.  Presence must match the current binding:
    // the registry participates in the digest trail, so resuming a
    // telemetry snapshot without telemetry (or vice versa) could only
    // produce divergence reports.
    const bool saved_telemetry = in.readBool();
    if (!in.ok())
        return reject(util::dataLoss("cluster snapshot: %s",
                                     in.error().c_str()));
    if (saved_telemetry != (registry_ != nullptr)) {
        return reject(util::failedPrecondition(
            saved_telemetry
                ? "cluster snapshot carries telemetry state but no "
                  "telemetry is bound; refusing to resume"
                : "cluster snapshot has no telemetry state but "
                  "telemetry is bound; refusing to resume"));
    }
    if (saved_telemetry && !registry_->restore(in))
        return reject(util::dataLoss("cluster snapshot: %s",
                                     in.error().c_str()));
    if (in.remaining() != 0)
        return reject(util::dataLoss(
            "cluster snapshot: trailing garbage after the state "
            "image"));

    st_.active = true;
    return util::Status{};
}

util::Status
ClusterSimulator::writeStateFile(const std::string &path,
                                 const std::vector<std::uint8_t> &state)
{
    return snapshot::writeSnapshotFile(
        path, snapshot::kClusterStateKind, state);
}

util::Status
ClusterSimulator::restoreFile(const std::string &path,
                              const std::vector<traces::Job> &jobs)
{
    std::vector<std::uint8_t> state;
    HDMR_RETURN_IF_ERROR(snapshot::readSnapshotFile(
        path, snapshot::kClusterStateKind, &state));
    return restoreState(state, jobs);
}

} // namespace hdmr::sched
