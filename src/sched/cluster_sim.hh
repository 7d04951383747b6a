/**
 * @file
 * System-wide HPC scheduler simulation (Section IV-C, Fig. 17) - the
 * role Slurmsim plays in the paper.
 *
 * The simulator replays a job trace against a cluster whose nodes are
 * partitioned into memory-frequency-margin groups (Section III-D3)
 * and schedules with FCFS + EASY backfill (Slurm's default behaviour)
 * using either the margin-aware allocation policy (prefer the fastest
 * group that can hold the whole job; the ~30-line Slurm patch) or the
 * default margin-unaware allocation.
 *
 * Job execution times shrink per the node-level Hetero-DMR speedups:
 * a job running entirely on 0.8 GT/s-margin nodes with <50 % memory
 * utilization runs at the measured Hetero-DMR@0.8 speedup, and a job
 * that touches nodes of different margins runs at its *slowest*
 * node's speedup (MPI synchronization).
 *
 * Crash safety / replay auditing (src/snapshot): the event loop keeps
 * its entire state in an explicit RunState, so the simulation can be
 * serialized at any scheduler decision point (between events) and
 * resumed bit-identically.  The pending-event set is never serialized
 * as such - completions are rebuilt declaratively from the surviving
 * running jobs - and a per-epoch FNV-1a digest trail lets a resumed
 * run *prove* bit-identity against the straight-through run.
 */

#ifndef HDMR_SCHED_CLUSTER_SIM_HH
#define HDMR_SCHED_CLUSTER_SIM_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/placement.hh"
#include "fault/campaign.hh"
#include "snapshot/digest.hh"
#include "telemetry/telemetry.hh"
#include "traces/job_trace.hh"
#include "util/rng.hh"
#include "util/status.hh"
#include "workloads/criticality.hh"

namespace hdmr::snapshot
{
class Serializer;
class Deserializer;
} // namespace hdmr::snapshot

namespace hdmr::sched
{

/** Node margin groups (index 0: 0.8 GT/s, 1: 0.6 GT/s, 2: none). */
constexpr std::size_t kGroups = 3;

/** Node-level Hetero-DMR speedups measured by the node simulator. */
struct SpeedupTable
{
    /** Speedup on 0.8 GT/s-margin nodes, <50 % memory utilization. */
    double at800 = 1.20;
    /** Speedup on 0.6 GT/s-margin nodes, <50 % memory utilization. */
    double at600 = 1.15;

    double
    forGroup(std::size_t group) const
    {
        return group == 0 ? at800 : (group == 1 ? at600 : 1.0);
    }

    /**
     * Reject NaN, non-positive, or inverted (at600 > at800) speedups
     * with kInvalidArgument naming the offending field.
     */
    util::Status validate() const;
};

/**
 * How the cluster responds to faults.  All members only take effect
 * when the fault campaign is enabled or checkpointing is configured;
 * the defaults leave behaviour identical to a fault-free run.
 */
struct ResiliencePolicy
{
    /** First-requeue backoff after a job-killing UE. */
    double requeueBackoffBaseSeconds = 60.0;
    /** Capped exponential backoff ceiling. */
    double requeueBackoffCapSeconds = 3600.0;
    /**
     * Useful-work seconds between checkpoints; 0 disables.  A killed
     * job restarts from its last completed checkpoint instead of from
     * scratch.
     */
    double checkpointIntervalSeconds = 0.0;
    /** Wall-clock overhead fraction checkpointing adds while running. */
    double checkpointOverheadFraction = 0.0;

    /**
     * Reject NaN, negative durations/fractions, and inconsistent
     * bounds (base backoff above the cap, overhead fraction >= 1)
     * with kInvalidArgument naming the offending field.
     */
    util::Status validate() const;
};

/** Simulation configuration. */
struct ClusterConfig
{
    unsigned nodes = 1490;
    /** Fractions of nodes per margin group (Fig. 11 / Sec. III-D3). */
    std::array<double, kGroups> groupFractions = {0.62, 0.36, 0.02};
    /** Hetero-DMR deployed (scales execution times)? */
    bool heteroDmr = false;
    /** Margin-aware node grouping in the scheduler? */
    bool marginAware = true;
    SpeedupTable speedups;
    /** Limit of queued jobs inspected per backfill pass. */
    std::size_t backfillDepth = 256;
    std::uint64_t seed = 1;

    /**
     * Fault campaign.  Rates are interpreted per *node*-hour (targets
     * is overridden with the node count).  Job-killing UEs come from
     * `uncorrectablePerHour` and hit only jobs actually running fast;
     * `nodeFailuresPerHour` permanently removes nodes;
     * `demotionsPerHour` reclassifies nodes one margin group down.
     * Default intensity 0 reproduces the fault-free simulation
     * bit for bit.
     */
    fault::CampaignConfig faults;
    ResiliencePolicy resilience;

    /**
     * Heterogeneous-reliability placement.  The default (Hetero-DMR)
     * replicates every fast page and kills on any UE - bit-identical
     * to the seed behaviour.  Het-Reliability/Hybrid place tolerant
     * pages unreplicated on the fast modules: high-usage jobs with
     * enough tolerant pages become margin-eligible, and a margin UE
     * striking a tolerant page downgrades the page and continues the
     * job with a recorded data-quality penalty instead of the
     * kill/requeue path.  Both structs fold into configDigest().
     */
    core::PlacementPolicy placement;
    /** Deterministic per-job criticality assignment (page classes
     *  are pure hashes of this config's seed, never the run RNG). */
    wl::CriticalityConfig criticality;

    /**
     * Extra cluster-scoped fault events composed by a chaos harness
     * (e.g. fault::DriftChaosCampaign::clusterSchedule()); merged with
     * the campaign schedule at run start and fingerprinted into
     * configDigest(), so a snapshot taken under one drift realization
     * never resumes under another.  Only kNodeFailure, kGroupDemotion
     * and kTemperatureExcursion events are consumed.  Empty by
     * default: behaviour identical to the seed.
     */
    std::vector<fault::FaultEvent> scheduleOverlay;
    /**
     * UE-hazard multiplier applied to jobs started while a
     * temperature-excursion window is open (Section II-C: ~4x at
     * 45 degC).  Only takes effect when an excursion event actually
     * arrives.
     */
    double excursionUeMultiplier = 4.0;

    /**
     * One-pass validation: group fractions in [0, 1] summing to ~1,
     * positive node count and backfill depth, plus the nested
     * SpeedupTable, ResiliencePolicy, and CampaignConfig checks.
     * Returns kInvalidArgument naming the offending field; the
     * simulator's constructor checkOk()s it (a bad config is a caller
     * bug, not runtime input).
     */
    util::Status validate() const;
};

/** Per-run aggregate metrics (Fig. 17). */
struct ClusterMetrics
{
    std::size_t jobsCompleted = 0;
    double meanExecSeconds = 0.0;
    double meanQueueSeconds = 0.0;
    double meanTurnaroundSeconds = 0.0;
    double meanNodeUtilization = 0.0;
    /** Fraction of Hetero-DMR-eligible jobs that actually sped up. */
    double acceleratedFraction = 0.0;

    // ---- Fault / resilience accounting. ----
    std::uint64_t ueInjected = 0;   ///< job-killing UEs delivered
    std::uint64_t jobKills = 0;     ///< attempts terminated by a UE
    std::uint64_t requeues = 0;     ///< killed jobs resubmitted
    std::uint64_t nodesFailed = 0;  ///< nodes permanently lost
    std::uint64_t nodesDemoted = 0; ///< nodes moved one group down
    std::uint64_t excursions = 0;   ///< temperature windows applied
    std::uint64_t jobsDropped = 0;  ///< jobs no surviving capacity fits
    double lostNodeSeconds = 0.0;   ///< work discarded by kills
    double checkpointOverheadSeconds = 0.0;

    // ---- Heterogeneous-reliability placement accounting. ----
    std::uint64_t tolerantUes = 0;  ///< UEs absorbed by tolerant pages
    std::uint64_t criticalUes = 0;  ///< UEs on critical pages (kills)
    std::uint64_t jobsDegraded = 0; ///< completions carrying degraded pages
    std::uint64_t pagesDegraded = 0; ///< tolerant pages downgraded
    double dataQualityPenalty = 0.0; ///< summed degrade penalties
    /** Node-memory-seconds actually spent holding copies while jobs
     *  ran fast (Hetero-DMR's capacity tax under this placement). */
    double copyNodeSeconds = 0.0;
    /** What full Hetero-DMR would have spent on the same fast
     *  placements; 1 - copyNodeSeconds / dmrCopyNodeSeconds is the
     *  capacity the placement reclaimed from the copy tax. */
    double dmrCopyNodeSeconds = 0.0;
};

/** Serialize/deserialize a metrics block (snapshot payloads). */
void saveMetrics(snapshot::Serializer &out, const ClusterMetrics &m);
bool restoreMetrics(snapshot::Deserializer &in, ClusterMetrics *m);

/** Field-by-field equality (doubles compared exactly). */
bool metricsIdentical(const ClusterMetrics &a, const ClusterMetrics &b);

/** Options for a snapshot/digest-aware run. */
struct RunOptions
{
    /**
     * Simulated seconds between state digests recorded into the
     * divergence trail.  Must be positive; the cadence is captured in
     * snapshots, and a resumed run keeps the cadence it was saved
     * with.
     */
    double digestEverySeconds = 86400.0;
    /**
     * Simulated seconds between periodic snapshot emissions through
     * `snapshotSink`; 0 disables periodic snapshots.
     */
    double snapshotEverySeconds = 0.0;
    /**
     * Receives the serialized simulator state at every snapshot
     * point: periodic emissions, the stopAfterSeconds stop, and
     * interruption.  The bytes restore via restoreState(); callers
     * decide whether to wrap them in a snapshot file or embed them in
     * a larger sweep image.
     */
    std::function<void(const std::vector<std::uint8_t> &state)>
        snapshotSink;
    /**
     * Polled once per event at the scheduler decision point; when it
     * returns true (e.g. a SIGINT/SIGTERM flag), the run emits a
     * final snapshot and returns with completed == false.
     */
    std::function<bool()> interrupted;
    /**
     * Stop (with a final snapshot) at the first decision point at or
     * after this simulated time; +infinity runs to completion.
     */
    double stopAfterSeconds = std::numeric_limits<double>::infinity();
    /**
     * Wall-clock deadline hook for bounded rollouts (src/serve):
     * polled at every scheduler decision point, like `interrupted`,
     * but an expired deadline stops the run *without* serializing a
     * snapshot - a deadline-bounded caller wants the cheapest possible
     * early-out so it can fall back to a degraded answer, not a state
     * image.  The outcome carries deadlineHit = true and partial
     * metrics.  Null (the default) never expires.
     */
    std::function<bool()> deadlineExpired;
};

/** Result of a snapshot-aware run. */
struct RunOutcome
{
    /** Aggregate metrics (partial when completed == false). */
    ClusterMetrics metrics;
    /** False when the run stopped early and emitted a snapshot. */
    bool completed = true;
    /** True when RunOptions::deadlineExpired stopped the run (no
     *  snapshot was emitted; completed is false too). */
    bool deadlineHit = false;
    /** Simulated time reached. */
    double simSeconds = 0.0;
    /** Scheduler events processed (arrivals, completions, faults,
     *  resubmissions) - the numerator of events/sec bench records. */
    std::uint64_t eventsProcessed = 0;
    /** Per-epoch state-digest trail (replay-divergence detection). */
    snapshot::DigestTrail digests;
};

/** The simulator. */
class ClusterSimulator
{
  public:
    explicit ClusterSimulator(ClusterConfig config);

    /** Replay the trace; jobs must be sorted by submit time. */
    ClusterMetrics run(const std::vector<traces::Job> &jobs);

    /** Snapshot/digest-aware replay. */
    RunOutcome run(const std::vector<traces::Job> &jobs,
                   const RunOptions &options);

    /**
     * Load a state image produced by a snapshotSink.  The simulator
     * must have been constructed with the *same* configuration and be
     * given the *same* trace; both are fingerprinted into the image.
     * A digest or telemetry-binding mismatch is rejected with
     * kFailedPrecondition; truncation or corruption with kDataLoss.
     * On any error the simulator is reset to its freshly constructed
     * state, never left half-restored.  On success (kOk), call
     * resume() to continue the run.
     */
    util::Status restoreState(const std::vector<std::uint8_t> &state,
                              const std::vector<traces::Job> &jobs);

    /** Continue a restored run to completion (or the next stop). */
    RunOutcome resume(const RunOptions &options);

    /** Convenience: wrap a state image in a snapshot file. */
    static util::Status
    writeStateFile(const std::string &path,
                   const std::vector<std::uint8_t> &state);

    /** Convenience: restoreState() from a snapshot file. */
    util::Status restoreFile(const std::string &path,
                             const std::vector<traces::Job> &jobs);

    /**
     * Bind observability metrics under `prefix` (e.g. "cluster"):
     * event/outcome counters, queue-depth and utilization gauges, and
     * the turnaround histogram.  The registry must outlive the
     * simulator.  Once bound, the registry's full metric state is
     * folded into stateDigest() and serialized after the digest trail,
     * so snapshots taken with telemetry only resume into a simulator
     * with telemetry bound (and vice versa) - metric state survives
     * --resume-from bit-identically.
     */
    void bindTelemetry(telemetry::Registry &registry,
                       const std::string &prefix);

    /** Emit job-kill / node-fault instants on `trace` track `tid`. */
    void bindTrace(telemetry::TraceRecorder *trace, std::uint32_t tid);

    /** Fingerprint of the full configuration (stored in snapshots). */
    std::uint64_t configDigest() const;

    /** Fingerprint of a job trace (stored in snapshots). */
    static std::uint64_t
    traceDigest(const std::vector<traces::Job> &jobs);

    const ClusterConfig &config() const { return config_; }

  private:
    struct RunningJob
    {
        std::uint32_t jobIndex = 0; ///< into the trace vector
        double endTime = 0.0;
        double estimatedEndTime = 0.0;
        std::array<unsigned, kGroups> allocated = {0, 0, 0};
        unsigned attempt = 1;   ///< 1-based attempt number
        bool killed = false;    ///< this attempt ends in a UE kill

        /** This job's entry in RunState::estimates. */
        std::pair<double, unsigned>
        estimate() const
        {
            return {estimatedEndTime,
                    allocated[0] + allocated[1] + allocated[2]};
        }
    };

    struct PendingJob
    {
        std::int64_t jobIndex = -1; ///< -1: consumed backfill slot
        double submit = 0.0;
    };

    struct Resubmit
    {
        double time = 0.0;
        std::uint32_t jobIndex = 0;
        std::uint64_t seq = 0; ///< FIFO among equal times

        /** (time, seq) is a strict total order: the pop order. */
        bool
        operator<(const Resubmit &other) const
        {
            return time != other.time ? time < other.time
                                      : seq < other.seq;
        }
    };

    /** Per-job resilience state, indexed like the trace. */
    struct JobState
    {
        unsigned attempts = 0;
        double remainingSeconds = -1.0; ///< set at first start
    };

    /**
     * One expected completion.  (time, seq) is a strict total order,
     * so the pop sequence is independent of heap-internal layout -
     * which is what lets a resumed run rebuild the heap from the
     * surviving running jobs and still pop bit-identically.
     */
    struct Completion
    {
        double time = 0.0;
        std::uint64_t seq = 0; ///< key into `running`

        /** (time, seq) order; std::greater makes the heap a min-heap. */
        bool
        operator>(const Completion &other) const
        {
            return time != other.time ? time > other.time
                                      : seq > other.seq;
        }
    };

    /**
     * The complete event-loop state.  Everything the future of the
     * simulation depends on lives here (or in the group-capacity
     * arrays and RNG below), which is what makes mid-run snapshots
     * and the state digest possible.
     */
    struct RunState
    {
        const std::vector<traces::Job> *jobs = nullptr;
        /** Live attempts keyed by start seq: iteration is start order. */
        std::map<std::uint64_t, RunningJob> running;
        /** estimate() of every running job, in backfill walk order. */
        std::multiset<std::pair<double, unsigned>> estimates;
        /** Min-heap keyed (endTime, seq). */
        std::vector<Completion> completions;
        /** Pending resubmissions in (time, seq) order. */
        std::set<Resubmit> resubmits;
        std::deque<PendingJob> pending;
        std::vector<JobState> jobState;
        fault::ScheduleCursor faults;
        std::size_t nextArrival = 0;
        std::uint64_t resubmitSeq = 0;
        std::uint64_t startSeq = 0;
        /** Simulated time until which the fleet runs hot (the union
         *  of delivered temperature-excursion windows). */
        double hotUntil = 0.0;

        // Metric accumulators.
        double execSum = 0.0;
        double queueSum = 0.0;
        double turnaroundSum = 0.0;
        double busyNodeSeconds = 0.0;
        std::uint64_t eligible = 0;
        std::uint64_t accelerated = 0;
        double lastEventTime = 0.0;
        double spanEnd = 0.0;
        std::uint64_t eventsProcessed = 0;
        ClusterMetrics metrics;

        // Divergence-audit state.
        std::uint64_t digestEpoch = 0; ///< next epoch index to record
        snapshot::DigestTrail trail;

        bool active = false;
    };

    /** Initialise a fresh run over `jobs`. */
    void initRun(const std::vector<traces::Job> &jobs,
                 double digest_every_seconds);

    /** Drive the event loop until completion or a stop. */
    RunOutcome runLoop(const RunOptions &options);

    /** Start one job (or requeued attempt) now. */
    void startJob(std::uint32_t job_index, double now);

    /** FCFS head + EASY backfill pass. */
    void trySchedule(double now);

    /** Record elapsed digest epochs up to (not including) `now`. */
    void recordDigests(double now);

    /** FNV-1a hash of the complete simulation state. */
    std::uint64_t stateDigest() const;

    /** Serialize the complete mid-run state. */
    void serializeState(snapshot::Serializer &out) const;

    /** Emit one snapshot through the sink, if any. */
    void emitSnapshot(const RunOptions &options) const;

    /** Finalize means/utilization into a metrics copy. */
    ClusterMetrics finalizeMetrics() const;

    /** Derive the per-group node counts from the configuration. */
    void resetCapacity();

    /** Nodes free in total. */
    unsigned totalFree() const;

    /** Surviving nodes in total (shrinks with node failures). */
    unsigned capacity() const;

    /** Margin group a campaign node index falls into. */
    std::size_t groupOfTarget(unsigned target) const;

    /** Apply one cluster-scoped fault (failure or demotion). */
    void applyClusterFault(const fault::FaultEvent &fault);

    /** Apply capacity changes deferred while their nodes were busy. */
    void drainDeferredFaults();

    /**
     * Try to allocate `count` nodes under the configured policy.
     * Returns true and fills `allocated` on success.
     */
    bool allocate(unsigned count,
                  std::array<unsigned, kGroups> &allocated);

    /** Effective speedup for a job given its allocation and its
     *  criticality assignment (placement-aware eligibility). */
    double speedupFor(const traces::Job &job,
                      const std::array<unsigned, kGroups> &allocated,
                      double tolerant_fraction);

    /** Bound observability metrics (all null until bindTelemetry). */
    struct Telemetry
    {
        telemetry::Counter *jobsCompleted = nullptr;
        telemetry::Counter *ueInjected = nullptr;
        telemetry::Counter *jobKills = nullptr;
        telemetry::Counter *requeues = nullptr;
        telemetry::Counter *jobsDropped = nullptr;
        telemetry::Counter *tolerantUes = nullptr;
        telemetry::Counter *criticalUes = nullptr;
        telemetry::Counter *jobsDegraded = nullptr;
        telemetry::Counter *pagesDegraded = nullptr;
        telemetry::Gauge *dataQualityPenalty = nullptr;
        telemetry::Gauge *copyNodeSeconds = nullptr;
        telemetry::Counter *nodesFailed = nullptr;
        telemetry::Counter *nodesDemoted = nullptr;
        telemetry::Counter *excursions = nullptr;
        telemetry::Counter *eventsProcessed = nullptr;
        telemetry::Gauge *queueDepth = nullptr;
        telemetry::Gauge *busyNodeSeconds = nullptr;
        telemetry::Gauge *nodeUtilization = nullptr;
        telemetry::Log2Histogram *turnaroundSeconds = nullptr;
    };

    /** Record one instant event on the bound trace, if any. */
    void traceInstant(const char *name, double now) const;

    ClusterConfig config_;
    wl::CriticalityModel criticality_;
    Telemetry tm_;
    telemetry::Registry *registry_ = nullptr;
    telemetry::TraceRecorder *trace_ = nullptr;
    std::uint32_t traceTid_ = 0;
    std::array<unsigned, kGroups> freePerGroup_ = {0, 0, 0};
    std::array<unsigned, kGroups> totalPerGroup_ = {0, 0, 0};
    /** Node failures/demotions waiting for a node of the group to free. */
    std::array<unsigned, kGroups> pendingFailures_ = {0, 0, 0};
    std::array<unsigned, kGroups> pendingDemotions_ = {0, 0, 0};
    util::Rng rng_;
    RunState st_;
};

} // namespace hdmr::sched

#endif // HDMR_SCHED_CLUSTER_SIM_HH
