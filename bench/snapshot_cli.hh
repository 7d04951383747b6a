/**
 * @file
 * Crash-safe snapshot/resume of the system-wide benchmark sweeps
 * (fig17, fig18, fig18_drift, ablation_hetreliability).
 *
 * The benchmarks run a *sweep* of simulation legs (conventional,
 * Hetero-DMR, fault intensities, ...).  SweepRunner executes each leg
 * through the snapshot-aware ClusterSimulator API and maintains one
 * sweep-level snapshot file holding the metrics of every completed leg
 * plus the serialized mid-run state of the active leg, so an
 * interrupted sweep resumes exactly where it stopped: finished legs
 * replay from their recorded metrics, the active leg restores its
 * simulator state and continues bit-identically.
 *
 * Snapshots are kept as rotating last-good generations
 * (snapshot::Keeper): `<path>` is the newest image, `<path>.1` the
 * previous one, and so on up to --snapshot-keep generations.  On
 * --resume-from, Harness::resumeLatest() walks them newest-first, so
 * a damaged newest snapshot costs one checkpoint interval, not the
 * run.  Only a well-formed image that belongs to a different campaign
 * (wrong benchmark, mismatched --telemetry-out) is fatal.
 *
 * Flags it adds to the bench's Harness:
 *   --snapshot-every=<sim s>  periodic snapshots (0 = off)
 *   --snapshot-path=<file>    snapshot file (default <bench>.snap)
 *   --snapshot-keep=<n>       last-good generations to keep (1-64,
 *                             default 3)
 *   --resume-from=<file>      resume a previous sweep
 *   --digest-every=<sim s>    digest-trail cadence (default 86400)
 *
 * With --telemetry-out, every leg binds the harness's metric registry
 * under "cluster.<label>" and a per-leg trace track; the registry is
 * persisted in the sweep image (and in the active leg's simulator
 * state), so metric values survive --resume-from bit-identically.
 * After each completed leg the registry is reconciled against the
 * leg's ClusterMetrics - any mismatch is fatal.
 *
 * A SIGINT/SIGTERM is polled at the event loop's next decision point;
 * the run writes a final snapshot and the process exits 130 with a
 * message naming the file to resume from.
 */

#ifndef HDMR_BENCH_SNAPSHOT_CLI_HH
#define HDMR_BENCH_SNAPSHOT_CLI_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"
#include "sched/cluster_sim.hh"
#include "snapshot/keeper.hh"
#include "traces/job_trace.hh"
#include "util/status.hh"

namespace hdmr::bench
{

/** Runs a benchmark's simulation legs with snapshot/resume support. */
class SweepRunner
{
  public:
    /**
     * Registers the sweep flags on `harness`, whose name tags the
     * snapshot so a fig18 image cannot be resumed into fig17.  Call
     * before Harness::parse().
     */
    explicit SweepRunner(Harness &harness);

    /**
     * After Harness::parse(): range-checks the sweep flags, loads
     * --resume-from, and arms the stop signals.
     */
    void start();

    /**
     * Execute one sweep leg.  Legs are identified by `label` and must
     * be issued in a fixed order across runs; on resume, completed
     * legs return their recorded metrics instantly and the active leg
     * restores and continues.  Once the sweep is interrupted, further
     * legs are skipped (zeroed metrics) - check stoppedEarly().
     */
    sched::ClusterMetrics leg(const std::string &label,
                              const sched::ClusterConfig &config,
                              const std::vector<traces::Job> &jobs);

    /** True once a leg was interrupted (results are incomplete). */
    bool stoppedEarly() const { return stopped_; }

    /**
     * Harness::finish(); on an interrupted sweep, also prints where
     * the snapshot went and how to resume (exit code 130).
     */
    int finish();

  private:
    struct CompletedLeg
    {
        std::string label;
        sched::ClusterMetrics metrics;
    };

    void loadResumeFile();
    /**
     * Decode one verified sweep payload into the resume members.
     * Clears any state a previous (failed) attempt left behind first.
     * kDataLoss/kResourceExhausted mean "try an older generation";
     * kFailedPrecondition means the image belongs to a different
     * campaign and no generation can help.
     */
    util::Status decodeSweepPayload(
        const std::vector<std::uint8_t> &payload);
    void writeSweepFile() const;
    void reconcileLeg(const std::string &label,
                      const sched::ClusterMetrics &metrics) const;

    Harness &harness_;
    double snapshotEvery_ = 0.0;
    double digestEvery_ = 86400.0;
    unsigned snapshotKeep_ = snapshot::Keeper::kDefaultKeep;
    std::string snapshotPath_;
    std::string resumeFrom_;

    std::uint32_t legIndex_ = 0;

    std::vector<CompletedLeg> completed_;
    std::size_t nextCached_ = 0;

    bool resumeActive_ = false;
    std::string resumeActiveLabel_;
    std::vector<std::uint8_t> resumeActiveState_;

    std::string activeLabel_;
    std::vector<std::uint8_t> activeState_;

    bool stopped_ = false;
};

} // namespace hdmr::bench

#endif // HDMR_BENCH_SNAPSHOT_CLI_HH
