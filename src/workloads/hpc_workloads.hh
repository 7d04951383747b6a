/**
 * @file
 * Synthetic models of the paper's six HPC benchmark suites (Section
 * II-B): Linpack, HPCG, Graph500, CORAL-2 (AMG, Quicksilver, Pennant,
 * Nekbone), LULESH and NPB (BT/CG/FT/LU/MG/SP).
 *
 * Each benchmark is a parameterized address/compute stream whose
 * fingerprints are calibrated against the paper's observables: the
 * Fig. 15 DRAM bandwidth utilizations and read/write mix (~15 %
 * writes), Graph500's latency-bound random access, HPCG/AMG's
 * bandwidth-boundness, and ~13 % of core-hours in MPI communication
 * under Memory Hierarchy 1.  Every simulated core runs one MPI rank
 * (SPMD) over a private working set, with periodic communication
 * phases whose absolute duration does not shrink when memory gets
 * faster - which is what makes speedups Amdahl-limited, as on the
 * real machine.
 */

#ifndef HDMR_WORKLOADS_HPC_WORKLOADS_HH
#define HDMR_WORKLOADS_HPC_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "util/rng.hh"
#include "workloads/stream.hh"

namespace hdmr::wl
{

/** Tuning knobs of one synthetic benchmark. */
struct WorkloadParams
{
    std::string name;
    std::string suite;
    /** Mean compute instructions between memory instructions. */
    double computePerMemOp = 10.0;
    /** Fraction of memory instructions that are stores. */
    double writeFraction = 0.15;
    /** Per-rank working set in MiB. */
    double workingSetMiB = 64.0;
    /** Access-pattern mix; the remainder is uniform-random. */
    double seqFraction = 0.6;
    double stridedFraction = 0.2;
    unsigned strideBytes = 512;
    /** Target fraction of baseline time in MPI communication. */
    double mpiFraction = 0.13;
    /** Rough baseline ns per memory op, used to size comm phases. */
    double estimatedNsPerMemOp = 6.0;

    /**
     * Phase-heavy write behaviour: every `writeBurstPeriodOps` memory
     * ops open a burst window of `writeBurstDuty` x the period during
     * which the store share jumps to `writeBurstFraction`; outside the
     * window it drops so the long-run mean stays `writeFraction`.
     * Models checkpoint/output phases (the mix adaptive monitoring
     * exploits).  0 disables bursts - the stream is then bit-identical
     * to one generated without these knobs.
     */
    std::uint64_t writeBurstPeriodOps = 0;
    double writeBurstDuty = 0.2;
    double writeBurstFraction = 0.6;
    /**
     * Checkpoint-wait phase: when a write burst closes, the rank sits
     * in a comm phase this long (the barrier / IO-completion wait that
     * follows writing a checkpoint).  Because bursts are indexed on
     * the op count, all ranks close bursts at the same op index, so
     * these waits roughly align across the node - the genuinely idle
     * windows quiet-phase operation schemes exploit.  0 disables the
     * wait; the op stream is then bit-identical to one generated
     * without it (comm ops consume no RNG draws).
     */
    double checkpointWaitUs = 0.0;
};

/** The synthetic benchmark stream for one rank. */
class SyntheticHpcStream : public AccessStream
{
  public:
    /**
     * @param params     benchmark tuning
     * @param rank       MPI rank / core id (address-space isolation)
     * @param mem_ops    stream length in memory operations
     * @param seed       RNG seed (combined with rank)
     */
    SyntheticHpcStream(const WorkloadParams &params, unsigned rank,
                       std::uint64_t mem_ops, std::uint64_t seed);

    bool next(Op &op) override;

    const WorkloadParams &params() const { return params_; }

  private:
    enum class Phase : std::uint8_t
    {
        kCompute,
        kMemory,
        kComm,
    };

    std::uint64_t generateAddress(bool is_store);

    WorkloadParams params_;
    util::Rng rng_;
    std::uint64_t remainingOps_;
    std::uint64_t base_;       ///< rank-private address-space base
    std::uint64_t regionSize_; ///< bytes per array region
    std::uint64_t seqCursor_ = 0;
    std::uint64_t strideCursor_ = 0;
    std::uint64_t storeCursor_ = 0;
    std::uint64_t opsSinceComm_ = 0;
    std::uint64_t memOpsEmitted_ = 0;
    bool inBurstWindow_ = false;
    std::uint64_t opsPerIteration_;
    util::Tick commDuration_;
    Phase phase_ = Phase::kCompute;

    static constexpr unsigned kRegions = 4;
};

/** All benchmarks of the study, grouped by suite. */
const std::vector<WorkloadParams> &benchmarkCatalog();

/** The six suite names in the paper's order. */
const std::vector<std::string> &suiteNames();

/** Look up one benchmark by name; fatals on a typo. */
const WorkloadParams &benchmarkByName(const std::string &name);

} // namespace hdmr::wl

#endif // HDMR_WORKLOADS_HPC_WORKLOADS_HH
