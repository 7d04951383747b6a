#include "workloads/hpc_workloads.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hdmr::wl
{

SyntheticHpcStream::SyntheticHpcStream(const WorkloadParams &params,
                                       unsigned rank,
                                       std::uint64_t mem_ops,
                                       std::uint64_t seed)
    : params_(params), rng_(seed * 0x9e3779b97f4a7c15ULL + rank + 1),
      remainingOps_(mem_ops),
      base_((static_cast<std::uint64_t>(rank) + 1) << 34),
      opsPerIteration_(5000)
{
    const std::uint64_t ws_bytes = static_cast<std::uint64_t>(
        params_.workingSetMiB * 1024.0 * 1024.0);
    regionSize_ = std::max<std::uint64_t>(ws_bytes / kRegions, 1 << 20);

    // Size the communication phase so that, at the estimated baseline
    // speed, comm time / total time ~= mpiFraction.  The duration is
    // absolute: faster memory shrinks compute but not communication.
    const double iter_ns = static_cast<double>(opsPerIteration_) *
                           params_.estimatedNsPerMemOp;
    const double comm_ns = iter_ns * params_.mpiFraction /
                           (1.0 - params_.mpiFraction);
    commDuration_ = util::nsToTicks(comm_ns);
}

std::uint64_t
SyntheticHpcStream::generateAddress(bool is_store)
{
    if (is_store) {
        // Streaming stores into a dedicated output region, 16 B apart
        // (vectorized output: a line fills in four stores, which puts
        // the DRAM write share near the paper's ~15 % of traffic).
        storeCursor_ = (storeCursor_ + 16) % regionSize_;
        return base_ + 3 * regionSize_ + storeCursor_;
    }

    const double draw = rng_.uniform();
    if (draw < params_.seqFraction) {
        // Sequential 8-byte walk over region 0 (cache/prefetch
        // friendly; one line miss per eight accesses).
        seqCursor_ = (seqCursor_ + 8) % regionSize_;
        return base_ + seqCursor_;
    }
    if (draw < params_.seqFraction + params_.stridedFraction) {
        // Strided walk over region 1 (misses every access; the stride
        // prefetcher can cover it).
        strideCursor_ =
            (strideCursor_ + params_.strideBytes) % regionSize_;
        return base_ + regionSize_ + strideCursor_;
    }
    // Random line in region 2 (graph/sparse-index behaviour).
    const std::uint64_t lines = regionSize_ / 64;
    const std::uint64_t line = rng_.uniformInt(0, lines - 1);
    return base_ + 2 * regionSize_ + line * 64 +
           8 * rng_.uniformInt(0, 7);
}

bool
SyntheticHpcStream::next(Op &op)
{
    if (remainingOps_ == 0 && phase_ != Phase::kComm)
        return false;

    switch (phase_) {
      case Phase::kCompute:
        op.kind = Op::Kind::kCompute;
        op.count = static_cast<std::uint32_t>(
            rng_.poisson(params_.computePerMemOp));
        phase_ = Phase::kMemory;
        return true;

      case Phase::kMemory: {
        // Phase-heavy write bursts: modulate the store share inside /
        // outside the burst window while keeping the long-run mean at
        // writeFraction.  One bernoulli draw per op either way, so the
        // RNG stream - and therefore every address - is unchanged when
        // the knob is off.
        double wf = params_.writeFraction;
        if (params_.writeBurstPeriodOps > 0) {
            const std::uint64_t phase_ops =
                memOpsEmitted_ % params_.writeBurstPeriodOps;
            const bool in_burst =
                static_cast<double>(phase_ops) <
                params_.writeBurstDuty *
                    static_cast<double>(params_.writeBurstPeriodOps);
            // Burst just closed: the rank waits out the checkpoint
            // barrier before computing on.  Emitted before the next
            // memory op and without touching the RNG, so the access
            // stream is unchanged whether or not the wait is enabled.
            if (inBurstWindow_ && !in_burst &&
                params_.checkpointWaitUs > 0.0) {
                inBurstWindow_ = false;
                op.kind = Op::Kind::kComm;
                op.duration =
                    util::usToTicks(params_.checkpointWaitUs);
                return true;
            }
            inBurstWindow_ = in_burst;
            const double duty = params_.writeBurstDuty;
            wf = in_burst
                     ? params_.writeBurstFraction
                     : std::max(0.0, (params_.writeFraction -
                                      duty * params_.writeBurstFraction) /
                                         (1.0 - duty));
        }
        const bool is_store = rng_.bernoulli(wf);
        op.kind = is_store ? Op::Kind::kStore : Op::Kind::kLoad;
        op.address = generateAddress(is_store);
        --remainingOps_;
        ++opsSinceComm_;
        ++memOpsEmitted_;
        phase_ = (opsSinceComm_ >= opsPerIteration_ ||
                  remainingOps_ == 0)
                     ? Phase::kComm
                     : Phase::kCompute;
        return true;
      }

      case Phase::kComm:
        op.kind = Op::Kind::kComm;
        op.duration = commDuration_;
        opsSinceComm_ = 0;
        phase_ = Phase::kCompute;
        return true;
    }
    util::panic("unreachable workload phase");
}

namespace
{

WorkloadParams
make(const char *name, const char *suite, double cpm, double wf,
     double ws_mib, double seq, double strided, unsigned stride,
     double mpi, double est_ns)
{
    WorkloadParams p;
    p.name = name;
    p.suite = suite;
    p.computePerMemOp = cpm;
    p.writeFraction = wf;
    p.workingSetMiB = ws_mib;
    p.seqFraction = seq;
    p.stridedFraction = strided;
    p.strideBytes = stride;
    p.mpiFraction = mpi;
    p.estimatedNsPerMemOp = est_ns;
    return p;
}

} // anonymous namespace

const std::vector<WorkloadParams> &
benchmarkCatalog()
{
    static const std::vector<WorkloadParams> catalog = {
        // name        suite       cpm   wf   wsMiB  seq  strd stride mpi  ns/op
        make("linpack", "Linpack", 42.0, 0.12, 48.0, 0.85, 0.10, 512, 0.10, 6.0),
        make("hpcg", "HPCG", 10.0, 0.12, 96.0, 0.70, 0.15, 128, 0.12, 4.5),
        make("bfs", "Graph500", 15.0, 0.08, 128.0, 0.10, 0.00, 512, 0.18, 16.0),
        make("amg", "CORAL2", 12.0, 0.15, 80.0, 0.65, 0.15, 256, 0.14, 5.0),
        make("quicksilver", "CORAL2", 27.0, 0.12, 64.0, 0.35, 0.15, 384, 0.12, 8.0),
        make("pennant", "CORAL2", 22.0, 0.15, 64.0, 0.60, 0.20, 256, 0.12, 6.0),
        make("nekbone", "CORAL2", 36.0, 0.12, 48.0, 0.80, 0.10, 512, 0.12, 6.0),
        make("lulesh", "LULESH", 24.0, 0.18, 64.0, 0.60, 0.25, 320, 0.14, 6.0),
        make("bt", "NPB", 32.0, 0.20, 56.0, 0.75, 0.15, 512, 0.10, 6.0),
        make("cg", "NPB", 12.0, 0.10, 96.0, 0.45, 0.10, 256, 0.14, 7.0),
        make("ft", "NPB", 18.0, 0.22, 80.0, 0.75, 0.20, 4096, 0.16, 6.0),
        make("lu", "NPB", 26.0, 0.18, 56.0, 0.70, 0.15, 512, 0.12, 6.0),
        make("mg", "NPB", 14.0, 0.15, 96.0, 0.70, 0.25, 1024, 0.13, 5.5),
        make("sp", "NPB", 28.0, 0.20, 64.0, 0.75, 0.15, 512, 0.11, 6.0),
    };
    return catalog;
}

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> suites = {
        "Linpack", "HPCG", "Graph500", "CORAL2", "LULESH", "NPB",
    };
    return suites;
}

const WorkloadParams &
benchmarkByName(const std::string &name)
{
    for (const auto &p : benchmarkCatalog())
        if (p.name == name)
            return p;
    util::fatal("unknown benchmark '%s'", name.c_str());
}

} // namespace hdmr::wl
