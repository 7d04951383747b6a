/**
 * @file
 * Node-level configuration: the two memory hierarchies of Table III,
 * the simulated CPU parameters of Table IV, and the memory-system
 * designs evaluated in Section IV-A.
 */

#ifndef HDMR_NODE_CONFIG_HH
#define HDMR_NODE_CONFIG_HH

#include <cstdint>
#include <string>

#include "core/mode_controller.hh"
#include "core/replication.hh"
#include "cpu/core.hh"
#include "dram/timing.hh"
#include "monitor/monitor.hh"
#include "monitor/scheme.hh"
#include "workloads/hpc_workloads.hh"

namespace hdmr::node
{

/** A memory hierarchy of Table III. */
struct HierarchyConfig
{
    std::string name = "Hierarchy1";
    unsigned cores = 8;
    double l2MiBPerCore = 1.0;
    double l3MiBPerCore = 3.5; ///< L2+L3 = 4.5 MiB/core
    unsigned channels = 1;
    unsigned modulesPerChannel = 2;
    unsigned ranksPerModule = 2;

    /** Hierarchy 1: 8 cores, 4.5 MiB L2+L3 per core, 1 channel. */
    static HierarchyConfig hierarchy1();

    /** Hierarchy 2: 16 cores, 2.375 MiB L2+L3 per core, 4 channels. */
    static HierarchyConfig hierarchy2();
};

/** The memory-system designs compared in Figures 5, 12, 13 and 16. */
enum class MemorySystemKind : std::uint8_t
{
    kCommercialBaseline,   ///< spec setting, no replication
    kExploitLatency,       ///< Table II row 2, no replication (Fig. 5)
    kExploitFrequency,     ///< Table II row 3, no replication (Fig. 5)
    kExploitFreqLat,       ///< Table II row 4, no replication (Fig. 5)
    kFmr,                  ///< free-memory-aware baseline [64]
    kHeteroDmr,            ///< this paper
    kHeteroDmrFmr,         ///< this paper stacked on FMR
};

const char *toString(MemorySystemKind kind);

/** Everything needed to run one node simulation. */
struct NodeConfig
{
    HierarchyConfig hierarchy;
    cpu::CoreConfig core;
    wl::WorkloadParams workload;

    MemorySystemKind memorySystem = MemorySystemKind::kCommercialBaseline;
    /** Node-level frequency margin in MT/s (Hetero-DMR designs). */
    unsigned nodeMarginMts = 800;
    /**
     * Static guard band in MT/s the deployment holds back from the
     * qualified fast rate (the paper's per-module thresholds are
     * provisioned for the worst observed phase, so the shipped
     * operating point sits below what profiling qualified).  Applied
     * in quarantine.demoteStepMts steps; a monitor promote scheme can
     * re-earn it online.  0 keeps seed behaviour.
     */
    unsigned marginGuardBandMts = 0;
    core::MemoryUsage usage = core::MemoryUsage::kUnder50;

    std::uint64_t memOpsPerCore = 100000;
    /** Functional warm-up memory ops per core before timing starts. */
    std::uint64_t warmupOpsPerCore = 30000;
    std::uint64_t seed = 1;
    /** Per-read detected-error probability when running fast. */
    double readErrorProbability = 1.0e-7;
    /** Probability the recovery read of the original also fails (UE). */
    double recoveryFailureProbability = 0.0;
    /** Quarantine / margin-demotion policy (defaults: disabled). */
    core::QuarantinePolicy quarantine;
    /** LLC lines proactively cleaned per write-mode window (III-A1). */
    std::size_t cleanLinesPerWriteMode = 12800;
    /** Frequency-scaling transition latency in microseconds (Fig. 9). */
    double frequencyTransitionUs = 1.0;
    /**
     * DAMON-style access monitoring (defaults: disabled, zero cost,
     * behaviour bit-identical to the seed).  `cores` is overwritten
     * with the hierarchy's core count at construction.
     */
    monitor::MonitorConfig monitoring;
    /** Operation schemes evaluated when monitoring is enabled. */
    monitor::SchemeConfig schemes;

    /**
     * The (spec, fast) settings the design implies.  Raw
     * margin-exploitation settings use the same setting for both.
     */
    dram::MemorySetting specSetting() const;
    dram::MemorySetting fastSetting() const;

    /** The replication mode the design requests. */
    core::ReplicationMode requestedReplication() const;

    /** Does the design replicate/operate fast under current usage? */
    core::ReplicationMode effectiveReplication() const;
};

} // namespace hdmr::node

#endif // HDMR_NODE_CONFIG_HH
