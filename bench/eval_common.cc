#include "eval_common.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "node/runner.hh"
#include "traces/csv.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace hdmr::bench
{

using node::HierarchyConfig;
using node::MemorySystemKind;
using node::NodeConfig;

std::string
rowKey(const std::string &benchmark, const std::string &hierarchy,
       const std::string &system, unsigned margin,
       unsigned usage_class)
{
    std::ostringstream key;
    key << benchmark << '|' << hierarchy << '|' << system << '|'
        << margin << '|' << usage_class;
    return key.str();
}

EvalRow
describe(const NodeConfig &config)
{
    EvalRow row;
    row.benchmark = config.workload.name;
    row.suite = config.workload.suite;
    row.hierarchy = config.hierarchy.name;
    row.system = node::toString(config.memorySystem);
    row.marginMts = config.nodeMarginMts;
    row.usageClass = static_cast<unsigned>(config.usage);
    return row;
}

EvalGrid
EvalGrid::runOrLoad(const std::string &cache_path,
                    const std::vector<NodeConfig> &configs,
                    unsigned threads)
{
    EvalGrid grid;

    std::ifstream cache(cache_path);
    if (cache) {
        // Strict cache parsing (see eval_cache.hh): a corrupt cache is
        // a fatal condition for the figure CLIs, not a silent re-run.
        std::vector<EvalRow> rows;
        util::checkOk(loadEvalCache(cache, cache_path, &rows));
        for (EvalRow &row : rows) {
            grid.index_[rowKey(row.benchmark, row.hierarchy,
                               row.system, row.marginMts,
                               row.usageClass)] = grid.rows_.size();
            grid.rows_.push_back(std::move(row));
        }
        // Use the cache only if it covers every requested config.
        bool complete = true;
        for (const auto &config : configs) {
            const EvalRow probe = describe(config);
            complete &= grid.index_.count(
                            rowKey(probe.benchmark, probe.hierarchy,
                                   probe.system, probe.marginMts,
                                   probe.usageClass)) > 0;
        }
        if (complete && !configs.empty()) {
            std::fprintf(stderr, "[eval] loaded %zu rows from %s\n",
                         grid.rows_.size(), cache_path.c_str());
            return grid;
        }
        grid.rows_.clear();
        grid.index_.clear();
    }

    std::fprintf(stderr, "[eval] running %zu node simulations...\n",
                 configs.size());
    const std::vector<node::NodeStats> all_stats =
        node::runGrid(configs, threads);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const node::NodeStats &stats = all_stats[i];
        EvalRow row = describe(configs[i]);
        row.execSeconds = stats.execSeconds;
        row.epiNj = stats.energy.epiNj;
        row.dramAccessesPerInstruction =
            stats.dramAccessesPerInstruction;
        row.busUtilization = stats.busUtilization;
        row.readBandwidthGBs = stats.readBandwidthGBs;
        row.writeBandwidthGBs = stats.writeBandwidthGBs;
        row.commFraction = stats.commFraction;
        row.corrections = static_cast<double>(stats.corrections);
        grid.simSeconds_ += stats.execSeconds;
        grid.simEvents_ += stats.memOps;
        grid.index_[rowKey(row.benchmark, row.hierarchy, row.system,
                           row.marginMts, row.usageClass)] =
            grid.rows_.size();
        grid.rows_.push_back(std::move(row));
    }
    std::fprintf(stderr, "[eval] %zu/%zu done\n", configs.size(),
                 configs.size());

    const std::filesystem::path parent =
        std::filesystem::path(cache_path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    std::ofstream out(cache_path);
    for (const EvalRow &row : grid.rows_)
        out << serializeEvalRow(row) << '\n';
    return grid;
}

const EvalRow &
EvalGrid::lookup(const std::string &benchmark,
                 const std::string &hierarchy, const std::string &system,
                 unsigned margin, unsigned usage_class) const
{
    const auto it = index_.find(
        rowKey(benchmark, hierarchy, system, margin, usage_class));
    if (it == index_.end()) {
        util::fatal("missing evaluation row %s/%s/%s/%u/%u",
                    benchmark.c_str(), hierarchy.c_str(),
                    system.c_str(), margin, usage_class);
    }
    return rows_[it->second];
}

bool
EvalGrid::contains(const std::string &key) const
{
    return index_.count(key) > 0;
}

std::vector<NodeConfig>
evaluationGrid(const EvalSizing &sizing)
{
    std::vector<NodeConfig> configs;
    const auto hierarchies = {HierarchyConfig::hierarchy1(),
                              HierarchyConfig::hierarchy2()};

    for (const auto &hierarchy : hierarchies) {
        for (const auto &workload : wl::benchmarkCatalog()) {
            auto push = [&](MemorySystemKind kind, unsigned margin,
                            core::MemoryUsage usage) {
                NodeConfig config;
                config.hierarchy = hierarchy;
                config.workload = workload;
                config.memorySystem = kind;
                config.nodeMarginMts = margin;
                config.usage = usage;
                config.memOpsPerCore = sizing.memOpsPerCore;
                config.warmupOpsPerCore = sizing.warmupOpsPerCore;
                configs.push_back(config);
            };
            // Distinct behaviours only; bucket-weighted numbers are
            // composed from these (Section IV-A).
            push(MemorySystemKind::kCommercialBaseline, 800,
                 core::MemoryUsage::kUnder50);
            push(MemorySystemKind::kFmr, 800,
                 core::MemoryUsage::kUnder50);
            for (const unsigned margin : {800u, 600u}) {
                push(MemorySystemKind::kHeteroDmr, margin,
                     core::MemoryUsage::kUnder50);
                push(MemorySystemKind::kHeteroDmrFmr, margin,
                     core::MemoryUsage::kUnder25);
            }
        }
    }
    return configs;
}

std::vector<NodeConfig>
marginSettingsGrid(const EvalSizing &sizing)
{
    std::vector<NodeConfig> configs;
    const auto hierarchies = {HierarchyConfig::hierarchy1(),
                              HierarchyConfig::hierarchy2()};
    for (const auto &hierarchy : hierarchies) {
        for (const auto &workload : wl::benchmarkCatalog()) {
            for (const auto kind :
                 {MemorySystemKind::kCommercialBaseline,
                  MemorySystemKind::kExploitLatency,
                  MemorySystemKind::kExploitFrequency,
                  MemorySystemKind::kExploitFreqLat}) {
                NodeConfig config;
                config.hierarchy = hierarchy;
                config.workload = workload;
                config.memorySystem = kind;
                config.nodeMarginMts = 800;
                config.usage = core::MemoryUsage::kUnder50;
                config.memOpsPerCore = sizing.memOpsPerCore;
                config.warmupOpsPerCore = sizing.warmupOpsPerCore;
                configs.push_back(config);
            }
        }
    }
    return configs;
}

EvalHarness::EvalHarness(std::string bench_name, int argc, char **argv)
    : harness_(std::move(bench_name))
{
    harness_.flag("--threads", &threads_,
                  "worker threads for fresh grid runs (0 = host "
                  "default)",
                  0, 4096);
    harness_.parse(argc, argv);
}

int
EvalHarness::finish(std::initializer_list<const EvalGrid *> grids)
{
    telemetry::Registry &registry = harness_.registry();
    for (const EvalGrid *grid : grids) {
        harness_.addSimulated(grid->simSeconds(), grid->simEvents());
        for (const EvalRow &row : grid->rows()) {
            const std::string prefix =
                "eval." +
                telemetry::sanitizeMetricComponent(row.hierarchy) +
                "." +
                telemetry::sanitizeMetricComponent(row.system) +
                ".m" + std::to_string(row.marginMts) + ".u" +
                std::to_string(row.usageClass) + "." +
                telemetry::sanitizeMetricComponent(row.benchmark);
            registry.gauge(prefix + ".exec_seconds")
                .set(row.execSeconds);
            registry.gauge(prefix + ".epi_nj").set(row.epiNj);
            registry.gauge(prefix + ".dram_accesses_per_instruction")
                .set(row.dramAccessesPerInstruction);
            registry.gauge(prefix + ".bus_utilization")
                .set(row.busUtilization);
            registry.gauge(prefix + ".read_bandwidth_gbs")
                .set(row.readBandwidthGBs);
            registry.gauge(prefix + ".write_bandwidth_gbs")
                .set(row.writeBandwidthGBs);
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    harness_.setThreads(threads_ > 0 ? threads_ : (hw == 0 ? 4 : hw));
    return harness_.finish();
}

double
suiteAverage(
    const std::map<std::string, std::vector<double>> &per_suite_values)
{
    std::vector<double> suite_means;
    for (const auto &[suite, values] : per_suite_values)
        suite_means.push_back(util::mean(values));
    return util::mean(suite_means);
}

} // namespace hdmr::bench
