/**
 * @file
 * Shared code for the grid-driven figures: runs the Section IV-A
 * evaluation grid (memory systems x margins x usage buckets x
 * hierarchies x benchmarks) through the parallel node runner and
 * caches raw results in a CSV under results/ so related figures
 * (12, 13, 14, 16) reuse one grid run.
 */

#ifndef HDMR_BENCH_EVAL_COMMON_HH
#define HDMR_BENCH_EVAL_COMMON_HH

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "eval_cache.hh"
#include "harness.hh"
#include "node/config.hh"
#include "node/node_system.hh"

namespace hdmr::bench
{

/** Fig. 1 memory-usage bucket weights used for weighted averages. */
struct UsageWeights
{
    double under25 = 0.55;
    double under25to50 = 0.25;
    double over50 = 0.20;
};

/** Margin-group weights (Section III-D3). */
struct MarginWeights
{
    double at800 = 0.62;
    double at600 = 0.36;
    double at0 = 0.02;
};

/** Simulation sizing for the harnesses (kept modest: 1-core host). */
struct EvalSizing
{
    std::uint64_t memOpsPerCore = 40000;
    std::uint64_t warmupOpsPerCore = 20000;
};

/** Key for looking rows up. */
std::string rowKey(const std::string &benchmark,
                   const std::string &hierarchy,
                   const std::string &system, unsigned margin,
                   unsigned usage_class);

/** A loaded/computed grid. */
class EvalGrid
{
  public:
    /**
     * Load the grid from `cache_path` if present; otherwise run all
     * `configs` through node::runGrid on `threads` workers (0 = host
     * default) and write the cache, creating the cache's directory.
     * Progress goes to stderr.
     */
    static EvalGrid
    runOrLoad(const std::string &cache_path,
              const std::vector<node::NodeConfig> &configs,
              unsigned threads = 0);

    const EvalRow &lookup(const std::string &benchmark,
                          const std::string &hierarchy,
                          const std::string &system, unsigned margin,
                          unsigned usage_class) const;

    bool contains(const std::string &key) const;

    const std::vector<EvalRow> &rows() const { return rows_; }

    /** Simulated seconds covered by fresh runs (0 when cached). */
    double simSeconds() const { return simSeconds_; }

    /** Memory operations simulated by fresh runs (0 when cached). */
    std::uint64_t simEvents() const { return simEvents_; }

  private:
    std::vector<EvalRow> rows_;
    std::map<std::string, std::size_t> index_;
    double simSeconds_ = 0.0;
    std::uint64_t simEvents_ = 0;
};

/**
 * The grid-driven figures' Harness plus their one own flag,
 * --threads=<n> (worker threads for fresh grid runs).
 */
class EvalHarness
{
  public:
    /** Parses the flags; fatal on bad arguments. */
    EvalHarness(std::string bench_name, int argc, char **argv);

    /** Worker threads requested for fresh grid runs (0 = default). */
    unsigned threads() const { return threads_; }

    /**
     * Publishes every row of every grid as gauges ("eval.<hierarchy>.
     * <system>.m<margin>.u<usage>.<benchmark>.<field>") for the
     * telemetry export, then Harness::finish().
     */
    int finish(std::initializer_list<const EvalGrid *> grids);

  private:
    Harness harness_;
    unsigned threads_ = 0;
};

/** The full Section IV-A grid (Figs. 12/13/14). */
std::vector<node::NodeConfig> evaluationGrid(const EvalSizing &sizing);

/** The Fig. 5 grid (four Table II settings, no replication). */
std::vector<node::NodeConfig> marginSettingsGrid(const EvalSizing &sizing);

/** Build the row describing a config (before stats are known). */
EvalRow describe(const node::NodeConfig &config);

/** Suite-equal-weight average of per-benchmark values. */
double suiteAverage(const std::map<std::string, std::vector<double>>
                        &per_suite_values);

} // namespace hdmr::bench

#endif // HDMR_BENCH_EVAL_COMMON_HH
