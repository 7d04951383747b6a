/**
 * @file
 * Pieces of the margin-drift chaos campaign shared by fig18_drift and
 * ablation_hetreliability: the reference drift scenario and the
 * interrupt/resume bit-identity gate on one fleet leg.
 */

#ifndef HDMR_BENCH_DRIFT_CAMPAIGN_HH
#define HDMR_BENCH_DRIFT_CAMPAIGN_HH

#include <vector>

#include "fault/drift_chaos.hh"
#include "harness.hh"
#include "sched/cluster_sim.hh"
#include "traces/job_trace.hh"

namespace hdmr::bench
{

/** The reference drift scenario, scaled to a trace horizon. */
fault::DriftScenarioConfig
referenceScenario(double horizon_hours, unsigned modules,
                  unsigned targets_per_module, double aging_rate,
                  double spikes_per_kilo_hour);

/**
 * Straight-through vs. interrupt-at-`stop_after_seconds`-and-resume
 * on one leg; gates bit-identity on metrics equality and the
 * state-digest trail.
 */
void runInterruptResumeCheck(const sched::ClusterConfig &config,
                             const std::vector<traces::Job> &jobs,
                             double stop_after_seconds,
                             double digest_every_seconds,
                             Harness &harness);

} // namespace hdmr::bench

#endif // HDMR_BENCH_DRIFT_CAMPAIGN_HH
