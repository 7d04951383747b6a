/**
 * @file
 * Export sinks for the metrics registry: strict CSV and JSON.
 *
 * The CSV format is one row per scalar metric field,
 *
 *     # hdmr metrics v1
 *     name,kind,field,value
 *     sched.jobs_completed,counter,value,123456
 *     sched.turnaround_seconds,histogram,count,1743
 *     sched.turnaround_seconds,histogram,sum,52873
 *     sched.turnaround_seconds,histogram,bucket12,40
 *     ...
 *
 * with histograms expanded to their totals plus every non-zero bucket.
 *
 * The JSON sink writes the same data as one self-describing object for
 * downstream tooling.  Both files are write-only exports: nothing in
 * the project reads either one back.
 */

#ifndef HDMR_TELEMETRY_SINKS_HH
#define HDMR_TELEMETRY_SINKS_HH

#include <string>

#include "telemetry/metrics.hh"

namespace hdmr::telemetry
{

/** Write every metric, name-sorted.  False + *error on I/O failure. */
bool writeMetricsCsv(const Registry &registry, const std::string &path,
                     std::string *error);

/** Write every metric as one JSON object.  False + *error on I/O. */
bool writeMetricsJson(const Registry &registry, const std::string &path,
                      std::string *error);

} // namespace hdmr::telemetry

#endif // HDMR_TELEMETRY_SINKS_HH
