/**
 * @file
 * Hierarchical metrics registry: counters, gauges, and log2-bucketed
 * histograms with O(1) hot-path updates.
 *
 * Metric names are dot-separated paths ("node.dram.ch0.mode_switches") so
 * per-channel / per-leg families stay enumerable and sortable for
 * export.  Components *bind* metrics once (Registry hands back a
 * stable pointer; std::map nodes never move) and bump them directly on
 * the hot path - an update is one add on a cached pointer, no lookup,
 * no lock, no allocation.  When telemetry is disabled the binding
 * pointers stay null and the HDMR_TM_* guard macros in telemetry.hh
 * reduce every update site to a single predictable branch.
 *
 * Registration is find-or-create: asking for the same name with the
 * same kind returns the same object (so per-channel wiring can share a
 * rollup counter), while re-using a name with a *different* kind is a
 * collision and fatal()s naming both kinds.
 *
 * Snapshot integration (src/snapshot): a registry serializes every
 * metric by (name, kind, values) and restores into a fresh or
 * already-bound registry, so metric state survives --resume-from
 * bit-identically; digest() folds the full state into one FNV-1a word
 * for the replay-divergence trail.
 */

#ifndef HDMR_TELEMETRY_METRICS_HH
#define HDMR_TELEMETRY_METRICS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <variant>

namespace hdmr::snapshot
{
class Serializer;
class Deserializer;
} // namespace hdmr::snapshot

namespace hdmr::telemetry
{

/** The three metric shapes the registry knows. */
enum class MetricKind : std::uint8_t
{
    kCounter = 0,
    kGauge = 1,
    kHistogram = 2,
};

/** Printable kind name ("counter" / "gauge" / "histogram"). */
const char *metricKindName(MetricKind kind);

/**
 * Map an arbitrary label onto one metric-name path component:
 * characters outside [A-Za-z0-9_-] (including '.') become '_', and an
 * empty label becomes "unnamed".  Lets bench labels like
 * "Exploit Freq+Lat Margins" key metric families safely.
 */
std::string sanitizeMetricComponent(const std::string &label);

/** Monotonic event count. */
class Counter
{
  public:
    void inc(std::uint64_t delta = 1) { value_ += delta; }
    std::uint64_t value() const { return value_; }

    /** Overwrite (snapshot restore); not for hot-path use. */
    void set(std::uint64_t value) { value_ = value; }

  private:
    std::uint64_t value_ = 0;
};

/** Last-written level (queue depth, utilization, residency ticks). */
class Gauge
{
  public:
    void set(double value) { value_ = value; }
    void add(double delta) { value_ += delta; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Power-of-two-bucketed histogram over the full u64 range.
 *
 * Bucket 0 holds exactly the value 0; bucket b >= 1 holds
 * [2^(b-1), 2^b - 1], so bucket 64 ends at UINT64_MAX and recording is
 * a single std::bit_width (one instruction on any modern target).
 * `sum` accumulates the raw values modulo 2^64 - with tick-sized
 * samples that wraps only after ~10^6 years of simulated time, and the
 * export formats carry it verbatim either way.
 */
class Log2Histogram
{
  public:
    static constexpr unsigned kBuckets = 65;

    void
    record(std::uint64_t value)
    {
        ++counts_[bucketOf(value)];
        ++count_;
        sum_ += value;
    }

    /** Bucket index a value lands in (== std::bit_width). */
    static unsigned
    bucketOf(std::uint64_t value)
    {
        return static_cast<unsigned>(std::bit_width(value));
    }

    /** Smallest value of bucket b. */
    static std::uint64_t bucketLow(unsigned bucket);

    /** Largest value of bucket b (inclusive). */
    static std::uint64_t bucketHigh(unsigned bucket);

    std::uint64_t
    bucketCount(unsigned bucket) const
    {
        return counts_[bucket];
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }

    /** Mean of the recorded values; 0 when empty. */
    double mean() const;

    /**
     * Upper bound of the bucket holding the q-quantile (q clamped to
     * [0, 1]); 0 when empty.  Log2 buckets make this an upper
     * estimate that can overshoot the true quantile by at most 2x -
     * the right resolution for "is p99 bounded?" serving dashboards
     * (p50 = valueAtQuantile(0.5), p99 = valueAtQuantile(0.99)).
     */
    std::uint64_t valueAtQuantile(double q) const;

    /**
     * Fold `other` into this histogram bin-for-bin (no re-binning:
     * both sides share the fixed log2 bucket layout, so the merged
     * counts, totals, and therefore quantile estimates are exactly
     * what one histogram fed both streams would hold).  Lets
     * per-region monitor histories aggregate into a per-node view.
     */
    void merge(const Log2Histogram &other);

    /** Overwrite one bucket (snapshot restore). */
    void setBucketCount(unsigned bucket, std::uint64_t value);
    /** Overwrite the totals (snapshot restore). */
    void setTotals(std::uint64_t count, std::uint64_t sum);

  private:
    std::array<std::uint64_t, kBuckets> counts_ = {};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

/** One registered metric (name lives in the registry map key). */
using Metric = std::variant<Counter, Gauge, Log2Histogram>;

/** The hierarchical registry. */
class Registry
{
  public:
    /**
     * Find-or-create.  fatal()s when `name` is malformed (empty, too
     * long, characters outside [A-Za-z0-9_.-], or a leading/trailing
     * dot) or already registered with a different kind.  The returned
     * reference stays valid for the registry's lifetime.
     */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Log2Histogram &histogram(const std::string &name);

    /** Lookup without creation; nullptr when absent. */
    const Metric *find(const std::string &name) const;

    std::size_t size() const { return metrics_.size(); }
    bool empty() const { return metrics_.empty(); }

    /** Name-sorted iteration (std::map order) for the export sinks. */
    const std::map<std::string, Metric> &metrics() const
    {
        return metrics_;
    }

    /** True when `name` is a well-formed metric name. */
    static bool validName(const std::string &name);

    // ---- Snapshot/resume surface (src/snapshot). ----

    /** Serialize every metric as (name, kind, values). */
    void save(snapshot::Serializer &out) const;

    /**
     * Restore a saved image: each saved metric is created (or matched
     * by name) and overwritten with the saved values.  Fails the
     * deserializer and returns false on corrupt images, malformed
     * names, kind mismatches against already-registered metrics, or
     * inconsistent histogram totals; the registry may be partially
     * updated on failure (callers treat a failed restore as fatal).
     */
    bool restore(snapshot::Deserializer &in);

    /** FNV-1a digest over the complete metric state, name-sorted. */
    std::uint64_t digest() const;

  private:
    template <typename T>
    T &getOrCreate(const std::string &name, MetricKind kind);

    std::map<std::string, Metric> metrics_;
};

} // namespace hdmr::telemetry

#endif // HDMR_TELEMETRY_METRICS_HH
