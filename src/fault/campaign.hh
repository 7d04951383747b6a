/**
 * @file
 * Deterministic, seeded fault-injection campaign engine.
 *
 * A campaign is a *schedule*: given per-kind base rates, a global
 * intensity knob, a target count and a horizon, it expands into a
 * time-sorted list of FaultEvents via independent Poisson processes
 * (one forked RNG stream per kind, so enabling one fault kind never
 * perturbs the arrival times of another).  Intensity 0 produces an
 * empty schedule and touches no RNG at all - a zero campaign is
 * bit-identical to not having the subsystem.
 *
 * Job-killing UEs at the cluster layer use killTimeSeconds() instead
 * of the schedule: each (job, attempt) pair owns one uniform draw that
 * is mapped through the exponential inverse CDF at the current rate.
 * Realizations are therefore *nested* across intensities - raising the
 * fault rate can only move every kill earlier, never un-kill a job -
 * which makes "speedup retained vs fault rate" sweeps monotone by
 * construction instead of by luck.
 */

#ifndef HDMR_FAULT_CAMPAIGN_HH
#define HDMR_FAULT_CAMPAIGN_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "fault/fault.hh"
#include "util/status.hh"

namespace hdmr::snapshot
{
class Serializer;
class Deserializer;
} // namespace hdmr::snapshot

namespace hdmr::fault
{

/** Campaign parameters.  Rates are per target per hour at intensity 1. */
struct CampaignConfig
{
    /** Global fault-rate scale; 0 disables the campaign entirely. */
    double intensity = 0.0;
    std::uint64_t seed = 0xfa17u;
    /** Schedule horizon in seconds. */
    double horizonSeconds = 4.0 * 30 * 24 * 3600.0;
    /** Number of targets (channels or nodes) faults spread over. */
    unsigned targets = 1;

    // Base event rates, per target-hour, at intensity 1.0.
    double uncorrectablePerHour = 0.0;
    double burstsPerHour = 0.0;
    double driftEventsPerHour = 0.0;
    double excursionsPerHour = 0.0;
    double nodeFailuresPerHour = 0.0;
    double demotionsPerHour = 0.0;

    // Magnitudes.
    double burstErrorsMean = 50.0;      ///< detected errors per burst
    double driftStepMts = 200.0;        ///< stable-rate loss per event
    double excursionMeanSeconds = 1800.0; ///< mean 45 degC window

    /**
     * Reject impossible campaigns (NaN/negative rates or magnitudes,
     * zero targets, negative horizon) with kInvalidArgument naming
     * the offending field.  FaultCampaign's constructor checkOk()s it
     * so bad configs fail loudly up front instead of deep inside a
     * run.
     */
    util::Status validate() const;

    bool
    enabled() const
    {
        return intensity > 0.0 &&
               (uncorrectablePerHour > 0.0 || burstsPerHour > 0.0 ||
                driftEventsPerHour > 0.0 || excursionsPerHour > 0.0 ||
                nodeFailuresPerHour > 0.0 || demotionsPerHour > 0.0);
    }

    /** Effective aggregate rate for one kind, per second, all targets. */
    double
    ratePerSecond(double base_per_hour) const
    {
        return intensity * base_per_hour *
               static_cast<double>(targets) / 3600.0;
    }
};

/** Expands a CampaignConfig into a deterministic fault schedule. */
class FaultCampaign
{
  public:
    explicit FaultCampaign(CampaignConfig config);

    /**
     * The full schedule, sorted by time (stable across kinds).  Same
     * config => same schedule, bit for bit.
     */
    std::vector<FaultEvent> schedule() const;

    /**
     * The events of one kind only, in schedule order.  A filtered view
     * of schedule(): consumers interested in a single process (e.g. the
     * SDC audit overlaying error bursts) get the same realization the
     * full schedule carries, so mixing filtered and unfiltered walks of
     * one campaign stays consistent.
     */
    std::vector<FaultEvent> schedule(FaultKind kind) const;

    /**
     * Time to the job-killing UE for (job, attempt) at the given
     * per-second aggregate rate, or +infinity when the rate is 0.
     * Deterministic in (seed, job, attempt) and nested across rates:
     * for fixed identifiers the kill time is strictly decreasing in
     * the rate, so fault realizations at a higher intensity are a
     * superset of those at a lower one.
     */
    static double killTimeSeconds(std::uint64_t seed, unsigned job_id,
                                  unsigned attempt,
                                  double rate_per_second);

    const CampaignConfig &config() const { return config_; }

  private:
    CampaignConfig config_;
};

/**
 * A resumable position inside an expanded fault schedule.
 *
 * The cursor owns the (deterministically re-derivable) schedule and a
 * consumption index; snapshots persist only the index plus an FNV-1a
 * digest of the whole schedule, so a resumed run proves it is walking
 * the *same* campaign realization and a snapshot taken under a
 * different campaign config is rejected instead of silently replayed
 * against the wrong fault sequence.
 */
class ScheduleCursor
{
  public:
    ScheduleCursor() = default;
    explicit ScheduleCursor(std::vector<FaultEvent> schedule);

    bool done() const { return index_ >= schedule_.size(); }

    /** Next undelivered event; must not be called when done(). */
    const FaultEvent &current() const;

    /** Arrival time of the next event, +infinity when exhausted. */
    double
    nextTimeSeconds() const
    {
        return done() ? std::numeric_limits<double>::infinity()
                      : schedule_[index_].atSeconds;
    }

    void advance();

    std::size_t index() const { return index_; }
    std::size_t size() const { return schedule_.size(); }

    /** Order- and content-sensitive digest of the full schedule. */
    std::uint64_t scheduleDigest() const;

    /** Persist the cursor (index + schedule digest). */
    void save(snapshot::Serializer &out) const;

    /**
     * Restore a cursor persisted by save() against this cursor's
     * schedule.  Fails the deserializer (and returns false) when the
     * digests disagree, i.e. the snapshot belongs to a different
     * campaign realization.
     */
    bool restore(snapshot::Deserializer &in);

  private:
    std::vector<FaultEvent> schedule_;
    std::size_t index_ = 0;
};

} // namespace hdmr::fault

#endif // HDMR_FAULT_CAMPAIGN_HH
