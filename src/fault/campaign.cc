#include "fault/campaign.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "snapshot/digest.hh"
#include "snapshot/serializer.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace hdmr::fault
{

util::Status
CampaignConfig::validate() const
{
    const auto check_rate = [](const char *field,
                               double value) -> util::Status {
        if (!(value >= 0.0) || !std::isfinite(value))
            return util::invalidArgument(
                "CampaignConfig.%s must be a finite non-negative "
                "rate (got %g)",
                field, value);
        return util::Status{};
    };
    HDMR_RETURN_IF_ERROR(check_rate("intensity", intensity));
    HDMR_RETURN_IF_ERROR(
        check_rate("uncorrectablePerHour", uncorrectablePerHour));
    HDMR_RETURN_IF_ERROR(check_rate("burstsPerHour", burstsPerHour));
    HDMR_RETURN_IF_ERROR(
        check_rate("driftEventsPerHour", driftEventsPerHour));
    HDMR_RETURN_IF_ERROR(
        check_rate("excursionsPerHour", excursionsPerHour));
    HDMR_RETURN_IF_ERROR(
        check_rate("nodeFailuresPerHour", nodeFailuresPerHour));
    HDMR_RETURN_IF_ERROR(
        check_rate("demotionsPerHour", demotionsPerHour));
    if (!(horizonSeconds >= 0.0) || !std::isfinite(horizonSeconds))
        return util::invalidArgument(
            "CampaignConfig.horizonSeconds must be a finite "
            "non-negative duration (got %g)",
            horizonSeconds);
    if (targets == 0)
        return util::invalidArgument(
            "CampaignConfig.targets must be at least 1");
    if (!(burstErrorsMean >= 0.0) || !std::isfinite(burstErrorsMean))
        return util::invalidArgument(
            "CampaignConfig.burstErrorsMean must be finite and "
            "non-negative (got %g)",
            burstErrorsMean);
    if (!(driftStepMts >= 0.0) || !std::isfinite(driftStepMts))
        return util::invalidArgument(
            "CampaignConfig.driftStepMts must be finite and "
            "non-negative (got %g)",
            driftStepMts);
    if (!(excursionMeanSeconds > 0.0) ||
        !std::isfinite(excursionMeanSeconds))
        return util::invalidArgument(
            "CampaignConfig.excursionMeanSeconds must be a finite "
            "positive duration (got %g)",
            excursionMeanSeconds);
    return util::Status{};
}

FaultCampaign::FaultCampaign(CampaignConfig config) : config_(config)
{
    util::checkOk(config_.validate());
}

namespace
{

/** SplitMix64 finalizer: decorrelates structured (seed, id) inputs. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Append one kind's Poisson arrivals.  Each kind derives its RNG from
 * (seed, kind), so the streams are independent and a kind's schedule
 * is invariant under changes to the other kinds' rates.
 */
void
appendArrivals(std::vector<FaultEvent> &events,
               const CampaignConfig &config, FaultKind kind,
               double base_per_hour)
{
    const double rate = config.ratePerSecond(base_per_hour);
    if (rate <= 0.0 || config.horizonSeconds <= 0.0)
        return;

    util::Rng rng(mix(config.seed ^
                      (static_cast<std::uint64_t>(kind) + 1) *
                          0x100000001b3ULL));
    double t = 0.0;
    while (true) {
        t += rng.exponential(rate);
        if (t >= config.horizonSeconds)
            break;

        FaultEvent ev;
        ev.atSeconds = t;
        ev.kind = kind;
        ev.target = config.targets <= 1
                        ? 0
                        : static_cast<unsigned>(
                              rng.uniformInt(0, config.targets - 1));
        switch (kind) {
          case FaultKind::kErrorBurst:
            // 1 + Poisson keeps bursts non-empty at small means.
            ev.magnitude = 1.0 + static_cast<double>(rng.poisson(
                                     config.burstErrorsMean));
            break;
          case FaultKind::kMarginDrift:
            ev.magnitude = config.driftStepMts;
            break;
          case FaultKind::kTemperatureExcursion:
            ev.durationSeconds =
                rng.exponential(1.0 / config.excursionMeanSeconds);
            break;
          default:
            break;
        }
        events.push_back(ev);
    }
}

} // namespace

std::vector<FaultEvent>
FaultCampaign::schedule() const
{
    std::vector<FaultEvent> events;
    if (!config_.enabled())
        return events;

    appendArrivals(events, config_, FaultKind::kTransientUncorrectable,
                   config_.uncorrectablePerHour);
    appendArrivals(events, config_, FaultKind::kErrorBurst,
                   config_.burstsPerHour);
    appendArrivals(events, config_, FaultKind::kMarginDrift,
                   config_.driftEventsPerHour);
    appendArrivals(events, config_, FaultKind::kTemperatureExcursion,
                   config_.excursionsPerHour);
    appendArrivals(events, config_, FaultKind::kNodeFailure,
                   config_.nodeFailuresPerHour);
    appendArrivals(events, config_, FaultKind::kGroupDemotion,
                   config_.demotionsPerHour);

    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.atSeconds < b.atSeconds;
                     });
    return events;
}

std::vector<FaultEvent>
FaultCampaign::schedule(FaultKind kind) const
{
    std::vector<FaultEvent> filtered;
    for (const FaultEvent &ev : schedule()) {
        if (ev.kind == kind)
            filtered.push_back(ev);
    }
    return filtered;
}

double
FaultCampaign::killTimeSeconds(std::uint64_t seed, unsigned job_id,
                               unsigned attempt, double rate_per_second)
{
    if (rate_per_second <= 0.0)
        return std::numeric_limits<double>::infinity();

    // One uniform draw per (job, attempt); the inverse exponential CDF
    // maps it to a kill time at whatever rate the caller is sweeping.
    util::Rng rng(mix(seed ^ mix((static_cast<std::uint64_t>(job_id)
                                  << 20) +
                                 attempt)));
    const double u = rng.uniform(); // in [0, 1)
    return -std::log1p(-u) / rate_per_second;
}

// --------------------------------------------------------------------
// ScheduleCursor
// --------------------------------------------------------------------

ScheduleCursor::ScheduleCursor(std::vector<FaultEvent> schedule)
    : schedule_(std::move(schedule))
{
}

const FaultEvent &
ScheduleCursor::current() const
{
    hdmr_assert(!done(), "ScheduleCursor read past the end");
    return schedule_[index_];
}

void
ScheduleCursor::advance()
{
    hdmr_assert(!done(), "ScheduleCursor advanced past the end");
    ++index_;
}

std::uint64_t
ScheduleCursor::scheduleDigest() const
{
    snapshot::Fnv1a hash;
    hash.addU64(schedule_.size());
    for (const FaultEvent &ev : schedule_) {
        hash.addDouble(ev.atSeconds);
        hash.addU32(static_cast<std::uint32_t>(ev.kind));
        hash.addU32(ev.target);
        hash.addDouble(ev.magnitude);
        hash.addDouble(ev.durationSeconds);
    }
    return hash.value();
}

void
ScheduleCursor::save(snapshot::Serializer &out) const
{
    out.writeU64(scheduleDigest());
    out.writeU64(index_);
}

bool
ScheduleCursor::restore(snapshot::Deserializer &in)
{
    const std::uint64_t digest = in.readU64();
    const std::uint64_t index = in.readU64();
    if (!in.ok())
        return false;
    if (digest != scheduleDigest()) {
        in.fail("fault-schedule digest mismatch: the snapshot was taken "
                "under a different campaign realization");
        return false;
    }
    if (index > schedule_.size()) {
        in.fail("fault-schedule cursor out of range");
        return false;
    }
    index_ = static_cast<std::size_t>(index);
    return true;
}

} // namespace hdmr::fault
