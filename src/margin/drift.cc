#include "margin/drift.hh"

#include <algorithm>
#include <cmath>

#include "snapshot/digest.hh"
#include "snapshot/serializer.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace hdmr::margin
{

namespace
{

/** SplitMix64 finalizer: decorrelates (seed, stream-id) pairs. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

constexpr double kPi = 3.14159265358979323846;

} // namespace

util::Status
DriftConfig::validate() const
{
    const auto bad = [](double v) { return std::isnan(v) || v < 0.0; };

    if (modules == 0)
        return util::invalidArgument(
            "DriftConfig.modules must be at least 1");
    if (bad(horizonHours))
        return util::invalidArgument(
            "DriftConfig.horizonHours must be >= 0");
    if (bad(agingMtsPerKiloHour))
        return util::invalidArgument(
            "DriftConfig.agingMtsPerKiloHour must be >= 0");
    if (bad(agingSigma))
        return util::invalidArgument(
            "DriftConfig.agingSigma must be >= 0");
    if (std::isnan(agingExponent) || agingExponent <= 0.0)
        return util::invalidArgument(
            "DriftConfig.agingExponent must be > 0");
    if (cohortSize == 0)
        return util::invalidArgument(
            "DriftConfig.cohortSize must be at least 1");
    if (std::isnan(cohortCorrelation) || cohortCorrelation < 0.0 ||
        cohortCorrelation > 1.0) {
        return util::invalidArgument(
            "DriftConfig.cohortCorrelation must lie in [0, 1]");
    }
    if (bad(diurnalAmplitudeC))
        return util::invalidArgument(
            "DriftConfig.diurnalAmplitudeC must be >= 0");
    if (std::isnan(diurnalPeakHour) || diurnalPeakHour < 0.0 ||
        diurnalPeakHour >= 24.0) {
        return util::invalidArgument(
            "DriftConfig.diurnalPeakHour must lie in [0, 24)");
    }
    if (bad(spikesPerKiloHour))
        return util::invalidArgument(
            "DriftConfig.spikesPerKiloHour must be >= 0");
    if (std::isnan(spikeMeanHours) || spikeMeanHours <= 0.0)
        return util::invalidArgument(
            "DriftConfig.spikeMeanHours must be > 0");
    if (std::isnan(spikeErrorMultiplier) || spikeErrorMultiplier < 1.0)
        return util::invalidArgument(
            "DriftConfig.spikeErrorMultiplier must be >= 1");
    return util::Status{};
}

MarginDriftModel::MarginDriftModel(DriftConfig config)
    : config_(config)
{
    util::checkOk(config_.validate());

    agingRates_.assign(config_.modules, 0.0);
    spikes_.assign(config_.modules, {});

    if (config_.agingMtsPerKiloHour > 0.0) {
        // Cohort draws first (one shared normal per cohort), then one
        // private normal per module; each from its own forked stream
        // so fleet size changes never perturb another module's curve.
        const double rho = config_.cohortCorrelation;
        const unsigned cohorts =
            (config_.modules + config_.cohortSize - 1) /
            config_.cohortSize;
        std::vector<double> cohortZ(cohorts, 0.0);
        for (unsigned c = 0; c < cohorts; ++c) {
            util::Rng rng(mix(config_.seed ^
                              (c + 1) * 0x9e3779b97f4a7c15ULL));
            cohortZ[c] = rng.normal();
        }
        for (unsigned m = 0; m < config_.modules; ++m) {
            util::Rng rng(mix(config_.seed ^
                              (m + 1) * 0x100000001b3ULL));
            const double z =
                std::sqrt(rho) * cohortZ[m / config_.cohortSize] +
                std::sqrt(1.0 - rho) * rng.normal();
            // exp(sigma z) around the configured *median* rate: half
            // the fleet ages faster, half slower, cohorts together.
            agingRates_[m] = config_.agingMtsPerKiloHour *
                             std::exp(config_.agingSigma * z);
        }
    }

    if (config_.spikesPerKiloHour > 0.0 && config_.horizonHours > 0.0) {
        const double per_hour = config_.spikesPerKiloHour / 1000.0;
        for (unsigned m = 0; m < config_.modules; ++m) {
            util::Rng rng(mix(config_.seed ^ 0x5b1ce5ULL ^
                              (m + 1) * 0x100000001b3ULL));
            double at = rng.exponential(per_hour);
            while (at < config_.horizonHours) {
                VoltageSpike spike;
                spike.startHour = at;
                spike.durationHours =
                    rng.exponential(1.0 / config_.spikeMeanHours);
                spike.errorMultiplier = config_.spikeErrorMultiplier;
                spikes_[m].push_back(spike);
                at += rng.exponential(per_hour);
            }
        }
    }
}

double
MarginDriftModel::agingRateMtsPerKiloHour(unsigned module) const
{
    return agingRates_.at(module);
}

const std::vector<VoltageSpike> &
MarginDriftModel::spikes(unsigned module) const
{
    return spikes_.at(module);
}

double
MarginDriftModel::erosionMtsAt(unsigned module, double hour) const
{
    if (hour <= 0.0)
        return 0.0;
    return agingRates_.at(module) *
           std::pow(hour / 1000.0, config_.agingExponent);
}

double
MarginDriftModel::ambientDeltaAt(double hour) const
{
    if (config_.diurnalAmplitudeC <= 0.0)
        return 0.0;
    // Sinusoidal load cycle: peaks at diurnalPeakHour every 24 h,
    // touches zero twelve hours later.
    const double phase =
        2.0 * kPi * (hour - config_.diurnalPeakHour) / 24.0;
    return config_.diurnalAmplitudeC * 0.5 * (1.0 + std::cos(phase));
}

double
MarginDriftModel::errorMultiplierAt(unsigned module, double hour) const
{
    double multiplier = 1.0;
    for (const VoltageSpike &spike : spikes_.at(module)) {
        if (spike.startHour > hour)
            break; // sorted by start: nothing later can cover `hour`
        if (spike.covers(hour))
            multiplier *= spike.errorMultiplier;
    }
    return multiplier;
}

OperatingPoint
MarginDriftModel::operatingPointAt(const OperatingPoint &base,
                                   double hour) const
{
    OperatingPoint op = base;
    op.ambientC += ambientDeltaAt(hour);
    return op;
}

MemoryModule
MarginDriftModel::wornModule(const MemoryModule &module, unsigned index,
                             double hour) const
{
    MemoryModule worn = module;
    const double erosion = erosionMtsAt(index, hour);
    const unsigned lost = static_cast<unsigned>(
        std::min(erosion, static_cast<double>(worn.maxStableRateMts)));
    worn.maxStableRateMts -= lost;
    worn.maxBootableRateMts -= std::min(worn.maxBootableRateMts, lost);
    return worn;
}

unsigned
MarginDriftModel::stableRateAt(const ErrorRateModel &model,
                               const MemoryModule &module,
                               const OperatingPoint &base,
                               unsigned index, double hour) const
{
    return model.stableRateAt(wornModule(module, index, hour),
                              operatingPointAt(base, hour));
}

double
MarginDriftModel::errorsPerHourAt(const ErrorRateModel &model,
                                  const MemoryModule &module,
                                  const OperatingPoint &base,
                                  unsigned index, double hour) const
{
    return model.errorsPerHour(wornModule(module, index, hour),
                               operatingPointAt(base, hour)) *
           errorMultiplierAt(index, hour);
}

double
MarginDriftModel::errorProbabilityPerReadAt(const ErrorRateModel &model,
                                            const MemoryModule &module,
                                            const OperatingPoint &base,
                                            unsigned index,
                                            double hour) const
{
    return std::min(
        1.0, model.errorProbabilityPerRead(
                 wornModule(module, index, hour),
                 operatingPointAt(base, hour)) *
                 errorMultiplierAt(index, hour));
}

std::uint64_t
MarginDriftModel::digest() const
{
    snapshot::Fnv1a hash;
    hash.addU64(config_.seed);
    hash.addU32(config_.modules);
    hash.addDouble(config_.horizonHours);
    hash.addDouble(config_.agingMtsPerKiloHour);
    hash.addDouble(config_.agingSigma);
    hash.addDouble(config_.agingExponent);
    hash.addU32(config_.cohortSize);
    hash.addDouble(config_.cohortCorrelation);
    hash.addDouble(config_.diurnalAmplitudeC);
    hash.addDouble(config_.diurnalPeakHour);
    hash.addDouble(config_.spikesPerKiloHour);
    hash.addDouble(config_.spikeMeanHours);
    hash.addDouble(config_.spikeErrorMultiplier);
    for (double rate : agingRates_)
        hash.addDouble(rate);
    for (const std::vector<VoltageSpike> &schedule : spikes_) {
        hash.addU64(schedule.size());
        for (const VoltageSpike &spike : schedule) {
            hash.addDouble(spike.startHour);
            hash.addDouble(spike.durationHours);
            hash.addDouble(spike.errorMultiplier);
        }
    }
    return hash.value();
}

void
MarginDriftModel::save(snapshot::Serializer &out) const
{
    out.writeU64(digest());
}

bool
MarginDriftModel::restore(snapshot::Deserializer &in)
{
    const std::uint64_t saved = in.readU64();
    if (!in.ok())
        return false;
    if (saved != digest()) {
        in.fail("drift-model snapshot belongs to a different drift "
                "realization (config or seed changed)");
        return false;
    }
    return true;
}

} // namespace hdmr::margin
