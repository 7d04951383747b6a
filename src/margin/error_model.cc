#include "margin/error_model.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace hdmr::margin
{

ErrorRateModel::ErrorRateModel(ErrorModelParams params) : params_(params)
{
}

unsigned
ErrorRateModel::stableRateAt(const MemoryModule &module,
                             const OperatingPoint &op) const
{
    unsigned stable = module.maxStableRateMts;

    if (op.voltage > 1.3 && module.respondsToOvervolt)
        stable += params_.stepMts;

    if (op.ambientC >= 45.0) {
        const bool drops = op.latencyMarginsExploited
                               ? module.marginDropsWhenHotWithLatency
                               : module.marginDropsWhenHot;
        if (drops) {
            stable = stable > params_.stepMts ? stable - params_.stepMts
                                              : 0;
        }
    }
    // Exploiting the conservative latency-margin combination at room
    // temperature leaves the frequency margin unchanged (Section II-A).
    return stable;
}

unsigned
ErrorRateModel::bootableRateAt(const MemoryModule &module,
                               const OperatingPoint &op) const
{
    const unsigned stable23 = module.maxStableRateMts;
    const unsigned stable_now = stableRateAt(module, op);
    // The boot ceiling tracks the stable rate's corner-case shifts.
    return module.maxBootableRateMts - (stable23 - std::min(stable23,
                                                            stable_now));
}

double
ErrorRateModel::errorsPerHour(const MemoryModule &module,
                              const OperatingPoint &op) const
{
    const unsigned stable = stableRateAt(module, op);
    if (op.dataRateMts <= stable) {
        // 99.999%+ of accesses correct: essentially silent in a
        // one-hour test.
        return 0.002 * op.accessIntensity;
    }

    const double overshoot_steps =
        static_cast<double>(op.dataRateMts - stable) /
        static_cast<double>(params_.stepMts);

    double rate = params_.baseErrorsPerHour * module.errorIntensity *
                  std::pow(params_.growthPerStep, overshoot_steps - 1.0);

    if (op.latencyMarginsExploited)
        rate *= params_.latencyFactor;

    if (op.ambientC >= 45.0) {
        rate *= op.latencyMarginsExploited ? params_.hotFactorFreqLat
                                           : params_.hotFactorFreq;
    }

    return rate * op.accessIntensity;
}

double
ErrorRateModel::errorProbabilityPerRead(const MemoryModule &module,
                                        const OperatingPoint &op) const
{
    const double hourly = errorsPerHour(module, op);
    return std::min(1.0, hourly / (kStressAccessesPerHour *
                                   op.accessIntensity));
}

ErrorPatternMix
ErrorRateModel::patternMix(const MemoryModule &module,
                           const OperatingPoint &op) const
{
    // Modeling assumption (no published per-pattern breakdown exists):
    // at one overshoot step errors are overwhelmingly narrow - 55%
    // single-bit, 30% single-byte, 13% multi-byte bursts, 2% wide
    // command/address mishaps.  Each further step doubles the wide
    // share (capped at 20%) and grows the burst share 1.5x (capped at
    // 30%), eating proportionally into the narrow classes.
    const unsigned stable = stableRateAt(module, op);
    const double overshoot_steps =
        op.dataRateMts > stable
            ? static_cast<double>(op.dataRateMts - stable) /
                  static_cast<double>(params_.stepMts)
            : 0.0;
    const double extra_steps = std::max(0.0, overshoot_steps - 1.0);

    double wide = std::min(0.20, 0.02 * std::pow(2.0, extra_steps));
    if (op.latencyMarginsExploited)
        wide = std::min(0.20, wide * 2.0);
    const double multi = std::min(0.30, 0.13 * std::pow(1.5, extra_steps));

    const double narrow = 1.0 - wide - multi;
    ErrorPatternMix mix;
    mix.singleBit = narrow * (0.55 / 0.85);
    mix.singleByte = narrow * (0.30 / 0.85);
    mix.multiByte = multi;
    mix.wideBlock = wide;
    return mix;
}

namespace
{

/** The module as it stands after `hour` hours of drift. */
MemoryModule
wornModule(const MemoryModule &module,
           const TimeVaryingConditions &conditions, double hour)
{
    MemoryModule worn = module;
    const double erosion = conditions.erosionMts(hour);
    const unsigned lost = static_cast<unsigned>(
        std::min(erosion, static_cast<double>(worn.maxStableRateMts)));
    worn.maxStableRateMts -= lost;
    worn.maxBootableRateMts -= std::min(worn.maxBootableRateMts, lost);
    return worn;
}

} // namespace

unsigned
ErrorRateModel::stableRateAt(const MemoryModule &module,
                             const TimeVaryingConditions &conditions,
                             double hour) const
{
    return stableRateAt(wornModule(module, conditions, hour),
                        conditions.at(hour));
}

double
ErrorRateModel::errorsPerHourAt(const MemoryModule &module,
                                const TimeVaryingConditions &conditions,
                                double hour) const
{
    return errorsPerHour(wornModule(module, conditions, hour),
                         conditions.at(hour));
}

double
ErrorRateModel::errorProbabilityPerReadAt(
    const MemoryModule &module, const TimeVaryingConditions &conditions,
    double hour) const
{
    return errorProbabilityPerRead(wornModule(module, conditions, hour),
                                   conditions.at(hour));
}

} // namespace hdmr::margin
