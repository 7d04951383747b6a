#include "margin/test_machine.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hdmr::margin
{

TestMachine::TestMachine(TestMachineConfig config, std::uint64_t seed)
    : config_(config), rng_(seed)
{
}

OperatingPoint
TestMachine::operatingPoint(unsigned rate_mts) const
{
    OperatingPoint op;
    op.dataRateMts = rate_mts;
    op.ambientC = config_.ambientC;
    op.voltage = config_.voltage;
    op.latencyMarginsExploited = config_.exploitLatencyMargins;
    op.accessIntensity = 1.0;
    return op;
}

bool
TestMachine::boots(const MemoryModule &module, unsigned rate_mts) const
{
    if (rate_mts > config_.platformCapMts)
        return false;
    return rate_mts <=
           errorModel_.bootableRateAt(module, operatingPoint(rate_mts));
}

StressTestResult
TestMachine::stressTest(const MemoryModule &module, unsigned rate_mts)
{
    StressTestResult result;
    result.booted = boots(module, rate_mts);
    if (!result.booted)
        return result;

    const OperatingPoint op = operatingPoint(rate_mts);
    const double expected_total =
        errorModel_.errorsPerHour(module, op) * config_.stressHours;
    const std::uint64_t total = rng_.poisson(expected_total);
    std::uint64_t uncorrected = 0;
    for (std::uint64_t i = 0; i < total; ++i) {
        uncorrected +=
            rng_.bernoulli(errorModel_.params().uncorrectableFraction);
    }
    result.correctedErrors = total - uncorrected;
    result.uncorrectedErrors = uncorrected;
    return result;
}

MarginMeasurement
TestMachine::characterize(const MemoryModule &module)
{
    MarginMeasurement meas;
    meas.moduleId = module.id;
    meas.specRateMts = module.spec.specRateMts;
    meas.boots = boots(module, module.spec.specRateMts);
    if (!meas.boots)
        return meas;

    unsigned best_error_free = module.spec.specRateMts;
    unsigned best_bootable = module.spec.specRateMts;

    for (unsigned rate = module.spec.specRateMts + config_.stepMts;
         rate <= config_.platformCapMts; rate += config_.stepMts) {
        if (!boots(module, rate))
            break;
        best_bootable = rate;
        const StressTestResult stress = stressTest(module, rate);
        if (stress.totalErrors() == 0)
            best_error_free = rate;
        // Keep climbing even after the first errors: the margin is the
        // *highest* error-free rate, and bootable headroom matters for
        // the Fig. 6 margin-edge methodology.
    }

    meas.measuredMaxRateMts = best_error_free;
    meas.maxBootableRateMts = best_bootable;
    return meas;
}

std::vector<MarginMeasurement>
TestMachine::characterizeFleet(const std::vector<MemoryModule> &fleet)
{
    std::vector<MarginMeasurement> out;
    out.reserve(fleet.size());
    for (const MemoryModule &m : fleet)
        out.push_back(characterize(m));
    return out;
}

std::optional<StressTestResult>
TestMachine::stressAtMarginEdge(const MemoryModule &module)
{
    // Find the highest bootable rate under current conditions.
    unsigned edge = 0;
    for (unsigned rate = module.spec.specRateMts + config_.stepMts;
         rate <= config_.platformCapMts; rate += config_.stepMts) {
        if (!boots(module, rate))
            break;
        edge = rate;
    }
    if (edge == 0)
        return std::nullopt;
    return stressTest(module, edge);
}

} // namespace hdmr::margin
