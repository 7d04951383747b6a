/**
 * @file
 * A simulated characterization testbench mirroring the paper's setup:
 * an (unlocked) server CPU that can sweep memory data rate in 200 MT/s
 * BIOS steps up to a platform ceiling of 4000 MT/s, run stress tests,
 * count CEs/UEs, heat the chamber to 45 degC, raise VDD to 1.35 V, and
 * apply the conservative latency-margin combination of Table II.
 *
 * The machine observes modules only through boots and stress tests -
 * the latent ground truth in MemoryModule never leaks directly - so
 * measurement artifacts like the 4000 MT/s platform cap emerge the
 * same way they did in the paper.
 */

#ifndef HDMR_MARGIN_TEST_MACHINE_HH
#define HDMR_MARGIN_TEST_MACHINE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "margin/error_model.hh"
#include "margin/module.hh"
#include "util/rng.hh"

namespace hdmr::margin
{

/** Testbench configuration. */
struct TestMachineConfig
{
    unsigned stepMts = 200;         ///< BIOS data-rate step granularity
    unsigned platformCapMts = 4000; ///< system-level ceiling (Sec. II-A)
    double ambientC = 23.0;
    double voltage = 1.2;
    bool exploitLatencyMargins = false;
    double stressHours = 1.0;       ///< stress-test duration per step
};

/** Outcome of one stress test. */
struct StressTestResult
{
    bool booted = false;
    std::uint64_t correctedErrors = 0;
    std::uint64_t uncorrectedErrors = 0;

    std::uint64_t
    totalErrors() const
    {
        return correctedErrors + uncorrectedErrors;
    }
};

/** The paper's conservative all-module latency-margin combination. */
struct LatencyMarginCombination
{
    double trcdReduction = 0.16; ///< tRCD 13.75 ns -> 11.5 ns
    double trpReduction = 0.16;  ///< tRP  13.75 ns -> 11 ns
    double trasReduction = 0.09; ///< tRAS 32.5 ns -> 29.5 ns
    double trefiExtension = 0.92; ///< tREFI 7.8 us -> 15 us
};

/** The simulated testbench. */
class TestMachine
{
  public:
    TestMachine(TestMachineConfig config, std::uint64_t seed);

    /** Would the machine boot this module at the given rate? */
    bool boots(const MemoryModule &module, unsigned rate_mts) const;

    /** Run one stress test (config.stressHours long) at a rate. */
    StressTestResult stressTest(const MemoryModule &module,
                                unsigned rate_mts);

    /**
     * Sweep data rate upward from spec in config steps and report the
     * highest rate at which the stress test sees no errors, i.e. the
     * measured frequency margin (Section II-A methodology).
     */
    MarginMeasurement characterize(const MemoryModule &module);

    /** Characterize a whole fleet. */
    std::vector<MarginMeasurement>
    characterizeFleet(const std::vector<MemoryModule> &fleet);

    /**
     * Error rate at the module's highest *bootable* data rate - the
     * Fig. 6 methodology.  Returns nullopt if the module fails to boot
     * even at one step above spec (seen for a few modules at 45 degC).
     */
    std::optional<StressTestResult>
    stressAtMarginEdge(const MemoryModule &module);

    const TestMachineConfig &config() const { return config_; }
    const ErrorRateModel &errorModel() const { return errorModel_; }

  private:
    OperatingPoint operatingPoint(unsigned rate_mts) const;

    TestMachineConfig config_;
    ErrorRateModel errorModel_;
    util::Rng rng_;
};

} // namespace hdmr::margin

#endif // HDMR_MARGIN_TEST_MACHINE_HH
