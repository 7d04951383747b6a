/**
 * @file
 * Memory-module descriptors for the frequency-margin study.
 *
 * The paper characterizes 119 physical DDR4 RDIMMs.  Here a module is
 * a statistical object: its *spec* fields are what a buyer sees on the
 * label, and its *latent* fields are the ground truth a test machine
 * can only estimate by sweeping data rates (margin/test_machine.hh).
 * Latent fields are calibrated so the measured population reproduces
 * the paper's Figures 2-4 and 6.
 */

#ifndef HDMR_MARGIN_MODULE_HH
#define HDMR_MARGIN_MODULE_HH

#include <cstdint>
#include <string>

namespace hdmr::margin
{

/**
 * Memory brands in the study.  A-C are the three major DRAM chip
 * manufacturers; D is a small module-only vendor with much lower
 * margins (Fig. 3a), excluded from the rest of the paper.
 */
enum class Brand : std::uint8_t
{
    kA,
    kB,
    kC,
    kD,
};

/** Condition of a module when it entered the study (Fig. 4a). */
enum class Condition : std::uint8_t
{
    kNew,
    kInProduction3Years, ///< pulled from a 3-year-old cluster
    kRefurbished,
};

const char *toString(Brand brand);
const char *toString(Condition condition);

/** Label-visible module parameters. */
struct ModuleSpec
{
    Brand brand = Brand::kA;
    unsigned specRateMts = 3200;    ///< manufacturer-specified data rate
    unsigned chipsPerRank = 9;      ///< 9 (x8+ECC) or 18 (x4+ECC)
    unsigned ranksPerModule = 2;    ///< 1 or 2
    unsigned chipDensityGbit = 8;   ///< 4, 8, or 16
    unsigned mfgYear = 2019;        ///< manufacturing date (Fig. 4d)
    Condition condition = Condition::kNew;

    /** Total DRAM chips on the module. */
    unsigned
    chips() const
    {
        return chipsPerRank * ranksPerModule;
    }
};

/**
 * A module instance: spec plus latent ground truth.
 *
 * `maxStableRateMts` is the highest data rate at which 99.999%+ of
 * accesses are error-free at 23 degC / 1.2 V - i.e. spec rate plus the
 * *frequency margin* the paper measures.  `maxBootableRateMts` is the
 * highest rate at which the system still boots; between the two the
 * module runs but produces errors (the regime Fig. 6 characterizes).
 */
struct MemoryModule
{
    unsigned id = 0;
    ModuleSpec spec;

    // ---- latent ground truth (not directly observable) ----
    unsigned maxStableRateMts = 0;
    unsigned maxBootableRateMts = 0;
    /** Per-module error intensity scale (log-normal across modules). */
    double errorIntensity = 1.0;
    /** Margin shrinks by one step at >= 45 degC ambient (5/103 modules). */
    bool marginDropsWhenHot = false;
    /** Additional shrink when latency margins are also exploited (9/103). */
    bool marginDropsWhenHotWithLatency = false;
    /** Module responds to 1.35 V overvolting with extra margin (22/27). */
    bool respondsToOvervolt = true;

    /** Short identifier like "A17" used in Fig. 6-style output. */
    std::string name() const;
};

/** Result of characterizing one module on a test machine. */
struct MarginMeasurement
{
    unsigned moduleId = 0;
    unsigned specRateMts = 0;
    unsigned measuredMaxRateMts = 0;  ///< highest error-free tested rate
    unsigned maxBootableRateMts = 0;  ///< highest rate that boots
    bool boots = true;                ///< false: did not boot at all

    /** Measured frequency margin in MT/s. */
    unsigned
    marginMts() const
    {
        return measuredMaxRateMts >= specRateMts
                   ? measuredMaxRateMts - specRateMts
                   : 0;
    }

    /** Margin normalized to the spec rate (the paper's "27%"). */
    double
    marginFraction() const
    {
        return static_cast<double>(marginMts()) /
               static_cast<double>(specRateMts);
    }
};

} // namespace hdmr::margin

#endif // HDMR_MARGIN_MODULE_HH
