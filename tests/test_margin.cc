/**
 * @file
 * Tests for the margin library: population calibration against the
 * paper's published statistics (Figs. 2-4), test-machine measurement
 * semantics (platform cap, quantization, overvolting), the error-rate
 * model's temperature/latency factors (Fig. 6), and the Monte-Carlo
 * channel/node margin distributions (Fig. 11).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "margin/drift.hh"
#include "margin/error_model.hh"
#include "margin/module.hh"
#include "margin/monte_carlo.hh"
#include "margin/population.hh"
#include "margin/study.hh"
#include "margin/test_machine.hh"
#include "snapshot/serializer.hh"
#include "util/status.hh"

namespace
{

using namespace hdmr::margin;

std::vector<MemoryModule>
studyFleet()
{
    return makeStudyFleet(2021);
}

TestMachine
roomTempMachine(std::uint64_t seed = 7)
{
    return TestMachine(TestMachineConfig{}, seed);
}

// --------------------------------------------------------------------
// Population composition
// --------------------------------------------------------------------

TEST(Population, StudyFleetComposition)
{
    const auto fleet = studyFleet();
    ASSERT_EQ(fleet.size(), 119u);

    auto count_if = [&](auto pred) {
        return std::count_if(fleet.begin(), fleet.end(), pred);
    };
    EXPECT_EQ(count_if([](const MemoryModule &m) {
                  return m.spec.brand == Brand::kA;
              }),
              40);
    EXPECT_EQ(count_if([](const MemoryModule &m) {
                  return m.spec.brand == Brand::kB;
              }),
              35);
    EXPECT_EQ(count_if([](const MemoryModule &m) {
                  return m.spec.brand == Brand::kC;
              }),
              28);
    EXPECT_EQ(count_if([](const MemoryModule &m) {
                  return m.spec.brand == Brand::kD;
              }),
              16);
    // 44 modules at 3200 MT/s with 9 chips/rank (Section II-A).
    EXPECT_EQ(count_if([](const MemoryModule &m) {
                  return m.spec.brand != Brand::kD &&
                         m.spec.specRateMts == 3200 &&
                         m.spec.chipsPerRank == 9;
              }),
              44);
    // Total chip count is in the thousands (Table I says 3006).
    unsigned chips = 0;
    for (const auto &m : fleet)
        chips += m.spec.chips();
    EXPECT_GT(chips, 2000u);
}

TEST(Population, DeterministicForSeed)
{
    const auto a = makeStudyFleet(5);
    const auto b = makeStudyFleet(5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].maxStableRateMts, b[i].maxStableRateMts);
        EXPECT_EQ(a[i].errorIntensity, b[i].errorIntensity);
    }
}

TEST(Population, BootableAboveStable)
{
    for (const auto &m : studyFleet())
        EXPECT_GT(m.maxBootableRateMts, m.maxStableRateMts);
}

TEST(Population, InProductionModulesAreA8toA31)
{
    for (const auto &m : studyFleet()) {
        if (m.spec.condition == Condition::kInProduction3Years) {
            EXPECT_EQ(m.spec.brand, Brand::kA);
            EXPECT_GE(m.id, 8u);
            EXPECT_LE(m.id, 31u);
        }
    }
}

// --------------------------------------------------------------------
// Measured statistics vs. the paper (Figs. 2-4)
// --------------------------------------------------------------------

struct MeasuredStudy
{
    std::vector<MemoryModule> fleet;
    std::vector<MarginMeasurement> measurements;
};

const MeasuredStudy &
measuredStudy()
{
    static const MeasuredStudy study = [] {
        MeasuredStudy s;
        s.fleet = studyFleet();
        TestMachine machine = roomTempMachine();
        s.measurements = machine.characterizeFleet(s.fleet);
        return s;
    }();
    return study;
}

TEST(Study, MajorBrandsAverageMarginNear770)
{
    const auto &s = measuredStudy();
    const GroupStats abc = aggregateMargins(
        s.fleet, s.measurements,
        [](const MemoryModule &m) { return m.spec.brand != Brand::kD; },
        "A-C");
    EXPECT_EQ(abc.count, 103u);
    EXPECT_NEAR(abc.meanMarginMts, 770.0, 80.0);
    // "27% when normalized to each module's specified data rate"
    EXPECT_NEAR(abc.meanMarginFraction, 0.27, 0.04);
}

TEST(Study, BrandDAverageMarginNear213)
{
    const auto &s = measuredStudy();
    const GroupStats d = aggregateMargins(
        s.fleet, s.measurements,
        [](const MemoryModule &m) { return m.spec.brand == Brand::kD; },
        "D");
    EXPECT_EQ(d.count, 16u);
    EXPECT_NEAR(d.meanMarginMts, 213.0, 110.0);
    // Major brands are ~2.6x higher.
    const GroupStats abc = aggregateMargins(
        s.fleet, s.measurements,
        [](const MemoryModule &m) { return m.spec.brand != Brand::kD; },
        "A-C");
    EXPECT_GT(abc.meanMarginMts / d.meanMarginMts, 1.8);
}

TEST(Study, MajorBrandsSimilarToEachOther)
{
    const auto &s = measuredStudy();
    const auto groups = groupMargins(
        s.fleet, s.measurements,
        [](const MemoryModule &m) { return toString(m.spec.brand); });
    double lo = 1e9, hi = 0;
    for (const auto &g : groups) {
        if (g.label == "D")
            continue;
        lo = std::min(lo, g.meanMarginMts);
        hi = std::max(hi, g.meanMarginMts);
    }
    EXPECT_LT(hi - lo, 220.0); // similar average margins (Fig. 3a)
}

TEST(Study, NineChipRankTighterThanEighteen)
{
    const auto &s = measuredStudy();
    const GroupStats nine = aggregateMargins(
        s.fleet, s.measurements,
        [](const MemoryModule &m) {
            return m.spec.brand != Brand::kD && m.spec.chipsPerRank == 9;
        },
        "9/rank");
    const GroupStats eighteen = aggregateMargins(
        s.fleet, s.measurements,
        [](const MemoryModule &m) {
            return m.spec.brand != Brand::kD && m.spec.chipsPerRank == 18;
        },
        "18/rank");
    EXPECT_GT(eighteen.stdevMts / nine.stdevMts, 1.4);
    // 9-chip/rank minimum margin is 600 MT/s (Section II-A).
    EXPECT_GE(nine.minMarginMts, 600.0);
}

TEST(Study, SpecRateEffectIncludingPlatformCap)
{
    const auto &s = measuredStudy();
    const GroupStats r2400 = aggregateMargins(
        s.fleet, s.measurements,
        [](const MemoryModule &m) {
            return m.spec.brand != Brand::kD && m.spec.specRateMts == 2400;
        },
        "2400");
    const GroupStats r3200 = aggregateMargins(
        s.fleet, s.measurements,
        [](const MemoryModule &m) {
            return m.spec.brand != Brand::kD && m.spec.specRateMts == 3200;
        },
        "3200");
    EXPECT_NEAR(r2400.meanMarginMts, 967.0, 120.0);
    EXPECT_NEAR(r3200.meanMarginMts, 679.0, 90.0);
    // No 3200 module can measure beyond the 4000 MT/s platform cap.
    for (std::size_t i = 0; i < s.fleet.size(); ++i) {
        EXPECT_LE(s.measurements[i].measuredMaxRateMts, 4000u);
    }
}

TEST(Study, MostNineChip3200ModulesReachTheCap)
{
    const auto &s = measuredStudy();
    unsigned at_cap = 0, total = 0;
    for (std::size_t i = 0; i < s.fleet.size(); ++i) {
        const auto &m = s.fleet[i];
        if (m.spec.brand == Brand::kD || m.spec.specRateMts != 3200 ||
            m.spec.chipsPerRank != 9) {
            continue;
        }
        ++total;
        at_cap += s.measurements[i].measuredMaxRateMts == 4000;
    }
    EXPECT_EQ(total, 44u);
    // Paper: 36 of 44.
    EXPECT_NEAR(static_cast<double>(at_cap), 36.0, 6.0);
}

TEST(Study, AgingHasLittleEffect)
{
    const auto &s = measuredStudy();
    const auto groups = groupMargins(
        s.fleet, s.measurements, [](const MemoryModule &m) {
            return std::string(toString(m.spec.condition));
        });
    // Compare only brand-A-dominated groups is messy; instead check the
    // in-production group against new modules of the same brand A.
    const GroupStats used = aggregateMargins(
        s.fleet, s.measurements,
        [](const MemoryModule &m) {
            return m.spec.condition == Condition::kInProduction3Years;
        },
        "used");
    const GroupStats fresh = aggregateMargins(
        s.fleet, s.measurements,
        [](const MemoryModule &m) {
            return m.spec.brand == Brand::kA &&
                   m.spec.condition == Condition::kNew;
        },
        "new-A");
    EXPECT_GT(groups.size(), 1u);
    EXPECT_LT(std::abs(used.meanMarginMts - fresh.meanMarginMts), 250.0);
}

TEST(Study, TableOneMatchesPaper)
{
    const auto &table = studyScaleTable();
    ASSERT_EQ(table.size(), 7u);
    EXPECT_STREQ(table[0].work, "This Paper");
    EXPECT_STREQ(table[0].modules, "119");
    EXPECT_STREQ(table[0].chips, "3006");
    EXPECT_STREQ(table[0].marginStudied, "frequency");
}

// --------------------------------------------------------------------
// Test machine semantics
// --------------------------------------------------------------------

TEST(TestMachine, MeasurementQuantizedToStep)
{
    const auto &s = measuredStudy();
    for (const auto &meas : s.measurements)
        EXPECT_EQ(meas.marginMts() % 200, 0u);
}

TEST(TestMachine, OvervoltHelpsOnlyBelowCap)
{
    const auto fleet = studyFleet();
    TestMachine machine = roomTempMachine(11);
    TestMachineConfig overvolted;
    overvolted.voltage = 1.35; // the Section II-A experiment
    TestMachine overvolted_machine(overvolted, 12);
    unsigned below_cap_improved = 0, below_cap_total = 0;
    for (const auto &m : fleet) {
        if (m.spec.brand == Brand::kD || m.spec.specRateMts != 3200)
            continue;
        const auto base = machine.characterize(m);
        const auto hot = overvolted_machine.characterize(m);
        if (base.measuredMaxRateMts >= 4000) {
            // Already at the platform cap: 1.35 V cannot show more.
            EXPECT_LE(hot.measuredMaxRateMts, 4000u);
        } else {
            ++below_cap_total;
            below_cap_improved +=
                hot.measuredMaxRateMts > base.measuredMaxRateMts;
        }
    }
    ASSERT_GT(below_cap_total, 0u);
    // Paper: 22 of 27 below-cap modules gain margin at 1.35 V.
    EXPECT_GT(static_cast<double>(below_cap_improved) /
                  static_cast<double>(below_cap_total),
              0.55);
}

TEST(TestMachine, LatencyMarginsDoNotChangeFrequencyMargin)
{
    const auto fleet = studyFleet();
    TestMachineConfig with_lat;
    with_lat.exploitLatencyMargins = true;
    TestMachine base = roomTempMachine(13);
    TestMachine lat(with_lat, 13);
    int diffs = 0;
    for (const auto &m : fleet) {
        if (m.spec.brand == Brand::kD)
            continue;
        diffs += base.characterize(m).marginMts() !=
                 lat.characterize(m).marginMts();
    }
    // Paper: every module keeps the same frequency margin; allow a
    // couple of Poisson-noise flips in the simulated re-measurement.
    EXPECT_LE(diffs, 4);
}

TEST(TestMachine, HotChamberReducesMarginForFewModules)
{
    const auto fleet = studyFleet();
    TestMachineConfig hot_cfg;
    hot_cfg.ambientC = 45.0;
    TestMachine cool = roomTempMachine(17);
    TestMachine hot(hot_cfg, 17);
    int reduced = 0, tested = 0;
    for (const auto &m : fleet) {
        if (m.spec.brand == Brand::kD)
            continue;
        ++tested;
        reduced += hot.characterize(m).marginMts() <
                   cool.characterize(m).marginMts();
    }
    EXPECT_EQ(tested, 103);
    // Paper: 5 of 103 (some measurement noise allowed).
    EXPECT_LE(reduced, 14);
    EXPECT_GE(reduced, 1);
}

// --------------------------------------------------------------------
// Error-rate model (Fig. 6)
// --------------------------------------------------------------------

TEST(ErrorModel, SilentBelowStableRate)
{
    const auto fleet = studyFleet();
    const ErrorRateModel model;
    for (const auto &m : fleet) {
        OperatingPoint op;
        op.dataRateMts = m.maxStableRateMts;
        EXPECT_LT(model.errorsPerHour(m, op), 0.1);
    }
}

TEST(ErrorModel, GrowsWithOvershoot)
{
    const auto fleet = studyFleet();
    const ErrorRateModel model;
    const auto &m = fleet.front();
    OperatingPoint one, two;
    one.dataRateMts = m.maxStableRateMts + 200;
    two.dataRateMts = m.maxStableRateMts + 400;
    EXPECT_GT(model.errorsPerHour(m, two),
              10.0 * model.errorsPerHour(m, one));
}

TEST(ErrorModel, HotAmbientQuadruplesFrequencyErrorRate)
{
    const auto fleet = studyFleet();
    const ErrorRateModel model;
    // Use a module without hot-margin loss so the rate factor is pure.
    const auto it = std::find_if(fleet.begin(), fleet.end(),
                                 [](const MemoryModule &m) {
                                     return !m.marginDropsWhenHot &&
                                            !m.marginDropsWhenHotWithLatency;
                                 });
    ASSERT_NE(it, fleet.end());
    OperatingPoint cool, hot;
    cool.dataRateMts = hot.dataRateMts = it->maxBootableRateMts;
    hot.ambientC = 45.0;
    EXPECT_DOUBLE_EQ(model.errorsPerHour(*it, hot),
                     4.0 * model.errorsPerHour(*it, cool));
}

TEST(ErrorModel, HotAmbientDoublesFreqLatErrorRate)
{
    const auto fleet = studyFleet();
    const ErrorRateModel model;
    const auto it = std::find_if(fleet.begin(), fleet.end(),
                                 [](const MemoryModule &m) {
                                     return !m.marginDropsWhenHotWithLatency;
                                 });
    ASSERT_NE(it, fleet.end());
    OperatingPoint cool, hot;
    cool.dataRateMts = hot.dataRateMts = it->maxBootableRateMts;
    cool.latencyMarginsExploited = hot.latencyMarginsExploited = true;
    hot.ambientC = 45.0;
    EXPECT_DOUBLE_EQ(model.errorsPerHour(*it, hot),
                     2.0 * model.errorsPerHour(*it, cool));
}

TEST(ErrorModel, FullSystemSeesHalfPerModuleRate)
{
    const auto fleet = studyFleet();
    const ErrorRateModel model;
    const auto &m = fleet.front();
    OperatingPoint solo, shared;
    solo.dataRateMts = shared.dataRateMts = m.maxBootableRateMts;
    shared.accessIntensity = 0.5;
    EXPECT_DOUBLE_EQ(model.errorsPerHour(m, shared),
                     0.5 * model.errorsPerHour(m, solo));
}

TEST(ErrorModel, ErrorProbabilityPerReadIsTiny)
{
    const auto fleet = studyFleet();
    const ErrorRateModel model;
    for (const auto &m : fleet) {
        OperatingPoint op;
        op.dataRateMts = m.maxStableRateMts;
        const double p = model.errorProbabilityPerRead(m, op);
        EXPECT_GE(p, 0.0);
        EXPECT_LT(p, 1e-6);
    }
}

TEST(ErrorModel, StressTestCountsFollowModel)
{
    const auto fleet = studyFleet();
    TestMachine machine = roomTempMachine(19);
    const ErrorRateModel model;
    // At the margin edge errors should usually be non-zero and split
    // between CE and UE roughly 70/30.
    std::uint64_t ce = 0, ue = 0;
    for (const auto &m : fleet) {
        const auto result = machine.stressAtMarginEdge(m);
        if (!result)
            continue;
        ce += result->correctedErrors;
        ue += result->uncorrectedErrors;
    }
    ASSERT_GT(ce + ue, 100u);
    const double ue_frac =
        static_cast<double>(ue) / static_cast<double>(ce + ue);
    EXPECT_NEAR(ue_frac, 0.3, 0.1);
}

// --------------------------------------------------------------------
// Monte Carlo (Fig. 11)
// --------------------------------------------------------------------

TEST(MonteCarlo, ModuleMarginQuantizedAndCapped)
{
    MonteCarloConfig cfg;
    hdmr::util::Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const unsigned m = sampleModuleMargin(cfg, rng);
        EXPECT_EQ(m % cfg.quantStepMts, 0u);
        EXPECT_LE(m, cfg.marginCapMts);
    }
}

TEST(MonteCarlo, ChannelFractionsMatchFig11)
{
    MonteCarloConfig aware, unaware;
    unaware.marginAware = false;
    const auto aware_dist = channelMarginDistribution(aware, 42);
    const auto unaware_dist = channelMarginDistribution(unaware, 42);
    // Paper: 96% (aware) and 80% (unaware) of channels >= 0.8 GT/s.
    EXPECT_NEAR(aware_dist.fractionAtLeast(800), 0.96, 0.03);
    EXPECT_NEAR(unaware_dist.fractionAtLeast(800), 0.80, 0.04);
}

TEST(MonteCarlo, NodeFractionsMatchFig11)
{
    MonteCarloConfig aware, unaware;
    unaware.marginAware = false;
    const auto aware_dist = nodeMarginDistribution(aware, 43);
    const auto unaware_dist = nodeMarginDistribution(unaware, 43);
    // Paper: aware 62% >= 0.8 GT/s and 98% >= 0.6; unaware 7% and 96%.
    EXPECT_NEAR(aware_dist.fractionAtLeast(800), 0.62, 0.08);
    EXPECT_GT(aware_dist.fractionAtLeast(600), 0.93);
    EXPECT_NEAR(unaware_dist.fractionAtLeast(800), 0.07, 0.05);
    EXPECT_GT(unaware_dist.fractionAtLeast(600), 0.85);
}

TEST(MonteCarlo, AwareDominatesUnaware)
{
    MonteCarloConfig aware, unaware;
    unaware.marginAware = false;
    const auto a = nodeMarginDistribution(aware, 44);
    const auto u = nodeMarginDistribution(unaware, 44);
    for (unsigned margin : {200u, 400u, 600u, 800u})
        EXPECT_GE(a.fractionAtLeast(margin) + 1e-9,
                  u.fractionAtLeast(margin));
}

TEST(MonteCarlo, NodeGroupsSumToOne)
{
    MonteCarloConfig cfg;
    cfg.trials = 50000;
    const auto groups = nodeMarginGroups(cfg, 45);
    EXPECT_NEAR(groups.at800 + groups.at600 + groups.at0, 1.0, 1e-9);
    EXPECT_GT(groups.at800, 0.5);
    EXPECT_LT(groups.at0, 0.1);
}

// --------------------------------------------------------------------
// Time-varying margin drift
// --------------------------------------------------------------------

DriftConfig
referenceDrift()
{
    DriftConfig config;
    config.seed = 0xd21f7u;
    config.modules = 16;
    config.horizonHours = 2000.0;
    config.agingMtsPerKiloHour = 150.0;
    config.agingSigma = 0.5;
    config.cohortSize = 4;
    config.cohortCorrelation = 0.5;
    config.diurnalAmplitudeC = 12.0;
    config.diurnalPeakHour = 14.0;
    config.spikesPerKiloHour = 5.0;
    config.spikeMeanHours = 0.25;
    config.spikeErrorMultiplier = 6.0;
    return config;
}

TEST(Drift, ValidateRejectsBadConfig)
{
    const auto expect_invalid = [](const hdmr::util::Status &status,
                                   const char *field) {
        EXPECT_EQ(status.code(),
                  hdmr::util::StatusCode::kInvalidArgument)
            << status.message();
        EXPECT_NE(status.message().find(field), std::string::npos)
            << status.message();
    };
    DriftConfig config = referenceDrift();
    config.modules = 0;
    expect_invalid(config.validate(), "modules");
    config = referenceDrift();
    config.agingMtsPerKiloHour = -1.0;
    expect_invalid(config.validate(), "agingMtsPerKiloHour");
    config = referenceDrift();
    config.agingExponent = 0.0;
    expect_invalid(config.validate(), "agingExponent");
    config = referenceDrift();
    config.cohortCorrelation = 1.5;
    expect_invalid(config.validate(), "cohortCorrelation");
    config = referenceDrift();
    config.diurnalPeakHour = 24.0;
    expect_invalid(config.validate(), "diurnalPeakHour");
    config = referenceDrift();
    config.spikeMeanHours = 0.0;
    expect_invalid(config.validate(), "spikeMeanHours");
    config = referenceDrift();
    config.spikeErrorMultiplier = 0.5;
    expect_invalid(config.validate(), "spikeErrorMultiplier");
    // Construction still dies on a bad config (checkOk boundary).
    config = referenceDrift();
    config.modules = 0;
    EXPECT_EXIT(MarginDriftModel model(config),
                ::testing::ExitedWithCode(1), "modules");
}

TEST(Drift, RealizationIsDeterministic)
{
    const MarginDriftModel a(referenceDrift());
    const MarginDriftModel b(referenceDrift());
    ASSERT_EQ(a.config().modules, b.config().modules);
    for (unsigned m = 0; m < a.config().modules; ++m) {
        EXPECT_DOUBLE_EQ(a.agingRateMtsPerKiloHour(m),
                         b.agingRateMtsPerKiloHour(m));
        EXPECT_EQ(a.spikes(m).size(), b.spikes(m).size());
    }
    EXPECT_EQ(a.digest(), b.digest());

    auto other = referenceDrift();
    other.seed ^= 1;
    const MarginDriftModel c(other);
    EXPECT_NE(a.digest(), c.digest());
}

TEST(Drift, FleetGrowthPreservesExistingCurves)
{
    // Per-module forked streams: enlarging the fleet must not perturb
    // the modules that were already in it.
    auto small = referenceDrift();
    small.modules = 8;
    auto large = referenceDrift();
    large.modules = 16;
    const MarginDriftModel a(small);
    const MarginDriftModel b(large);
    for (unsigned m = 0; m < small.modules; ++m) {
        EXPECT_DOUBLE_EQ(a.agingRateMtsPerKiloHour(m),
                         b.agingRateMtsPerKiloHour(m));
        ASSERT_EQ(a.spikes(m).size(), b.spikes(m).size());
        for (size_t i = 0; i < a.spikes(m).size(); ++i)
            EXPECT_DOUBLE_EQ(a.spikes(m)[i].startHour,
                             b.spikes(m)[i].startHour);
    }
}

TEST(Drift, CohortCorrelationPullsCohortMatesTogether)
{
    // With full correlation, every module in a cohort shares one aging
    // draw; with none, they are independent.
    auto correlated = referenceDrift();
    correlated.cohortCorrelation = 1.0;
    const MarginDriftModel model(correlated);
    for (unsigned c = 0; c < correlated.modules / correlated.cohortSize;
         ++c) {
        const double first =
            model.agingRateMtsPerKiloHour(c * correlated.cohortSize);
        for (unsigned k = 1; k < correlated.cohortSize; ++k)
            EXPECT_DOUBLE_EQ(model.agingRateMtsPerKiloHour(
                                 c * correlated.cohortSize + k),
                             first);
    }

    auto independent = referenceDrift();
    independent.cohortCorrelation = 0.0;
    const MarginDriftModel loose(independent);
    bool varies = false;
    for (unsigned k = 1; k < independent.cohortSize && !varies; ++k)
        varies = loose.agingRateMtsPerKiloHour(k) !=
                 loose.agingRateMtsPerKiloHour(0);
    EXPECT_TRUE(varies);
}

TEST(Drift, ErosionIsMonotoneAndDiurnalPeaksOnSchedule)
{
    const MarginDriftModel model(referenceDrift());
    double last = -1.0;
    for (double hour : {0.0, 100.0, 500.0, 1000.0, 2000.0}) {
        const double erosion = model.erosionMtsAt(0, hour);
        EXPECT_GT(erosion, last);
        last = erosion;
    }
    EXPECT_DOUBLE_EQ(model.erosionMtsAt(0, 0.0), 0.0);

    // Diurnal rise: full amplitude at the peak hour, zero twelve hours
    // opposite, same value every 24 h.
    const double peak = referenceDrift().diurnalPeakHour;
    EXPECT_DOUBLE_EQ(model.ambientDeltaAt(peak),
                     referenceDrift().diurnalAmplitudeC);
    EXPECT_NEAR(model.ambientDeltaAt(peak + 12.0), 0.0, 1e-12);
    EXPECT_NEAR(model.ambientDeltaAt(peak + 48.0),
                model.ambientDeltaAt(peak), 1e-9);
}

TEST(Drift, DriftedOracleDegradesStableRateOverTime)
{
    const auto fleet = studyFleet();
    const ErrorRateModel error_model;
    const MarginDriftModel model(referenceDrift());
    const auto &module = fleet.front();
    OperatingPoint op;
    op.dataRateMts = module.maxStableRateMts;

    const unsigned fresh =
        model.stableRateAt(error_model, module, op, 0, 0.0);
    const unsigned worn =
        model.stableRateAt(error_model, module, op, 0, 2000.0);
    EXPECT_EQ(fresh, error_model.stableRateAt(module, op));
    EXPECT_LT(worn, fresh);

    // Worn module + diurnal peak: errors/hour can only go up relative
    // to the fresh module at the base operating point.
    const double quiet =
        model.errorsPerHourAt(error_model, module, op, 0, 0.0);
    const double strained = model.errorsPerHourAt(
        error_model, module, op, 0, 2000.0 + referenceDrift().diurnalPeakHour);
    EXPECT_GE(strained, quiet);
}

TEST(Drift, SpikeMultiplierOnlyInsideWindows)
{
    const MarginDriftModel model(referenceDrift());
    for (unsigned m = 0; m < model.config().modules; ++m) {
        for (const VoltageSpike &spike : model.spikes(m)) {
            const double inside =
                spike.startHour + spike.durationHours / 2.0;
            EXPECT_GE(model.errorMultiplierAt(m, inside),
                      model.config().spikeErrorMultiplier);
        }
        EXPECT_DOUBLE_EQ(
            model.errorMultiplierAt(m, model.config().horizonHours + 1.0),
            1.0);
    }
}

TEST(Drift, SnapshotFingerprintRoundTripsAndRejectsOtherRealization)
{
    const MarginDriftModel model(referenceDrift());
    hdmr::snapshot::Serializer out;
    model.save(out);

    MarginDriftModel same(referenceDrift());
    hdmr::snapshot::Deserializer in(out.data());
    EXPECT_TRUE(same.restore(in));
    EXPECT_TRUE(in.ok());
    EXPECT_EQ(in.remaining(), 0u);

    auto tweaked = referenceDrift();
    tweaked.seed ^= 1;
    MarginDriftModel other(tweaked);
    hdmr::snapshot::Deserializer reject(out.data());
    EXPECT_FALSE(other.restore(reject));
    EXPECT_FALSE(reject.ok());
}

} // namespace
