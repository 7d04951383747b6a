#include "verify/audit.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "margin/population.hh"
#include "snapshot/serializer.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace hdmr::verify
{

namespace
{

/** SplitMix64 finalizer, used to chain the config fingerprint. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

constexpr util::Tick kTicksPerHour = 3600ull * util::kTicksPerSec;

} // namespace

util::Status
SdcAuditConfig::validate() const
{
    if (modules == 0)
        return util::invalidArgument(
            "sdc audit config: modules must be positive");
    if (hours == 0)
        return util::invalidArgument(
            "sdc audit config: hours must be positive");
    if (!std::isfinite(accessesPerHour) || accessesPerHour < 1.0)
        return util::invalidArgument(
            "sdc audit config: accessesPerHour %g must be finite and "
            ">= 1",
            accessesPerHour);
    if (overshootSteps > 16)
        return util::invalidArgument(
            "sdc audit config: overshootSteps %u is past any bootable "
            "rate",
            overshootSteps);
    if (!(wideOversample >= 0.0) || !(wideOversample < 1.0))
        return util::invalidArgument(
            "sdc audit config: wideOversample %g must be in [0, 1)",
            wideOversample);
    if (!(escapeLambda >= 0.0) || !(escapeLambda < 1.0))
        return util::invalidArgument(
            "sdc audit config: escapeLambda %g must be in [0, 1)",
            escapeLambda);
    if (epoch.epochLength == 0)
        return util::invalidArgument(
            "sdc audit config: epoch length must be positive");
    const double epochs =
        static_cast<double>(hours) *
        static_cast<double>(kTicksPerHour) /
        static_cast<double>(epoch.epochLength);
    if (epochs > 1.0e6)
        return util::invalidArgument(
            "sdc audit config: %g epochs over the horizon; shorten "
            "the run or lengthen the epoch",
            epochs);
    HDMR_RETURN_IF_ERROR(oracle.validate());
    HDMR_RETURN_IF_ERROR(bursts.validate());
    for (std::size_t i = 0; i < scheduleOverlay.size(); ++i) {
        const fault::FaultEvent &ev = scheduleOverlay[i];
        if (!std::isfinite(ev.atSeconds) || ev.atSeconds < 0.0)
            return util::invalidArgument(
                "sdc audit config: scheduleOverlay[%zu].atSeconds %g "
                "must be finite and >= 0",
                i, ev.atSeconds);
        if (!std::isfinite(ev.magnitude) || ev.magnitude < 0.0)
            return util::invalidArgument(
                "sdc audit config: scheduleOverlay[%zu].magnitude %g "
                "must be finite and >= 0",
                i, ev.magnitude);
    }
    return util::Status{};
}

double
SdcAuditReport::escapesPerWideError() const
{
    const auto escape = static_cast<unsigned>(AccessClass::kSilentEscape);
    if (total.wideWeight <= 0.0)
        return 0.0;
    // Miscorrection escapes come from the recovery decode, not from
    // the detection-only read the 2^-64 bound is about; take them out
    // of the numerator so the estimator targets the codec's quantity.
    const double detection_escapes = std::max(
        0.0, total.weighted[escape] - total.miscorrectionWeight);
    return detection_escapes / total.wideWeight;
}

double
SdcAuditReport::measuredEscapeRate() const
{
    const auto escape = static_cast<unsigned>(AccessClass::kSilentEscape);
    const double accesses = total.weightTotal();
    if (accesses <= 0.0)
        return 0.0;
    return total.weighted[escape] / accesses;
}

double
SdcAuditReport::projectedMttSdcYears(double accesses_per_hour) const
{
    const double rate = measuredEscapeRate() * accesses_per_hour;
    if (rate <= 0.0)
        return std::numeric_limits<double>::infinity();
    return 1.0 / (rate * 24.0 * 365.25);
}

bool
SdcAuditReport::escapeConsistentWith(double expected,
                                     double tolerance) const
{
    hdmr_assert(expected > 0.0 && tolerance >= 1.0);
    const double measured = escapesPerWideError();
    return measured >= expected / tolerance &&
           measured <= expected * tolerance;
}

SdcAudit::SdcAudit(const SdcAuditConfig &config)
    : config_(config),
      model_(config.errorModel),
      oracle_(codec_, config.oracle),
      sampler_(codec_, config.escapeLambda)
{
    util::checkOk(config_.validate());

    margin::ModulePopulation population(config_.seed);
    fleet_ = population.sampleFleet(margin::ModuleSpec{}, config_.modules);

    util::Rng master(mix64(config_.seed ^ 0x5dca0d17ULL));
    modules_.reserve(config_.modules);
    for (unsigned m = 0; m < config_.modules; ++m)
        modules_.emplace_back(config_.epoch, master.fork());

    // Expand the burst overlay up front: the schedule is a pure
    // function of the campaign config, so it carries no mutable state
    // into snapshots.
    burstErrors_.assign(config_.modules,
                        std::vector<double>(config_.hours, 0.0));
    auto fold_burst = [this](const fault::FaultEvent &ev) {
        if (ev.kind != fault::FaultKind::kErrorBurst)
            return;
        const unsigned module = ev.target % config_.modules;
        const auto hour =
            static_cast<std::uint64_t>(ev.atSeconds / 3600.0);
        if (hour < config_.hours)
            burstErrors_[module][hour] += ev.magnitude;
    };
    if (config_.bursts.enabled()) {
        fault::FaultCampaign campaign(config_.bursts);
        for (const fault::FaultEvent &ev :
             campaign.schedule(fault::FaultKind::kErrorBurst))
            fold_burst(ev);
    }
    for (const fault::FaultEvent &ev : config_.scheduleOverlay)
        fold_burst(ev);
}

OracleCounters &
SdcAudit::epochSlot(std::uint64_t epoch_index)
{
    if (epochs_.size() <= epoch_index)
        epochs_.resize(epoch_index + 1);
    return epochs_[epoch_index];
}

void
SdcAudit::processModuleHour(unsigned module_index, std::uint64_t hour)
{
    const margin::MemoryModule &module = fleet_[module_index];
    ModuleState &st = modules_[module_index];

    margin::OperatingPoint op;
    op.dataRateMts =
        model_.stableRateAt(module, op) +
        config_.overshootSteps * config_.errorModel.stepMts;

    const double error_probability =
        model_.errorProbabilityPerRead(module, op);
    const auto accesses =
        static_cast<std::uint64_t>(config_.accessesPerHour);

    std::uint64_t errors =
        st.rng.poisson(error_probability * config_.accessesPerHour);
    errors += static_cast<std::uint64_t>(
        std::llround(burstErrors_[module_index][hour]));
    errors = std::min(errors, accesses);

    // Clean accesses never reach the codec: under the per-read error
    // model they are exactly the non-erroneous draws, so they can be
    // accounted analytically in bulk.  This is what lets the audit
    // model billions of accesses while only decoding thousands.
    const util::Tick hour_start = hour * kTicksPerHour;
    st.counters.addBulkClean(accesses - errors);
    epochSlot(hour_start / config_.epoch.epochLength)
        .addBulkClean(accesses - errors);

    if (errors == 0)
        return;

    // Arrival ticks within the hour, sorted so the epoch guard sees a
    // monotonic clock.
    std::vector<util::Tick> ticks(errors);
    for (auto &tick : ticks)
        tick = hour_start + st.rng.uniformInt(0, kTicksPerHour - 1);
    std::sort(ticks.begin(), ticks.end());

    // Proposal over corruption shapes: the natural mix with the wide
    // tail boosted to at least `wideOversample`, undone per draw by a
    // likelihood ratio so weighted counts estimate the nominal campaign.
    const margin::ErrorPatternMix mix = model_.patternMix(module, op);
    const double wide_proposal =
        std::max(mix.wideBlock, config_.wideOversample);
    const double wide_weight = mix.wideBlock / wide_proposal;
    const double narrow_weight =
        (1.0 - mix.wideBlock) / (1.0 - wide_proposal);
    const double narrow_total =
        mix.singleBit + mix.singleByte + mix.multiByte;

    for (const util::Tick tick : ticks) {
        // A fresh 64-byte-aligned block address per access; the oracle
        // derives the ground-truth payload from it deterministically.
        const std::uint64_t address = st.rng.next() & ~0x3fULL;

        ShadowMemoryOracle::Outcome outcome;
        if (st.rng.bernoulli(wide_proposal)) {
            const auto width =
                static_cast<unsigned>(st.rng.uniformInt(9, 40));
            const WideErrorDraw draw = sampler_.sample(width, st.rng);
            outcome = oracle_.classifyWide(address, draw, wide_weight,
                                           st.counters, st.rng);
        } else {
            const double r = st.rng.uniform() * narrow_total;
            const ecc::ErrorPattern pattern =
                r < mix.singleBit ? ecc::ErrorPattern::kSingleBit
                : r < mix.singleBit + mix.singleByte
                    ? ecc::ErrorPattern::kSingleByte
                    : ecc::ErrorPattern::kMultiByte;
            outcome = oracle_.classifyPattern(
                address, pattern, narrow_weight, st.counters, st.rng);
        }

        epochSlot(tick / config_.epoch.epochLength)
            .count(outcome.cls, outcome.weight);

        // Only *detected* errors reach the guard - silent escapes are,
        // by definition, invisible to it.  That asymmetry is exactly
        // what the audit exists to measure.
        if (outcome.cls == AccessClass::kDetectedRecovered ||
            outcome.cls == AccessClass::kDetectedUe) {
            st.guard.recordError(tick);
        }
    }
}

bool
SdcAudit::step()
{
    if (done())
        return false;
    const auto module =
        static_cast<unsigned>(cursor_ % config_.modules);
    const std::uint64_t hour = cursor_ / config_.modules;
    processModuleHour(module, hour);
    ++cursor_;
    return !done();
}

void
SdcAudit::run()
{
    while (!done())
        step();
}

SdcAuditReport
SdcAudit::report() const
{
    SdcAuditReport report;
    for (const ModuleState &st : modules_) {
        report.total.merge(st.counters);
        report.detectedErrors += st.guard.totalErrors();
        report.guardTrips += st.guard.trips();
    }
    report.modeledHours = static_cast<double>(cursor_);
    for (const OracleCounters &epoch : epochs_) {
        if (epoch.rawTotal() > 0)
            ++report.epochsObserved;
    }
    return report;
}

void
SdcAudit::publishTelemetry(telemetry::Registry &registry,
                           const std::string &prefix) const
{
    const SdcAuditReport rep = report();
    for (unsigned cls = 0; cls < kAccessClassCount; ++cls) {
        registry
            .counter(prefix + ".class." +
                     accessClassName(static_cast<AccessClass>(cls)))
            .set(rep.total.raw[cls]);
    }
    registry.counter(prefix + ".unclassified")
        .set(rep.total.unclassified);
    registry.counter(prefix + ".wide_draws").set(rep.total.wideDraws);
    registry.counter(prefix + ".null_space_draws")
        .set(rep.total.nullSpaceDraws);
    registry.counter(prefix + ".retry_attempts")
        .set(rep.total.retryAttempts);
    registry.counter(prefix + ".retried_recoveries")
        .set(rep.total.retriedRecoveries);
    registry.counter(prefix + ".miscorrections")
        .set(rep.total.miscorrections);
    registry.counter(prefix + ".escapes.critical_page")
        .set(rep.total.escapesByPageClass[0]);
    registry.counter(prefix + ".escapes.tolerant_page")
        .set(rep.total.escapesByPageClass[1]);
    registry.counter(prefix + ".detected_errors")
        .set(rep.detectedErrors);
    registry.counter(prefix + ".guard_trips").set(rep.guardTrips);
    registry.gauge(prefix + ".modeled_hours").set(rep.modeledHours);
    registry.gauge(prefix + ".escapes_per_wide_error")
        .set(rep.escapesPerWideError());
}

std::uint64_t
SdcAudit::configFingerprint() const
{
    std::uint64_t fp = 0x53444341u; // "SDCA"
    const std::uint64_t fields[] = {
        config_.seed,
        config_.modules,
        config_.hours,
        doubleBits(config_.accessesPerHour),
        config_.overshootSteps,
        doubleBits(config_.wideOversample),
        doubleBits(config_.escapeLambda),
        doubleBits(config_.errorModel.baseErrorsPerHour),
        doubleBits(config_.errorModel.growthPerStep),
        doubleBits(config_.errorModel.uncorrectableFraction),
        config_.errorModel.stepMts,
        config_.oracle.payloadSeed,
        config_.oracle.retryAttempts,
        doubleBits(config_.oracle.originalErrorProbability),
        doubleBits(config_.oracle.tolerantPageFraction),
        config_.oracle.criticalitySeed,
        config_.epoch.epochLength,
        doubleBits(config_.epoch.mttSdcYears),
        doubleBits(config_.bursts.intensity),
        config_.bursts.seed,
        doubleBits(config_.bursts.burstsPerHour),
        doubleBits(config_.bursts.burstErrorsMean),
        doubleBits(config_.bursts.horizonSeconds),
        config_.bursts.targets,
    };
    for (std::uint64_t field : fields)
        fp = mix64(fp ^ field);
    fp = mix64(fp ^ config_.scheduleOverlay.size());
    for (const fault::FaultEvent &ev : config_.scheduleOverlay) {
        fp = mix64(fp ^ doubleBits(ev.atSeconds));
        fp = mix64(fp ^ static_cast<std::uint64_t>(ev.kind));
        fp = mix64(fp ^ ev.target);
        fp = mix64(fp ^ doubleBits(ev.magnitude));
        fp = mix64(fp ^ doubleBits(ev.durationSeconds));
    }
    return fp;
}

void
SdcAudit::saveState(snapshot::Serializer &out) const
{
    out.writeU64(configFingerprint());
    out.writeU64(cursor_);
    for (const ModuleState &st : modules_) {
        const util::RngState rng = st.rng.state();
        for (std::uint64_t word : rng.s)
            out.writeU64(word);
        out.writeBool(rng.hasSpareNormal);
        out.writeDouble(rng.spareNormal);
        st.counters.save(out);
        st.guard.saveState(out);
    }
    out.writeU32(static_cast<std::uint32_t>(epochs_.size()));
    for (const OracleCounters &epoch : epochs_)
        epoch.save(out);
}

bool
SdcAudit::restoreState(snapshot::Deserializer &in)
{
    const std::uint64_t fp = in.readU64();
    if (in.ok() && fp != configFingerprint()) {
        in.fail("sdc audit snapshot: config fingerprint mismatch "
                "(snapshot belongs to a different campaign)");
        return false;
    }
    const std::uint64_t cursor = in.readU64();
    if (in.ok() && cursor > totalSteps()) {
        in.fail("sdc audit snapshot: cursor past end of campaign");
        return false;
    }
    for (ModuleState &st : modules_) {
        util::RngState rng;
        for (std::uint64_t &word : rng.s)
            word = in.readU64();
        rng.hasSpareNormal = in.readBool();
        rng.spareNormal = in.readDouble();
        st.rng.setState(rng);
        st.counters = OracleCounters{};
        st.counters.restore(in);
        if (!st.guard.restoreState(in))
            return false;
    }
    const std::uint32_t epoch_count = in.readU32();
    if (in.ok() && epoch_count > 1'000'000u) {
        in.fail("sdc audit snapshot: implausible epoch count");
        return false;
    }
    epochs_.assign(epoch_count, OracleCounters{});
    for (OracleCounters &epoch : epochs_)
        epoch.restore(in);
    if (!in.ok())
        return false;
    cursor_ = cursor;
    return true;
}

util::Status
SdcAudit::saveToFile(const std::string &path) const
{
    snapshot::Serializer out;
    saveState(out);
    return snapshot::writeSnapshotFile(path, snapshot::kSdcAuditStateKind,
                                       out.data());
}

util::Status
SdcAudit::resumeFromFile(const std::string &path)
{
    std::vector<std::uint8_t> payload;
    HDMR_RETURN_IF_ERROR(snapshot::readSnapshotFile(
        path, snapshot::kSdcAuditStateKind, &payload));
    snapshot::Deserializer in(payload);
    if (!restoreState(in)) {
        if (!in.ok() &&
            in.error().find("fingerprint mismatch") != std::string::npos)
            return util::failedPrecondition("%s", in.error().c_str());
        return in.ok() ? util::dataLoss(
                             "sdc audit snapshot: state mismatch")
                       : in.status();
    }
    if (in.remaining() != 0)
        return util::dataLoss("sdc audit snapshot: trailing bytes");
    return util::Status{};
}

} // namespace hdmr::verify
