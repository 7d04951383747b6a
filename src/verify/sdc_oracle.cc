#include "verify/sdc_oracle.hh"

#include <cmath>

#include "snapshot/serializer.hh"
#include "util/logging.hh"
#include "workloads/criticality.hh"

namespace hdmr::verify
{

const char *
accessClassName(AccessClass cls)
{
    switch (cls) {
      case AccessClass::kClean:
        return "clean";
      case AccessClass::kDetectedRecovered:
        return "detected-recovered";
      case AccessClass::kDetectedUe:
        return "detected-ue";
      case AccessClass::kSilentEscape:
        return "silent-escape";
    }
    return "unclassified";
}

void
OracleCounters::count(AccessClass cls, double weight)
{
    const auto idx = static_cast<unsigned>(cls);
    hdmr_assert(idx < kAccessClassCount);
    raw[idx] += 1;
    weighted[idx] += weight;
}

void
OracleCounters::countEscapePageClass(bool tolerant_page, double weight)
{
    const unsigned idx = tolerant_page ? 1 : 0;
    escapesByPageClass[idx] += 1;
    escapeWeightByPageClass[idx] += weight;
}

void
OracleCounters::addBulkClean(std::uint64_t count)
{
    raw[static_cast<unsigned>(AccessClass::kClean)] += count;
    weighted[static_cast<unsigned>(AccessClass::kClean)] +=
        static_cast<double>(count);
}

void
OracleCounters::merge(const OracleCounters &other)
{
    for (unsigned i = 0; i < kAccessClassCount; ++i) {
        raw[i] += other.raw[i];
        weighted[i] += other.weighted[i];
    }
    unclassified += other.unclassified;
    wideDraws += other.wideDraws;
    nullSpaceDraws += other.nullSpaceDraws;
    wideWeight += other.wideWeight;
    retryAttempts += other.retryAttempts;
    retriedRecoveries += other.retriedRecoveries;
    miscorrections += other.miscorrections;
    miscorrectionWeight += other.miscorrectionWeight;
    for (unsigned i = 0; i < 2; ++i) {
        escapesByPageClass[i] += other.escapesByPageClass[i];
        escapeWeightByPageClass[i] += other.escapeWeightByPageClass[i];
    }
}

std::uint64_t
OracleCounters::rawTotal() const
{
    std::uint64_t total = 0;
    for (unsigned i = 0; i < kAccessClassCount; ++i)
        total += raw[i];
    return total;
}

double
OracleCounters::weightTotal() const
{
    double total = 0.0;
    for (unsigned i = 0; i < kAccessClassCount; ++i)
        total += weighted[i];
    return total;
}

void
OracleCounters::save(snapshot::Serializer &out) const
{
    for (unsigned i = 0; i < kAccessClassCount; ++i)
        out.writeU64(raw[i]);
    for (unsigned i = 0; i < kAccessClassCount; ++i)
        out.writeDouble(weighted[i]);
    out.writeU64(unclassified);
    out.writeU64(wideDraws);
    out.writeU64(nullSpaceDraws);
    out.writeDouble(wideWeight);
    out.writeU64(retryAttempts);
    out.writeU64(retriedRecoveries);
    out.writeU64(miscorrections);
    out.writeDouble(miscorrectionWeight);
    for (unsigned i = 0; i < 2; ++i)
        out.writeU64(escapesByPageClass[i]);
    for (unsigned i = 0; i < 2; ++i)
        out.writeDouble(escapeWeightByPageClass[i]);
}

void
OracleCounters::restore(snapshot::Deserializer &in)
{
    for (unsigned i = 0; i < kAccessClassCount; ++i)
        raw[i] = in.readU64();
    for (unsigned i = 0; i < kAccessClassCount; ++i)
        weighted[i] = in.readDouble();
    unclassified = in.readU64();
    wideDraws = in.readU64();
    nullSpaceDraws = in.readU64();
    wideWeight = in.readDouble();
    retryAttempts = in.readU64();
    retriedRecoveries = in.readU64();
    miscorrections = in.readU64();
    miscorrectionWeight = in.readDouble();
    for (unsigned i = 0; i < 2; ++i)
        escapesByPageClass[i] = in.readU64();
    for (unsigned i = 0; i < 2; ++i) {
        escapeWeightByPageClass[i] = in.readDouble();
        if (std::isnan(escapeWeightByPageClass[i]))
            in.fail("oracle counters: non-finite page-class escape "
                    "weight");
    }
    for (unsigned i = 0; i < kAccessClassCount; ++i) {
        if (std::isnan(weighted[i]))
            in.fail("oracle counters: non-finite weighted count");
    }
    if (std::isnan(miscorrectionWeight))
        in.fail("oracle counters: non-finite miscorrection weight");
}

util::Status
OracleConfig::validate() const
{
    if (retryAttempts > 64)
        return util::invalidArgument(
            "oracle config: retryAttempts %u is implausibly large",
            retryAttempts);
    if (!(originalErrorProbability >= 0.0) ||
        !(originalErrorProbability < 1.0)) {
        return util::invalidArgument(
            "oracle config: originalErrorProbability %f must be in "
            "[0, 1)",
            originalErrorProbability);
    }
    if (!(tolerantPageFraction >= 0.0) ||
        !(tolerantPageFraction <= 1.0)) {
        return util::invalidArgument(
            "oracle config: tolerantPageFraction %f must be in "
            "[0, 1]",
            tolerantPageFraction);
    }
    return util::Status{};
}

ShadowMemoryOracle::ShadowMemoryOracle(const ecc::BambooCodec &codec,
                                       const OracleConfig &config)
    : codec_(codec), config_(config)
{
    util::checkOk(config_.validate());
}

namespace
{

/** SplitMix64 finalizer: cheap, well-mixed 64 -> 64 hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

bool
ShadowMemoryOracle::pageTolerant(std::uint64_t address) const
{
    // Page-granular (4 KiB) criticality: the same deterministic draw
    // the placement layer uses, keyed by the page frame so all blocks
    // of a page share a class.
    return wl::pageIsTolerant(config_.criticalitySeed,
                              /*scope=*/0x5dc0ULL, address >> 12,
                              config_.tolerantPageFraction);
}

ecc::Block
ShadowMemoryOracle::payloadFor(std::uint64_t address) const
{
    // The shadow memory is a pure function of (seed, address): the
    // ground truth for any block is recomputable at any point of the
    // campaign, including after snapshot/resume, without storing it.
    ecc::Block block;
    for (std::size_t word = 0; word < block.size() / 8; ++word) {
        std::uint64_t bits =
            mix64(config_.payloadSeed ^ mix64(address + word));
        for (std::size_t b = 0; b < 8; ++b) {
            block[word * 8 + b] =
                static_cast<std::uint8_t>(bits >> (8 * b));
        }
    }
    return block;
}

bool
ShadowMemoryOracle::recoverOnce(std::uint64_t address,
                                const ecc::CodedBlock &reference,
                                bool &miscorrected, util::Rng &rng)
{
    // Model one rung of the ladder: re-read the original copy at spec
    // speed and run the full correcting decode.  At spec the original
    // is normally pristine; with probability originalErrorProbability
    // the re-read itself is hit.  Half those hits are transient
    // single-bit/byte upsets the correcting decode absorbs; the other
    // half are module-side bursts past the 4-symbol correction bound
    // (an intermittently weak rank), which is what forces the next
    // rung of the ladder.
    //
    // A pristine re-read is the freshly encoded reference, a valid
    // codeword: the correcting decode would find zero syndromes and
    // leave it untouched, so it recovers without being decoded.
    if (!(config_.originalErrorProbability > 0.0 &&
          rng.bernoulli(config_.originalErrorProbability)))
        return true;
    ecc::CodedBlock original = reference;
    if (rng.bernoulli(0.5)) {
        const ecc::ErrorPattern pattern =
            rng.bernoulli(0.5) ? ecc::ErrorPattern::kSingleBit
                               : ecc::ErrorPattern::kSingleByte;
        ecc::injectPattern(original, pattern, rng);
    } else {
        const auto burst = static_cast<unsigned>(rng.uniformInt(5, 8));
        ecc::corruptBytes(original, burst, rng);
    }
    const ecc::BlockDecodeResult result =
        codec_.decodeCorrecting(original, address);
    if (!result.dataTrustworthy())
        return false;
    if (original.data != reference.data) {
        // The decoder claimed success but delivered the wrong block: a
        // miscorrection.  Only the oracle's ground truth can see this.
        miscorrected = true;
        return false;
    }
    return true;
}

ShadowMemoryOracle::Outcome
ShadowMemoryOracle::classify(std::uint64_t address,
                             const ecc::CodedBlock &reference,
                             const ecc::CodedBlock &corrupted,
                             double weight, OracleCounters &counters,
                             util::Rng &rng)
{
    const bool differs = corrupted.data != reference.data ||
                         corrupted.parity != reference.parity;

    Outcome outcome;
    outcome.weight = weight;

    // Step 1: the unsafe-fast read path - detection-only decode.
    const ecc::BlockDecodeResult detect =
        codec_.decodeDetectOnly(corrupted, address);

    if (!detect.errorDetected()) {
        // Decoder saw zero syndromes.  Either nothing actually changed
        // (clean) or the error vector was a codeword (silent escape).
        outcome.cls =
            differs ? AccessClass::kSilentEscape : AccessClass::kClean;
        counters.count(outcome.cls, weight);
        if (outcome.cls == AccessClass::kSilentEscape)
            counters.countEscapePageClass(pageTolerant(address),
                                          weight);
        return outcome;
    }

    // Step 2: detected -> walk the recovery ladder.  Rung 0 is the
    // mandatory spec re-read (the only rung core::ModeController has);
    // rungs 1..retryAttempts are bounded retries this audit assumes
    // before escalating to UE.
    bool miscorrected = false;
    for (unsigned attempt = 0; attempt <= config_.retryAttempts;
         ++attempt) {
        if (attempt > 0) {
            ++counters.retryAttempts;
            outcome.attemptsUsed = attempt;
        }
        if (recoverOnce(address, reference, miscorrected, rng)) {
            outcome.cls = AccessClass::kDetectedRecovered;
            counters.count(outcome.cls, weight);
            if (attempt > 0)
                ++counters.retriedRecoveries;
            return outcome;
        }
        if (miscorrected) {
            // The stack would have handed wrong data to the node while
            // reporting a successful correction: an SDC despite
            // detection.  Weighted like any other escape.
            outcome.cls = AccessClass::kSilentEscape;
            counters.count(outcome.cls, weight);
            counters.countEscapePageClass(pageTolerant(address),
                                          weight);
            ++counters.miscorrections;
            counters.miscorrectionWeight += weight;
            return outcome;
        }
    }

    // Step 3: every rung failed - escalate to an uncorrectable error.
    outcome.cls = AccessClass::kDetectedUe;
    counters.count(outcome.cls, weight);
    return outcome;
}

ShadowMemoryOracle::Outcome
ShadowMemoryOracle::classifyPattern(std::uint64_t address,
                                    ecc::ErrorPattern pattern,
                                    double weight,
                                    OracleCounters &counters,
                                    util::Rng &rng)
{
    const ecc::CodedBlock reference =
        codec_.encode(payloadFor(address), address);
    ecc::CodedBlock coded = reference;
    ecc::injectPattern(coded, pattern, rng);
    if (pattern == ecc::ErrorPattern::kWideBlock)
        ++counters.wideDraws;
    return classify(address, reference, coded, weight, counters, rng);
}

ShadowMemoryOracle::Outcome
ShadowMemoryOracle::classifyWide(std::uint64_t address,
                                 const WideErrorDraw &draw,
                                 double weight, OracleCounters &counters,
                                 util::Rng &rng)
{
    const ecc::CodedBlock reference =
        codec_.encode(payloadFor(address), address);
    ecc::CodedBlock coded = reference;
    draw.applyTo(coded);

    ++counters.wideDraws;
    if (draw.fromNullSpace)
        ++counters.nullSpaceDraws;
    const double total_weight = weight * draw.importanceWeight;
    counters.wideWeight += total_weight;
    return classify(address, reference, coded, total_weight, counters,
                    rng);
}

} // namespace hdmr::verify
