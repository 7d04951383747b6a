#include "core/placement.hh"

#include <cmath>
#include <cstring>

#include "util/logging.hh"

namespace hdmr::core
{

namespace
{

/** SplitMix64 finalizer, used to chain the policy fingerprint. */
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

} // namespace

const char *
toString(PlacementMode mode)
{
    switch (mode) {
      case PlacementMode::kHeteroDmr:
        return "hetero-dmr";
      case PlacementMode::kHetReliability:
        return "het-reliability";
      case PlacementMode::kHybrid:
        return "hybrid";
    }
    return "unknown";
}

util::Status
PlacementPolicy::validate() const
{
    if (mode != PlacementMode::kHeteroDmr &&
        mode != PlacementMode::kHetReliability &&
        mode != PlacementMode::kHybrid)
        return util::invalidArgument(
            "PlacementPolicy.mode %u is not a known placement mode",
            static_cast<unsigned>(mode));
    if (!std::isfinite(hybridTolerantThreshold) ||
        !(hybridTolerantThreshold >= 0.0) ||
        hybridTolerantThreshold > 1.0)
        return util::invalidArgument(
            "PlacementPolicy.hybridTolerantThreshold must be a "
            "finite fraction in [0, 1] (got %g)",
            hybridTolerantThreshold);
    if (!std::isfinite(degradePenalty) || !(degradePenalty >= 0.0))
        return util::invalidArgument(
            "PlacementPolicy.degradePenalty must be finite and >= 0 "
            "(got %g)",
            degradePenalty);
    double previous = 0.0;
    for (std::size_t u = 0; u < usageRepresentative.size(); ++u) {
        const double rep = usageRepresentative[u];
        if (!std::isfinite(rep) || !(rep > 0.0) || rep > 1.0)
            return util::invalidArgument(
                "PlacementPolicy.usageRepresentative[%zu] must be a "
                "finite utilization in (0, 1] (got %g)",
                u, rep);
        if (rep < previous)
            return util::invalidArgument(
                "PlacementPolicy.usageRepresentative[%zu] (%g) must "
                "not decrease: usage classes are ordered",
                u, rep);
        previous = rep;
    }
    return util::Status{};
}

bool
PlacementPolicy::unreplicatedTolerant(double tolerant_fraction) const
{
    switch (mode) {
      case PlacementMode::kHeteroDmr:
        return false;
      case PlacementMode::kHetReliability:
        return tolerant_fraction > 0.0;
      case PlacementMode::kHybrid:
        return tolerant_fraction >= hybridTolerantThreshold &&
               tolerant_fraction > 0.0;
    }
    return false;
}

double
PlacementPolicy::replicatedShare(double tolerant_fraction) const
{
    return unreplicatedTolerant(tolerant_fraction)
               ? 1.0 - tolerant_fraction
               : 1.0;
}

bool
PlacementPolicy::marginEligible(unsigned usage_class,
                                double tolerant_fraction) const
{
    if (!unreplicatedTolerant(tolerant_fraction)) {
        // Full Hetero-DMR: the whole footprint needs a copy, so only
        // the <50 % usage classes replicate (Section IV-A).
        return usage_class < 2;
    }
    // HRM: only the critical share needs the copy; the free half of
    // the module pair must hold it.
    const unsigned clamped = usage_class < 3 ? usage_class : 2;
    return usageRepresentative[clamped] *
               replicatedShare(tolerant_fraction) <
           0.5;
}

double
PlacementPolicy::tolerantStrikeProbability(
    double tolerant_fraction) const
{
    if (!unreplicatedTolerant(tolerant_fraction))
        return 0.0;
    // Margin UEs strike pages uniformly; under HRM the tolerant share
    // of the footprint is exactly the unprotected share.
    return std::min(1.0, std::max(0.0, tolerant_fraction));
}

std::uint64_t
PlacementPolicy::digest() const
{
    std::uint64_t fp = mix64(0x914c ^ static_cast<unsigned>(mode));
    fp = mix64(fp ^ doubleBits(hybridTolerantThreshold));
    fp = mix64(fp ^ doubleBits(degradePenalty));
    for (const double rep : usageRepresentative)
        fp = mix64(fp ^ doubleBits(rep));
    return fp;
}

} // namespace hdmr::core
