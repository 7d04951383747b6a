#include "serve/wire.hh"

#include <cmath>

#include "snapshot/serializer.hh"
#include "util/logging.hh"

namespace hdmr::serve
{

namespace
{

/** Request flag bits; the rest of the byte must be zero. */
constexpr std::uint8_t kFlagAllowCached = 1u << 0;
constexpr std::uint8_t kFlagAllowRollout = 1u << 1;
constexpr std::uint8_t kFlagIsRetry = 1u << 2;
constexpr std::uint8_t kKnownFlags =
    kFlagAllowCached | kFlagAllowRollout | kFlagIsRetry;

/** Serialized size of one MixClass (nodes, usage, runtime, weight). */
constexpr std::uint64_t kMixClassBytes = 4 + 4 + 8 + 8;

util::Status
checkHeader(snapshot::Deserializer &in, std::uint32_t magic,
            const char *what)
{
    const std::uint32_t got_magic = in.readU32();
    const std::uint32_t got_version = in.readU32();
    HDMR_RETURN_IF_ERROR(in.status());
    if (got_magic != magic)
        return util::failedPrecondition(
            "%s payload: magic 0x%08x is not 0x%08x", what, got_magic,
            magic);
    if (got_version != kWireVersion)
        return util::failedPrecondition(
            "%s payload: wire version %u, this build speaks %u", what,
            got_version, kWireVersion);
    return util::Status{};
}

} // namespace

bool
operator==(const MixClass &a, const MixClass &b)
{
    return a.nodes == b.nodes && a.usageClass == b.usageClass &&
           a.runtimeSeconds == b.runtimeSeconds && a.weight == b.weight;
}

bool
operator==(const AdvisorRequest &a, const AdvisorRequest &b)
{
    return a.id == b.id && a.deadlineMicros == b.deadlineMicros &&
           a.allowCached == b.allowCached &&
           a.allowRollout == b.allowRollout && a.isRetry == b.isRetry &&
           a.mix == b.mix;
}

bool
operator==(const AdvisorDecision &a, const AdvisorDecision &b)
{
    return a.id == b.id && a.marginGroup == b.marginGroup &&
           a.heteroDmr == b.heteroDmr && a.quality == b.quality &&
           a.expectedSpeedup == b.expectedSpeedup &&
           a.rolloutTurnaroundSeconds == b.rolloutTurnaroundSeconds;
}

util::Status
AdvisorRequest::validate() const
{
    if (mix.empty())
        return util::invalidArgument("request %llu: empty job-class mix",
                                     static_cast<unsigned long long>(id));
    if (mix.size() > kMaxMixClasses)
        return util::resourceExhausted(
            "request %llu: %zu job classes exceed the cap of %llu",
            static_cast<unsigned long long>(id), mix.size(),
            static_cast<unsigned long long>(kMaxMixClasses));
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const MixClass &c = mix[i];
        if (c.nodes == 0 || c.nodes > kMaxMixNodes)
            return util::invalidArgument(
                "request %llu: mix[%zu].nodes = %u outside [1, %u]",
                static_cast<unsigned long long>(id), i, c.nodes,
                kMaxMixNodes);
        if (c.usageClass > 2)
            return util::invalidArgument(
                "request %llu: mix[%zu].usageClass = %u above 2",
                static_cast<unsigned long long>(id), i, c.usageClass);
        if (!std::isfinite(c.runtimeSeconds) || c.runtimeSeconds <= 0.0)
            return util::invalidArgument(
                "request %llu: mix[%zu].runtimeSeconds = %g is not a "
                "finite positive duration",
                static_cast<unsigned long long>(id), i,
                c.runtimeSeconds);
        if (!std::isfinite(c.weight) || c.weight <= 0.0)
            return util::invalidArgument(
                "request %llu: mix[%zu].weight = %g is not finite "
                "positive",
                static_cast<unsigned long long>(id), i, c.weight);
    }
    return util::Status{};
}

util::Status
AdvisorDecision::validate() const
{
    if (marginGroup > 2)
        return util::invalidArgument(
            "decision %llu: marginGroup %u above 2",
            static_cast<unsigned long long>(id), marginGroup);
    if (quality != Quality::kExact && quality != Quality::kCached &&
        quality != Quality::kDegraded)
        return util::invalidArgument(
            "decision %llu: quality byte %u is not exact/cached/"
            "degraded",
            static_cast<unsigned long long>(id),
            static_cast<unsigned>(quality));
    if (!std::isfinite(expectedSpeedup) || expectedSpeedup < 1.0)
        return util::invalidArgument(
            "decision %llu: expectedSpeedup %g below 1",
            static_cast<unsigned long long>(id), expectedSpeedup);
    if (!std::isfinite(rolloutTurnaroundSeconds) ||
        rolloutTurnaroundSeconds < 0.0)
        return util::invalidArgument(
            "decision %llu: rolloutTurnaroundSeconds %g is negative "
            "or non-finite",
            static_cast<unsigned long long>(id),
            rolloutTurnaroundSeconds);
    return util::Status{};
}

std::vector<std::uint8_t>
encodeRequest(const AdvisorRequest &request)
{
    snapshot::Serializer out;
    out.writeU32(kRequestMagic);
    out.writeU32(kWireVersion);
    out.writeU64(request.id);
    out.writeU64(request.deadlineMicros);
    std::uint8_t flags = 0;
    if (request.allowCached)
        flags |= kFlagAllowCached;
    if (request.allowRollout)
        flags |= kFlagAllowRollout;
    if (request.isRetry)
        flags |= kFlagIsRetry;
    out.writeU8(flags);
    out.writeU32(static_cast<std::uint32_t>(request.mix.size()));
    for (const MixClass &c : request.mix) {
        out.writeU32(c.nodes);
        out.writeU32(c.usageClass);
        out.writeDouble(c.runtimeSeconds);
        out.writeDouble(c.weight);
    }
    return out.data();
}

util::Status
parseRequest(const std::uint8_t *data, std::size_t size,
             AdvisorRequest *out)
{
    snapshot::Deserializer in(data, size);
    HDMR_RETURN_IF_ERROR(checkHeader(in, kRequestMagic, "request"));

    // Parse into a local and commit only on success, so an error can
    // never leave *out half-filled.
    AdvisorRequest request;
    request.id = in.readU64();
    request.deadlineMicros = in.readU64();
    const std::uint8_t flags = in.readU8();
    const std::uint32_t count = in.readU32();
    HDMR_RETURN_IF_ERROR(in.status());
    if ((flags & ~kKnownFlags) != 0)
        return util::dataLoss("request payload: unknown flag bits 0x%02x",
                              flags & ~kKnownFlags);
    request.allowCached = (flags & kFlagAllowCached) != 0;
    request.allowRollout = (flags & kFlagAllowRollout) != 0;
    request.isRetry = (flags & kFlagIsRetry) != 0;
    // Cap the count before allocating: the cap check must not trust
    // the wire value further than comparing it.
    if (count > kMaxMixClasses)
        return util::resourceExhausted(
            "request payload: %u job classes exceed the cap of %llu",
            count,
            static_cast<unsigned long long>(kMaxMixClasses));
    if (static_cast<std::uint64_t>(count) * kMixClassBytes >
        in.remaining())
        return util::dataLoss(
            "request payload: %u job classes do not fit in %zu "
            "remaining bytes",
            count, in.remaining());
    request.mix.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        MixClass c;
        c.nodes = in.readU32();
        c.usageClass = in.readU32();
        c.runtimeSeconds = in.readDouble();
        c.weight = in.readDouble();
        request.mix.push_back(c);
    }
    HDMR_RETURN_IF_ERROR(in.status());
    if (in.remaining() != 0)
        return util::dataLoss(
            "request payload: %zu trailing garbage bytes",
            in.remaining());
    HDMR_RETURN_IF_ERROR(request.validate());
    *out = std::move(request);
    return util::Status{};
}

std::vector<std::uint8_t>
encodeDecision(const AdvisorDecision &decision)
{
    snapshot::Serializer out;
    out.writeU32(kDecisionMagic);
    out.writeU32(kWireVersion);
    out.writeU64(decision.id);
    out.writeU8(decision.marginGroup);
    out.writeU8(decision.heteroDmr ? 1 : 0);
    out.writeU8(static_cast<std::uint8_t>(decision.quality));
    out.writeDouble(decision.expectedSpeedup);
    out.writeDouble(decision.rolloutTurnaroundSeconds);
    return out.data();
}

util::Status
parseDecision(const std::uint8_t *data, std::size_t size,
              AdvisorDecision *out)
{
    snapshot::Deserializer in(data, size);
    HDMR_RETURN_IF_ERROR(checkHeader(in, kDecisionMagic, "decision"));

    AdvisorDecision decision;
    decision.id = in.readU64();
    decision.marginGroup = in.readU8();
    const std::uint8_t dmr = in.readU8();
    const std::uint8_t quality = in.readU8();
    decision.expectedSpeedup = in.readDouble();
    decision.rolloutTurnaroundSeconds = in.readDouble();
    HDMR_RETURN_IF_ERROR(in.status());
    if (in.remaining() != 0)
        return util::dataLoss(
            "decision payload: %zu trailing garbage bytes",
            in.remaining());
    if (dmr > 1)
        return util::dataLoss(
            "decision payload: heteroDmr byte %u is not 0/1", dmr);
    decision.heteroDmr = dmr == 1;
    decision.quality = static_cast<Quality>(quality);
    HDMR_RETURN_IF_ERROR(decision.validate());
    *out = decision;
    return util::Status{};
}

void
appendFrame(const std::vector<std::uint8_t> &payload,
            std::vector<std::uint8_t> *stream)
{
    hdmr_assert(payload.size() <= kMaxFramePayloadBytes,
                "frame payload exceeds kMaxFramePayloadBytes");
    const auto length = static_cast<std::uint32_t>(payload.size());
    stream->push_back(static_cast<std::uint8_t>(length & 0xff));
    stream->push_back(static_cast<std::uint8_t>((length >> 8) & 0xff));
    stream->push_back(static_cast<std::uint8_t>((length >> 16) & 0xff));
    stream->push_back(static_cast<std::uint8_t>((length >> 24) & 0xff));
    stream->insert(stream->end(), payload.begin(), payload.end());
}

util::Status
nextFrame(const std::uint8_t *data, std::size_t size,
          std::size_t *offset, const std::uint8_t **payload,
          std::size_t *payload_size)
{
    *payload = nullptr;
    *payload_size = 0;
    if (*offset > size)
        return util::dataLoss("frame stream: offset %zu past end %zu",
                              *offset, size);
    const std::size_t remaining = size - *offset;
    if (remaining == 0)
        return util::Status{}; // clean end of stream
    if (remaining < 4)
        return util::dataLoss(
            "frame stream: truncated length prefix (%zu of 4 bytes)",
            remaining);
    const std::uint8_t *p = data + *offset;
    const std::uint32_t length =
        static_cast<std::uint32_t>(p[0]) |
        (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
    if (length > kMaxFramePayloadBytes)
        return util::resourceExhausted(
            "frame stream: length %u exceeds the %u-byte frame cap",
            length, kMaxFramePayloadBytes);
    if (remaining - 4 < length)
        return util::dataLoss(
            "frame stream: payload truncated (%zu of %u bytes)",
            remaining - 4, length);
    *payload = p + 4;
    *payload_size = length;
    *offset += 4 + static_cast<std::size_t>(length);
    return util::Status{};
}

} // namespace hdmr::serve
