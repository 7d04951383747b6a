/**
 * @file
 * Advisor wire format: length-prefixed binary frames over any byte
 * stream (pipes, sockets, test vectors, fuzz corpora).
 *
 * The advisor service deliberately has no network dependency - a
 * front end feeds it frames and collects frames back, so the whole
 * protocol stays testable in-process and fuzzable as plain bytes.
 * A frame is
 *
 *     [0)  payload length   u32 LE, <= kMaxFramePayloadBytes
 *     [4)  payload bytes
 *
 * and a payload is one request or one decision, encoded with the
 * snapshot serializer's fixed-width little-endian vocabulary behind a
 * magic + version prefix.
 *
 * Untrusted-input rules (DESIGN.md section 15): the parsers return a
 * structured util::Status for every malformed input, check every
 * length/count against hard caps *before* allocating, and never leave
 * the output half-filled - an error means the output still holds
 * whatever it held before the call.  fuzz/fuzz_advisor_request.cc
 * holds them to that contract with a trap.
 */

#ifndef HDMR_SERVE_WIRE_HH
#define HDMR_SERVE_WIRE_HH

#include <cstdint>
#include <vector>

#include "util/status.hh"

namespace hdmr::serve
{

/** Request-payload magic ("ADVQ" little-endian). */
inline constexpr std::uint32_t kRequestMagic = 0x51564441;
/** Decision-payload magic ("ADVD" little-endian). */
inline constexpr std::uint32_t kDecisionMagic = 0x44564441;
/** Wire version; bumped on incompatible change. */
inline constexpr std::uint32_t kWireVersion = 1;
/** Hard ceiling on one frame's payload. */
inline constexpr std::uint32_t kMaxFramePayloadBytes = 1u << 16;
/** Hard ceiling on the job-class mix in one request. */
inline constexpr std::uint64_t kMaxMixClasses = 64;
/** Hard ceiling on a single job class's node count. */
inline constexpr std::uint32_t kMaxMixNodes = 1u << 20;

/** One job class in a request's workload mix. */
struct MixClass
{
    /** Nodes per job of this class. */
    std::uint32_t nodes = 1;
    /** Memory-usage class: 0 => <25 %, 1 => [25,50) %, 2 => >=50 %. */
    std::uint32_t usageClass = 0;
    /** Runtime per job at spec frequency, seconds. */
    double runtimeSeconds = 600.0;
    /** Relative share of this class in the mix (> 0). */
    double weight = 1.0;
};

bool operator==(const MixClass &a, const MixClass &b);

/** "Which margin bucket / mode schedule for this job mix?" */
struct AdvisorRequest
{
    /** Caller-chosen id, echoed in the decision. */
    std::uint64_t id = 0;
    /** Latency budget, microseconds; 0 asks for the service default. */
    std::uint64_t deadlineMicros = 0;
    /** Accept an answer served from the decision cache? */
    bool allowCached = true;
    /** Spend a cluster-sim rollout on this request if healthy? */
    bool allowRollout = true;
    /** Retry of a previously shed request (spends retry budget). */
    bool isRetry = false;
    std::vector<MixClass> mix;

    /**
     * Semantic validation (the parser applies it too): non-empty mix
     * within kMaxMixClasses, every class with nodes in
     * [1, kMaxMixNodes], usageClass <= 2, finite positive runtime and
     * weight.  kInvalidArgument naming the offending field.
     */
    util::Status validate() const;
};

bool operator==(const AdvisorRequest &a, const AdvisorRequest &b);

/** Answer quality ladder (DESIGN.md section 16): exact beats cached
 *  beats degraded; shed requests get no decision at all. */
enum class Quality : std::uint8_t
{
    kExact = 0,   ///< fresh deadline-bounded rollout
    kCached = 1,  ///< a prior exact decision served from the cache
    kDegraded = 2 ///< table-only fallback (deadline/breaker/policy)
};

/** The advisor's answer. */
struct AdvisorDecision
{
    /** Echo of AdvisorRequest::id. */
    std::uint64_t id = 0;
    /** Recommended margin bucket (0: 0.8 GT/s, 1: 0.6 GT/s, 2: none). */
    std::uint8_t marginGroup = 2;
    /** Deploy Hetero-DMR for this mix? */
    bool heteroDmr = false;
    /** How the answer was produced. */
    Quality quality = Quality::kDegraded;
    /** Expected speedup of the recommended schedule (>= 1). */
    double expectedSpeedup = 1.0;
    /** Mean turnaround from the rollout, seconds; 0 => table-only. */
    double rolloutTurnaroundSeconds = 0.0;

    util::Status validate() const;
};

bool operator==(const AdvisorDecision &a, const AdvisorDecision &b);

// ---- Payload codecs. ----

/** Encode one request as a payload (no frame prefix). */
std::vector<std::uint8_t> encodeRequest(const AdvisorRequest &request);

/**
 * Parse a request payload.  On success *out is overwritten; on any
 * error *out is untouched and the Status names what was wrong
 * (kDataLoss for structural damage, kResourceExhausted past a cap,
 * kFailedPrecondition for a foreign magic/version, kInvalidArgument
 * for a well-formed but semantically impossible request).
 */
util::Status parseRequest(const std::uint8_t *data, std::size_t size,
                          AdvisorRequest *out);

/** Encode one decision as a payload (no frame prefix). */
std::vector<std::uint8_t> encodeDecision(const AdvisorDecision &decision);

/** Parse a decision payload; same contract as parseRequest(). */
util::Status parseDecision(const std::uint8_t *data, std::size_t size,
                           AdvisorDecision *out);

// ---- Stream framing. ----

/** Append `payload` as one length-prefixed frame to `stream`. */
void appendFrame(const std::vector<std::uint8_t> &payload,
                 std::vector<std::uint8_t> *stream);

/**
 * Cut the next frame out of `data` + `size` starting at *offset.
 * Outcomes:
 *   - a whole frame is available: *payload and *payload_size point
 *     into `data`, *offset advances past the frame, returns kOk;
 *   - the stream ends cleanly at *offset (no bytes left): kOk with
 *     *payload == nullptr;
 *   - a partial header/payload remains: kDataLoss ("truncated");
 *   - the length field exceeds kMaxFramePayloadBytes: kResourceExhausted
 *     (the reader must refuse *before* trusting the length).
 * On error *offset does not advance.
 */
util::Status nextFrame(const std::uint8_t *data, std::size_t size,
                       std::size_t *offset,
                       const std::uint8_t **payload,
                       std::size_t *payload_size);

} // namespace hdmr::serve

#endif // HDMR_SERVE_WIRE_HH
