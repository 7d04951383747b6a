/**
 * @file
 * Declarative operation schemes over monitored regions (the DAMOS
 * analogue): policy as data, not code.
 *
 * A scheme is a predicate over a region's size, interval access
 * count, age, write fraction, and the node-wide sample count of the
 * interval, plus an action to take when any region matches.  The
 * engine evaluates every scheme at every aggregation boundary against
 * the closed counts and fires actions through the narrow
 * monitor::ActionSink, with per-scheme quotas (total fire cap) and
 * cooldowns (aggregations between fires) bounding how hard a policy
 * can push.
 *
 * Two action shapes exist:
 *  - *edge* actions fire once per matching aggregation (promote or
 *    demote a margin step, or just count the match);
 *  - *level* actions hold while any matching region persists (read
 *    preference = write-trigger boost, epoch shorten/lengthen) and
 *    release when nothing matches - re-asserted idempotently after a
 *    snapshot restore.
 *
 * Configs load from a line-oriented text format (parseSchemeConfig):
 *
 *     # comment
 *     set write_trigger_boost=0.08
 *     scheme <name> [size=min:max] [acc=min:max] [age=min:max]
 *                   [wfrac=min:max] [node=min:max]
 *                   action=<name> [quota=N] [cooldown=N]
 *
 * with `*` for an unbounded end.  Parsing follows the repository's
 * untrusted-input contract: a structured util::Status for any
 * malformed input and an output that is never half-filled.
 */

#ifndef HDMR_MONITOR_SCHEME_HH
#define HDMR_MONITOR_SCHEME_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "monitor/action_sink.hh"
#include "monitor/monitor.hh"
#include "util/status.hh"

namespace hdmr::monitor
{

/** Caps on an untrusted scheme-config input. */
constexpr std::size_t kMaxSchemes = 64;
constexpr std::size_t kMaxSchemeNameBytes = 64;
constexpr std::size_t kMaxSchemeConfigBytes = 1 << 20;
constexpr std::size_t kMaxSchemeConfigLineBytes = 4096;

/** What a scheme does when a region matches. */
enum class SchemeAction : std::uint8_t
{
    kStat = 0,       ///< count matches only (accounting)
    kPreferReads,    ///< hold: boost the write-mode trigger fill
    kEpochShorten,   ///< hold: scale the SDC epoch length down
    kEpochLengthen,  ///< hold: scale the SDC epoch length up
    kPromoteMargin,  ///< re-earn one margin step
    kDemoteMargin,   ///< give back one margin step
};

const char *toString(SchemeAction action);

/** Parse an action name; false when unknown. */
bool schemeActionFromName(std::string_view name, SchemeAction *out);

/** True for actions that hold while matches persist. */
bool isLevelAction(SchemeAction action);

/** Region/interval predicate; all bounds inclusive. */
struct SchemePredicate
{
    std::uint64_t minSizeBytes = 0;
    std::uint64_t maxSizeBytes = ~std::uint64_t(0);
    std::uint64_t minAccesses = 0;
    std::uint64_t maxAccesses = ~std::uint64_t(0);
    std::uint32_t minAge = 0;
    std::uint32_t maxAge = ~std::uint32_t(0);
    double minWriteFraction = 0.0;
    double maxWriteFraction = 1.0;
    /** Bounds on the interval's node-wide inspected-access count. */
    std::uint64_t minNodeSamples = 0;
    std::uint64_t maxNodeSamples = ~std::uint64_t(0);

    bool matches(const Region &region,
                 const AggregationInfo &info) const;
};

/** One declarative operation scheme. */
struct Scheme
{
    std::string name;
    SchemePredicate predicate;
    SchemeAction action = SchemeAction::kStat;
    /** Total fires allowed; 0 = unlimited. */
    std::uint64_t quota = 0;
    /** Aggregations that must pass between fires. */
    std::uint32_t cooldown = 0;
};

/** A full scheme configuration (the parsed config file). */
struct SchemeConfig
{
    std::vector<Scheme> schemes;
    /** Trigger-fill boost a kPreferReads hold applies. */
    double writeTriggerBoost = 0.08;
    /**
     * Cleaning-budget scale a kPreferReads hold applies: while reads
     * are hot, each write-mode window only earns this fraction of its
     * configured discretionary LLC-cleaning budget, deferring the
     * bulk of the cleaning stall until the hold releases.
     */
    double preferReadsCleanFraction = 0.1;
    /** Epoch-length scale a kEpochShorten hold applies. */
    double epochShortenScale = 0.25;
    /** Epoch-length scale a kEpochLengthen hold applies. */
    double epochLengthenScale = 4.0;

    /**
     * Reject impossible configurations (too many schemes, malformed
     * or duplicate names, inverted predicate bounds, out-of-range
     * boost/scales) with kInvalidArgument naming the offending field;
     * one pass, first offender wins.  SchemeEngine's constructor
     * checkOk()s it.
     */
    util::Status validate() const;
};

/**
 * Parse the text format described in the file header.  On any error
 * returns kInvalidArgument naming the line and leaves `*out`
 * untouched (never half-filled); on success `*out` also passed
 * validate().
 */
util::Status parseSchemeConfig(std::string_view text,
                               SchemeConfig *out);

/**
 * The shipped phase-adaptive policy (also checked in as
 * schemas/schemes/phase_adaptive.schemes; a ctest keeps the copy in
 * sync): re-earn the static guard band while hot read-dominated
 * phases hold, and defer discretionary write-mode work out of those
 * phases.
 */
const char *defaultPhaseAdaptiveSchemes();

/** The engine evaluating schemes at each aggregation boundary. */
class SchemeEngine
{
  public:
    /** Sentinel: scheme has never fired. */
    static constexpr std::uint64_t kNeverFired = ~std::uint64_t(0);

    /** Per-scheme evaluation state (snapshot-serialized). */
    struct SchemeState
    {
        std::uint64_t hits = 0;  ///< region matches
        std::uint64_t fires = 0; ///< actions applied / holds entered
        std::uint64_t lastFireAggregation = kNeverFired;
        bool active = false; ///< level actions: hold in effect
    };

    /** `sink` must outlive the engine; nullptr = evaluate only. */
    SchemeEngine(SchemeConfig config, ActionSink *sink);

    /** Evaluate every scheme against one closed interval. */
    void onAggregation(const std::vector<Region> &regions,
                       const AggregationInfo &info);

    const SchemeConfig &config() const { return config_; }
    const std::vector<SchemeState> &states() const { return states_; }
    bool readPreferenceActive() const { return preferActive_; }
    double epochScale() const { return epochScale_; }
    std::uint64_t totalHits() const;
    std::uint64_t totalFires() const;

    // ---- Snapshot/resume surface (src/snapshot). ----

    /**
     * Serialize a fingerprint of the scheme list plus every scheme's
     * evaluation state and the engine's hold levels.
     */
    void saveState(snapshot::Serializer &out) const;

    /**
     * Restore into an engine built with the same scheme config; the
     * restored hold levels are re-asserted into the sink (idempotent
     * for an in-run round trip).  Fails the deserializer on a foreign
     * fingerprint.
     */
    bool restoreState(snapshot::Deserializer &in);

    /** FNV-1a digest over the complete mutable state. */
    std::uint64_t digest() const;

  private:
    bool canFire(const Scheme &scheme, const SchemeState &state,
                 std::uint64_t agg_index) const;
    void applyLevels();

    SchemeConfig config_;
    ActionSink *sink_;
    std::vector<SchemeState> states_;
    bool preferActive_ = false;
    double epochScale_ = 1.0;
};

} // namespace hdmr::monitor

#endif // HDMR_MONITOR_SCHEME_HH
