#include "monitor/scheme.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "snapshot/digest.hh"
#include "snapshot/serializer.hh"
#include "util/logging.hh"

namespace hdmr::monitor
{

const char *
toString(SchemeAction action)
{
    switch (action) {
      case SchemeAction::kStat: return "stat";
      case SchemeAction::kPreferReads: return "prefer_reads";
      case SchemeAction::kEpochShorten: return "epoch_shorten";
      case SchemeAction::kEpochLengthen: return "epoch_lengthen";
      case SchemeAction::kPromoteMargin: return "promote";
      case SchemeAction::kDemoteMargin: return "demote";
    }
    return "?";
}

bool
schemeActionFromName(std::string_view name, SchemeAction *out)
{
    static constexpr SchemeAction kAll[] = {
        SchemeAction::kStat,          SchemeAction::kPreferReads,
        SchemeAction::kEpochShorten,  SchemeAction::kEpochLengthen,
        SchemeAction::kPromoteMargin, SchemeAction::kDemoteMargin,
    };
    for (const SchemeAction action : kAll) {
        if (name == toString(action)) {
            *out = action;
            return true;
        }
    }
    return false;
}

bool
isLevelAction(SchemeAction action)
{
    return action == SchemeAction::kPreferReads ||
           action == SchemeAction::kEpochShorten ||
           action == SchemeAction::kEpochLengthen;
}

bool
SchemePredicate::matches(const Region &region,
                         const AggregationInfo &info) const
{
    const std::uint64_t size = region.sizeBytes();
    if (size < minSizeBytes || size > maxSizeBytes)
        return false;
    if (region.nrAccesses < minAccesses ||
        region.nrAccesses > maxAccesses)
        return false;
    if (region.age < minAge || region.age > maxAge)
        return false;
    const double wfrac = region.writeFraction();
    if (wfrac < minWriteFraction || wfrac > maxWriteFraction)
        return false;
    if (info.sampledAccesses < minNodeSamples ||
        info.sampledAccesses > maxNodeSamples)
        return false;
    return true;
}

namespace
{

bool
validSchemeName(const std::string &name)
{
    if (name.empty() || name.size() > kMaxSchemeNameBytes)
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

} // anonymous namespace

util::Status
SchemeConfig::validate() const
{
    if (schemes.size() > kMaxSchemes)
        return util::invalidArgument(
            "SchemeConfig.schemes must hold at most %zu schemes "
            "(got %zu)",
            kMaxSchemes, schemes.size());
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        const Scheme &s = schemes[i];
        if (!validSchemeName(s.name))
            return util::invalidArgument(
                "SchemeConfig.schemes[%zu].name must be 1-%zu chars "
                "of [a-z0-9_-]",
                i, kMaxSchemeNameBytes);
        for (std::size_t j = 0; j < i; ++j) {
            if (schemes[j].name == s.name)
                return util::invalidArgument(
                    "SchemeConfig.schemes[%zu].name duplicates "
                    "scheme '%s'",
                    i, s.name.c_str());
        }
        const SchemePredicate &p = s.predicate;
        if (p.minSizeBytes > p.maxSizeBytes)
            return util::invalidArgument(
                "SchemeConfig.schemes[%zu].predicate size bounds "
                "are inverted",
                i);
        if (p.minAccesses > p.maxAccesses)
            return util::invalidArgument(
                "SchemeConfig.schemes[%zu].predicate access bounds "
                "are inverted",
                i);
        if (p.minAge > p.maxAge)
            return util::invalidArgument(
                "SchemeConfig.schemes[%zu].predicate age bounds "
                "are inverted",
                i);
        if (!(p.minWriteFraction >= 0.0 &&
              p.maxWriteFraction <= 1.0 &&
              p.minWriteFraction <= p.maxWriteFraction))
            return util::invalidArgument(
                "SchemeConfig.schemes[%zu].predicate write-fraction "
                "bounds must be an ordered pair inside [0, 1]",
                i);
        if (p.minNodeSamples > p.maxNodeSamples)
            return util::invalidArgument(
                "SchemeConfig.schemes[%zu].predicate node-sample "
                "bounds are inverted",
                i);
    }
    if (!(writeTriggerBoost >= 0.0 && writeTriggerBoost <= 0.5))
        return util::invalidArgument(
            "SchemeConfig.writeTriggerBoost must be in [0, 0.5]");
    if (!(preferReadsCleanFraction >= 0.0 &&
          preferReadsCleanFraction <= 1.0)) {
        return util::invalidArgument(
            "SchemeConfig.preferReadsCleanFraction must be in [0, 1]");
    }
    if (!(epochShortenScale > 0.0 && epochShortenScale <= 1.0))
        return util::invalidArgument(
            "SchemeConfig.epochShortenScale must be in (0, 1]");
    if (!(epochLengthenScale >= 1.0 && epochLengthenScale <= 1.0e6))
        return util::invalidArgument(
            "SchemeConfig.epochLengthenScale must be in [1, 1e6]");
    return util::Status();
}

// ---- Text-format parser. --------------------------------------------

namespace
{

/** One whitespace-separated token walk over a line. */
std::vector<std::string_view>
tokenize(std::string_view line)
{
    std::vector<std::string_view> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '\t'))
            ++i;
        std::size_t start = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\t')
            ++i;
        if (i > start)
            tokens.push_back(line.substr(start, i - start));
    }
    return tokens;
}

bool
parseU64(std::string_view text, std::uint64_t *out)
{
    if (text.empty())
        return false;
    const auto result = std::from_chars(
        text.data(), text.data() + text.size(), *out);
    return result.ec == std::errc() &&
           result.ptr == text.data() + text.size();
}

bool
parseDouble(std::string_view text, double *out)
{
    if (text.empty() || text.size() > 64)
        return false;
    char buffer[65];
    std::copy(text.begin(), text.end(), buffer);
    buffer[text.size()] = '\0';
    char *end = nullptr;
    *out = std::strtod(buffer, &end);
    return end == buffer + text.size();
}

/** Parse "min:max" with `*` for an unbounded end (u64 domain). */
bool
parseU64Range(std::string_view text, std::uint64_t *min,
              std::uint64_t *max)
{
    const std::size_t colon = text.find(':');
    if (colon == std::string_view::npos)
        return false;
    const std::string_view lo = text.substr(0, colon);
    const std::string_view hi = text.substr(colon + 1);
    if (lo == "*")
        *min = 0;
    else if (!parseU64(lo, min))
        return false;
    if (hi == "*")
        *max = ~std::uint64_t(0);
    else if (!parseU64(hi, max))
        return false;
    return true;
}

/** Parse "min:max" with `*` for an unbounded end (double domain). */
bool
parseDoubleRange(std::string_view text, double *min, double *max,
                 double lo_default, double hi_default)
{
    const std::size_t colon = text.find(':');
    if (colon == std::string_view::npos)
        return false;
    const std::string_view lo = text.substr(0, colon);
    const std::string_view hi = text.substr(colon + 1);
    if (lo == "*")
        *min = lo_default;
    else if (!parseDouble(lo, min))
        return false;
    if (hi == "*")
        *max = hi_default;
    else if (!parseDouble(hi, max))
        return false;
    return true;
}

util::Status
lineError(std::size_t line_no, const char *message)
{
    return util::invalidArgument("scheme config line %zu: %s",
                                 line_no, message);
}

util::Status
parseSchemeLine(std::size_t line_no,
                const std::vector<std::string_view> &tokens,
                Scheme *out)
{
    if (tokens.size() < 2)
        return lineError(line_no, "scheme needs a name");
    Scheme scheme;
    scheme.name.assign(tokens[1].begin(), tokens[1].end());
    bool have_action = false;
    for (std::size_t t = 2; t < tokens.size(); ++t) {
        const std::string_view token = tokens[t];
        const std::size_t eq = token.find('=');
        if (eq == std::string_view::npos)
            return lineError(line_no,
                             "scheme attributes must be key=value");
        const std::string_view key = token.substr(0, eq);
        const std::string_view value = token.substr(eq + 1);
        SchemePredicate &p = scheme.predicate;
        if (key == "size") {
            if (!parseU64Range(value, &p.minSizeBytes,
                               &p.maxSizeBytes))
                return lineError(line_no, "bad size=min:max range");
        } else if (key == "acc") {
            if (!parseU64Range(value, &p.minAccesses,
                               &p.maxAccesses))
                return lineError(line_no, "bad acc=min:max range");
        } else if (key == "age") {
            std::uint64_t min = 0, max = 0;
            if (!parseU64Range(value, &min, &max) ||
                min > ~std::uint32_t(0))
                return lineError(line_no, "bad age=min:max range");
            p.minAge = static_cast<std::uint32_t>(min);
            p.maxAge = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(max, ~std::uint32_t(0)));
        } else if (key == "wfrac") {
            if (!parseDoubleRange(value, &p.minWriteFraction,
                                  &p.maxWriteFraction, 0.0, 1.0))
                return lineError(line_no, "bad wfrac=min:max range");
        } else if (key == "node") {
            if (!parseU64Range(value, &p.minNodeSamples,
                               &p.maxNodeSamples))
                return lineError(line_no, "bad node=min:max range");
        } else if (key == "action") {
            if (!schemeActionFromName(value, &scheme.action))
                return lineError(line_no, "unknown action name");
            have_action = true;
        } else if (key == "quota") {
            if (!parseU64(value, &scheme.quota))
                return lineError(line_no, "bad quota value");
        } else if (key == "cooldown") {
            std::uint64_t cooldown = 0;
            if (!parseU64(value, &cooldown) ||
                cooldown > ~std::uint32_t(0))
                return lineError(line_no, "bad cooldown value");
            scheme.cooldown = static_cast<std::uint32_t>(cooldown);
        } else {
            return lineError(line_no, "unknown scheme attribute");
        }
    }
    if (!have_action)
        return lineError(line_no, "scheme needs an action=");
    *out = std::move(scheme);
    return util::Status();
}

util::Status
parseSetLine(std::size_t line_no,
             const std::vector<std::string_view> &tokens,
             SchemeConfig *config)
{
    if (tokens.size() != 2)
        return lineError(line_no, "set needs exactly key=value");
    const std::string_view token = tokens[1];
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos)
        return lineError(line_no, "set needs key=value");
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    double parsed = 0.0;
    if (!parseDouble(value, &parsed))
        return lineError(line_no, "bad set value");
    if (key == "write_trigger_boost")
        config->writeTriggerBoost = parsed;
    else if (key == "prefer_reads_clean_fraction")
        config->preferReadsCleanFraction = parsed;
    else if (key == "epoch_shorten_scale")
        config->epochShortenScale = parsed;
    else if (key == "epoch_lengthen_scale")
        config->epochLengthenScale = parsed;
    else
        return lineError(line_no, "unknown set key");
    return util::Status();
}

} // anonymous namespace

util::Status
parseSchemeConfig(std::string_view text, SchemeConfig *out)
{
    if (text.size() > kMaxSchemeConfigBytes)
        return util::invalidArgument(
            "scheme config exceeds %zu bytes", kMaxSchemeConfigBytes);

    SchemeConfig config;
    std::size_t line_no = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t newline = text.find('\n', pos);
        std::string_view line =
            newline == std::string_view::npos
                ? text.substr(pos)
                : text.substr(pos, newline - pos);
        pos = newline == std::string_view::npos ? text.size() + 1
                                                : newline + 1;
        ++line_no;
        if (line.size() > kMaxSchemeConfigLineBytes)
            return lineError(line_no, "line too long");
        const std::size_t hash = line.find('#');
        if (hash != std::string_view::npos)
            line = line.substr(0, hash);
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        const std::vector<std::string_view> tokens = tokenize(line);
        if (tokens.empty())
            continue;
        if (tokens[0] == "scheme") {
            if (config.schemes.size() >= kMaxSchemes)
                return lineError(line_no, "too many schemes");
            Scheme scheme;
            HDMR_RETURN_IF_ERROR(
                parseSchemeLine(line_no, tokens, &scheme));
            config.schemes.push_back(std::move(scheme));
        } else if (tokens[0] == "set") {
            HDMR_RETURN_IF_ERROR(
                parseSetLine(line_no, tokens, &config));
        } else {
            return lineError(line_no,
                             "expected 'scheme', 'set', or comment");
        }
    }
    HDMR_RETURN_IF_ERROR(config.validate());
    *out = std::move(config); // commit only on success
    return util::Status();
}

const char *
defaultPhaseAdaptiveSchemes()
{
    return
        "# Shipped phase-adaptive policy.\n"
        "#\n"
        "# earn_margin: the deployment's static per-module thresholds\n"
        "# hold a guard band below the qualified fast rate because\n"
        "# they must stand for the worst workload phase ever observed\n"
        "# (fig11: margin varies with phase).  Once monitoring shows\n"
        "# sustained, aged, read-dominated hot regions - the phase\n"
        "# shape the fast setting was qualified under - re-earn the\n"
        "# band one step per fire.  The promote path is bounded by the\n"
        "# qualified rate.  On errors the epoch guard suspends fast\n"
        "# operation to the end of its epoch; a step is only given\n"
        "# back by a demote scheme or by the quarantine policy's\n"
        "# demoteAfterRecoveries, which is 0 (off) by default.\n"
        "#\n"
        "# prefer_reads_hot: while hot read-dominated regions exist\n"
        "# (the common compute-phase shape), defer the write side's\n"
        "# discretionary work - boost the write-mode trigger so an\n"
        "# eviction trickle cannot force a mid-phase entry, and cap\n"
        "# the per-entry LLC-cleaning budget so a forced entry stalls\n"
        "# reads only as long as the backlog itself requires.\n"
        "#\n"
        "# There is no quiet-window drain action: forcing write-mode\n"
        "# entries into checkpoint waits measured worse than letting\n"
        "# the pressure path pick its own entry points (+2.6 % alone,\n"
        "# +6.2 % with the two schemes above, fig19 phase-heavy mix),\n"
        "# so it was removed from the language.\n"
        "#\n"
        "# The node thresholds come from the measured per-aggregation\n"
        "# sample distribution on the fig19 node (5 us aggregations,\n"
        "# ~30 us iterations): genuinely idle windows sample under a\n"
        "# few hundred accesses, compute-phase windows sample 1600+.\n"
        "set write_trigger_boost=0.08\n"
        "set prefer_reads_clean_fraction=0.1\n"
        "scheme earn_margin acc=64:* wfrac=0.0:0.25 age=4:* "
        "node=1600:* action=promote quota=2 cooldown=16\n"
        "scheme prefer_reads_hot acc=64:* wfrac=0.0:0.25 node=1600:* "
        "action=prefer_reads\n"
        "scheme stat_all action=stat\n";
}

// ---- Engine. --------------------------------------------------------

SchemeEngine::SchemeEngine(SchemeConfig config, ActionSink *sink)
    : config_(std::move(config)), sink_(sink),
      states_(config_.schemes.size())
{
    util::checkOk(config_.validate());
}

bool
SchemeEngine::canFire(const Scheme &scheme, const SchemeState &state,
                      std::uint64_t agg_index) const
{
    if (scheme.quota != 0 && state.fires >= scheme.quota)
        return false;
    if (state.lastFireAggregation != kNeverFired &&
        agg_index - state.lastFireAggregation <= scheme.cooldown)
        return false;
    return true;
}

void
SchemeEngine::onAggregation(const std::vector<Region> &regions,
                            const AggregationInfo &info)
{
    bool want_prefer = false;
    bool want_shorten = false;
    bool want_lengthen = false;

    for (std::size_t i = 0; i < config_.schemes.size(); ++i) {
        const Scheme &scheme = config_.schemes[i];
        SchemeState &state = states_[i];

        bool matched = false;
        for (const Region &region : regions) {
            if (!scheme.predicate.matches(region, info))
                continue;
            matched = true;
            ++state.hits;
        }

        if (isLevelAction(scheme.action)) {
            if (matched && !state.active &&
                canFire(scheme, state, info.index)) {
                state.active = true;
                ++state.fires;
                state.lastFireAggregation = info.index;
            } else if (!matched && state.active) {
                state.active = false;
            }
            if (state.active) {
                want_prefer |=
                    scheme.action == SchemeAction::kPreferReads;
                want_shorten |=
                    scheme.action == SchemeAction::kEpochShorten;
                want_lengthen |=
                    scheme.action == SchemeAction::kEpochLengthen;
            }
            continue;
        }

        if (!matched || !canFire(scheme, state, info.index))
            continue;
        ++state.fires;
        state.lastFireAggregation = info.index;
        if (sink_ == nullptr)
            continue;
        switch (scheme.action) {
          case SchemeAction::kStat:
            break; // accounting only
          case SchemeAction::kPromoteMargin:
            sink_->promoteMargin();
            break;
          case SchemeAction::kDemoteMargin:
            sink_->demoteMargin();
            break;
          default:
            util::panic("unreachable scheme action");
        }
    }

    // Resolve the hold levels once over all schemes; a shorten hold
    // wins over a simultaneous lengthen hold (the conservative side).
    const bool prefer = want_prefer;
    const double scale = want_shorten
                             ? config_.epochShortenScale
                             : (want_lengthen
                                    ? config_.epochLengthenScale
                                    : 1.0);
    if (prefer != preferActive_) {
        preferActive_ = prefer;
        if (sink_) {
            sink_->setWriteTriggerBoost(
                preferActive_ ? config_.writeTriggerBoost : 0.0);
            sink_->setCleanFraction(
                preferActive_ ? config_.preferReadsCleanFraction
                              : 1.0);
        }
    }
    if (scale != epochScale_) {
        epochScale_ = scale;
        if (sink_)
            sink_->setEpochScale(epochScale_);
    }
}

std::uint64_t
SchemeEngine::totalHits() const
{
    std::uint64_t total = 0;
    for (const SchemeState &state : states_)
        total += state.hits;
    return total;
}

std::uint64_t
SchemeEngine::totalFires() const
{
    std::uint64_t total = 0;
    for (const SchemeState &state : states_)
        total += state.fires;
    return total;
}

void
SchemeEngine::saveState(snapshot::Serializer &out) const
{
    out.writeU32(static_cast<std::uint32_t>(config_.schemes.size()));
    for (const Scheme &scheme : config_.schemes) {
        out.writeString(scheme.name);
        out.writeU8(static_cast<std::uint8_t>(scheme.action));
        out.writeU64(scheme.quota);
        out.writeU32(scheme.cooldown);
    }
    out.writeDouble(config_.writeTriggerBoost);
    out.writeDouble(config_.preferReadsCleanFraction);
    out.writeDouble(config_.epochShortenScale);
    out.writeDouble(config_.epochLengthenScale);

    for (const SchemeState &state : states_) {
        out.writeU64(state.hits);
        out.writeU64(state.fires);
        out.writeU64(state.lastFireAggregation);
        out.writeBool(state.active);
    }
    out.writeBool(preferActive_);
    out.writeDouble(epochScale_);
}

bool
SchemeEngine::restoreState(snapshot::Deserializer &in)
{
    const std::uint32_t count = in.readU32();
    if (in.ok() && count != config_.schemes.size()) {
        in.fail("scheme snapshot carries a different scheme count");
        return false;
    }
    for (std::uint32_t i = 0; in.ok() && i < count; ++i) {
        const std::string name = in.readString();
        const std::uint8_t action = in.readU8();
        const std::uint64_t quota = in.readU64();
        const std::uint32_t cooldown = in.readU32();
        const Scheme &scheme = config_.schemes[i];
        if (in.ok() &&
            (name != scheme.name ||
             action != static_cast<std::uint8_t>(scheme.action) ||
             quota != scheme.quota || cooldown != scheme.cooldown)) {
            in.fail("scheme snapshot was taken under a different "
                    "scheme configuration");
            return false;
        }
    }
    const double boost = in.readDouble();
    const double clean_fraction = in.readDouble();
    const double shorten = in.readDouble();
    const double lengthen = in.readDouble();
    if (in.ok() && (boost != config_.writeTriggerBoost ||
                    clean_fraction != config_.preferReadsCleanFraction ||
                    shorten != config_.epochShortenScale ||
                    lengthen != config_.epochLengthenScale)) {
        in.fail("scheme snapshot was taken under different scheme "
                "parameters");
        return false;
    }

    std::vector<SchemeState> states(config_.schemes.size());
    for (SchemeState &state : states) {
        state.hits = in.readU64();
        state.fires = in.readU64();
        state.lastFireAggregation = in.readU64();
        state.active = in.readBool();
    }
    const bool prefer = in.readBool();
    const double scale = in.readDouble();
    if (!in.ok())
        return false;

    states_ = std::move(states);
    preferActive_ = prefer;
    epochScale_ = scale;
    // Re-assert the hold levels so the sink matches the restored
    // engine (idempotent when nothing actually changed).
    if (sink_) {
        sink_->setWriteTriggerBoost(
            preferActive_ ? config_.writeTriggerBoost : 0.0);
        sink_->setCleanFraction(
            preferActive_ ? config_.preferReadsCleanFraction : 1.0);
        sink_->setEpochScale(epochScale_);
    }
    return true;
}

std::uint64_t
SchemeEngine::digest() const
{
    snapshot::Fnv1a fnv;
    fnv.addU64(states_.size());
    for (const SchemeState &state : states_) {
        fnv.addU64(state.hits);
        fnv.addU64(state.fires);
        fnv.addU64(state.lastFireAggregation);
        fnv.addU32(state.active ? 1 : 0);
    }
    fnv.addU32(preferActive_ ? 1 : 0);
    fnv.addDouble(epochScale_);
    return fnv.value();
}

} // namespace hdmr::monitor
