#include "harness.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string_view>
#include <unistd.h>

#include "snapshot/keeper.hh"
#include "telemetry/sinks.hh"
#include "util/logging.hh"

namespace hdmr::bench
{

namespace
{

/** Set by the first SIGINT/SIGTERM; read by stopRequested(). */
volatile std::sig_atomic_t g_stop = 0;

extern "C" void
handleStopSignal(int)
{
    if (g_stop != 0)
        _exit(kExitForced);
    g_stop = 1;
}

/** Whole-string decimal or 0x-hex unsigned integer. */
bool
parseInteger(const char *text, std::uint64_t *out)
{
    std::string_view digits(text);
    int base = 10;
    if (digits.size() > 2 && digits[0] == '0' &&
        (digits[1] == 'x' || digits[1] == 'X')) {
        digits.remove_prefix(2);
        base = 16;
    }
    const char *end = digits.data() + digits.size();
    const auto [ptr, ec] =
        std::from_chars(digits.data(), end, *out, base);
    return !digits.empty() && ec == std::errc() && ptr == end;
}

/** Setter for an integer flag of type T, range-checked. */
template <typename T>
std::function<bool(const char *)>
integerSetter(T *out, std::uint64_t min, std::uint64_t max)
{
    return [out, min, max](const char *value) {
        std::uint64_t parsed = 0;
        if (!parseInteger(value, &parsed) || parsed < min ||
            parsed > max)
            return false;
        *out = static_cast<T>(parsed);
        return true;
    };
}

/** Whole-string finite real number (no leading blanks). */
bool
parseReal(const char *text, double *out)
{
    if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text)))
        return false;
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (*end != '\0' || !std::isfinite(value))
        return false;
    *out = value;
    return true;
}

} // namespace

void
catchStopSignals()
{
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
}

bool
stopRequested()
{
    return g_stop != 0;
}

Harness::Harness(std::string name) : name_(std::move(name))
{
    flag("--telemetry-out", &telemetryDir_, "<dir>",
         "export metrics, trace and BENCH_<name>.json");
}

void
Harness::flag(const char *name, bool *out, const char *help)
{
    Flag flag;
    flag.name = name;
    flag.help = help;
    flag.toggle = out;
    flags_.push_back(std::move(flag));
}

void
Harness::addValued(const char *name, const char *meta, const char *help,
                   std::function<bool(const char *)> set)
{
    Flag flag;
    flag.name = name;
    flag.meta = meta;
    flag.help = help;
    flag.set = std::move(set);
    flags_.push_back(std::move(flag));
}

void
Harness::flag(const char *name, std::string *out, const char *meta,
              const char *help)
{
    addValued(name, meta, help, [out](const char *value) {
        *out = value;
        return true;
    });
}

void
Harness::flag(const char *name, std::uint64_t *out, const char *help,
              std::uint64_t min, std::uint64_t max)
{
    addValued(name, "<n>", help, integerSetter(out, min, max));
}

void
Harness::flag(const char *name, unsigned *out, const char *help,
              unsigned min, unsigned max)
{
    addValued(name, "<n>", help, integerSetter(out, min, max));
}

void
Harness::flag(const char *name, double *out, const char *meta,
              const char *help)
{
    addValued(name, meta, help,
              [out](const char *value) { return parseReal(value, out); });
}

void
Harness::printUsage() const
{
    std::printf("usage: %s [flags]\n", name_.c_str());
    for (const Flag &flag : flags_) {
        const std::string left =
            flag.meta.empty() ? flag.name : flag.name + "=" + flag.meta;
        std::printf("  %-30s %s\n", left.c_str(), flag.help.c_str());
    }
    std::printf("  %-30s %s\n", "--help", "this text");
    std::printf("\nexit status: 0 success; 1 bad flag, failed export "
                "or failed check;\n130 stopped by SIGINT/SIGTERM "
                "(snapshot saved); 131 a second signal\n(immediate "
                "exit, no snapshot).\n");
}

void
Harness::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg == "--help") {
            printUsage();
            std::exit(0);
        }
        const std::size_t eq = arg.find('=');
        const std::string_view name = arg.substr(0, eq);
        const auto match =
            std::find_if(flags_.begin(), flags_.end(),
                         [name](const Flag &f) { return f.name == name; });
        if (match == flags_.end())
            util::fatal("%s: unknown flag '%s' (try --help)",
                        name_.c_str(), argv[i]);
        if (match->toggle != nullptr) {
            if (eq != std::string_view::npos)
                util::fatal("%s: %s takes no value", name_.c_str(),
                            match->name.c_str());
            *match->toggle = true;
            continue;
        }
        if (eq == std::string_view::npos || eq + 1 == arg.size())
            util::fatal("%s: %s expects a value: %s=%s", name_.c_str(),
                        match->name.c_str(), match->name.c_str(),
                        match->meta.c_str());
        if (!match->set(argv[i] + eq + 1))
            util::fatal("%s: %s: malformed or out-of-range value '%s' "
                        "(expected %s)",
                        name_.c_str(), match->name.c_str(),
                        argv[i] + eq + 1, match->meta.c_str());
    }

    if (telemetryEnabled()) {
        std::error_code ec;
        std::filesystem::create_directories(telemetryDir_, ec);
        if (ec || !std::filesystem::is_directory(telemetryDir_, ec))
            util::fatal("%s: cannot create --telemetry-out directory "
                        "'%s': %s",
                        name_.c_str(), telemetryDir_.c_str(),
                        ec ? ec.message().c_str()
                           : "not a directory");
    }
}

void
Harness::addSimulated(double seconds, std::uint64_t events)
{
    simSeconds_ += seconds;
    simEvents_ += events;
}

std::string
Harness::resumeLatest(
    const std::string &base, unsigned keep,
    const std::function<util::Status(const std::string &)> &load) const
{
    const snapshot::Keeper keeper(base, keep);
    util::Status last = util::notFound(
        "no snapshot generation exists under '%s'", base.c_str());
    for (unsigned g = 0; g < keeper.keep(); ++g) {
        const std::string path = keeper.generationPath(g);
        const util::Status status = load(path);
        if (status.ok()) {
            if (g > 0)
                std::fprintf(stderr,
                             "%s: recovered: generation %u (%s) is the "
                             "newest valid snapshot\n",
                             name_.c_str(), g, path.c_str());
            return path;
        }
        if (status.code() == util::StatusCode::kFailedPrecondition)
            util::fatal("%s: cannot resume from '%s': %s", name_.c_str(),
                        path.c_str(), status.message().c_str());
        if (status.code() != util::StatusCode::kNotFound) {
            std::fprintf(stderr,
                         "%s: warning: snapshot generation %u unusable "
                         "[%s]: %s; trying an older generation\n",
                         name_.c_str(), g,
                         util::statusCodeName(status.code()),
                         status.message().c_str());
            last = status;
        } else if (g == 0) {
            last = status;
        }
    }
    util::fatal("%s: cannot resume from '%s': %s (no older generation "
                "was valid either)",
                name_.c_str(), base.c_str(), last.message().c_str());
}

void
Harness::check(bool ok, const char *what)
{
    std::printf("check: %-52s %s\n", what, ok ? "PASS" : "FAIL");
    ++checks_;
    failed_ += ok ? 0 : 1;
}

void
Harness::exportTelemetry()
{
    std::string error;
    const std::string csv = telemetryDir_ + "/metrics.csv";
    const std::string json = telemetryDir_ + "/metrics.json";
    const std::string trace = telemetryDir_ + "/trace.json";
    if (!telemetry::writeMetricsCsv(registry_, csv, &error) ||
        !telemetry::writeMetricsJson(registry_, json, &error) ||
        !trace_.writeChromeTrace(trace, &error))
        util::fatal("%s: telemetry export failed: %s", name_.c_str(),
                    error.c_str());

    telemetry::BenchRecord record;
    record.bench = name_;
    record.gitSha = telemetry::currentGitSha();
    record.wallSeconds = timer_.seconds();
    record.simSeconds = simSeconds_;
    record.simEvents = simEvents_;
    record.peakRssBytes = telemetry::currentPeakRssBytes();
    record.threads = threads_;
    std::string record_path;
    if (!telemetry::writeBenchRecord(telemetryDir_, record, &error,
                                     &record_path))
        util::fatal("%s: telemetry export failed: %s", name_.c_str(),
                    error.c_str());
    std::printf("\ntelemetry: %s, %s,\n           %s, %s\n", csv.c_str(),
                json.c_str(), trace.c_str(), record_path.c_str());
}

int
Harness::finish(bool interrupted)
{
    if (telemetryEnabled())
        exportTelemetry();
    if (checks_ > 0) {
        if (failed_ == 0)
            std::fprintf(stderr, "%s: all %d checks passed\n",
                         name_.c_str(), checks_);
        else
            std::fprintf(stderr, "%s: %d of %d checks FAILED\n",
                         name_.c_str(), failed_, checks_);
    }
    if (interrupted)
        return kExitInterrupted;
    return failed_ > 0 ? 1 : 0;
}

} // namespace hdmr::bench
