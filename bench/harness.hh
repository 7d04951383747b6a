/**
 * @file
 * The one bench harness.  Every bench binary that takes flags does
 * its command line, stop signals, snapshot-generation resume,
 * telemetry export and PASS/FAIL gates through here, so they share
 * one flag syntax, one export-failure policy and one exit-code
 * contract:
 *
 *   0    success (and every gate passed)
 *   1    bad flag, failed telemetry export, failed gate, or any other
 *        fatal error
 *   130  stopped by SIGINT/SIGTERM after saving a resumable snapshot
 *   131  a second SIGINT/SIGTERM: immediate exit, no snapshot
 *
 * Flags are strict: `--name=value` for valued flags and a bare
 * `--name` for switches.  An unknown flag, a missing or empty value,
 * or a value that does not parse as a whole (numbers must also be
 * finite and in range) is fatal; `--help` lists every flag the binary
 * accepts and exits 0.
 *
 * Every one of them takes `--telemetry-out=<dir>`.  The directory is
 * created while parsing, before any simulation starts, and finish()
 * writes metrics.csv, metrics.json, trace.json and BENCH_<name>.json
 * into it - any write failure is fatal.
 */

#ifndef HDMR_BENCH_HARNESS_HH
#define HDMR_BENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "telemetry/bench_record.hh"
#include "telemetry/telemetry.hh"
#include "util/status.hh"

namespace hdmr::bench
{

/** Exit code after a graceful SIGINT/SIGTERM stop. */
constexpr int kExitInterrupted = 130;
/** Exit code of the second-signal immediate exit. */
constexpr int kExitForced = 131;

/**
 * Install the SIGINT/SIGTERM handlers.  The handler is strictly
 * async-signal-safe: the first signal only sets the flag
 * stopRequested() reads, and the run loop acts on it at its next
 * decision point (where it writes its final snapshot in normal
 * context).  A second signal means that graceful path is stuck -
 * most likely a snapshot write hanging on a dead disk - so it
 * _exit()s at once with kExitForced, flushing nothing.
 */
void catchStopSignals();

/** True once a SIGINT/SIGTERM has arrived. */
bool stopRequested();

/** Flags, telemetry export and gates of one bench binary. */
class Harness
{
  public:
    /** `name` names the binary: usage text, messages, BENCH record. */
    explicit Harness(std::string name);

    const std::string &name() const { return name_; }

    // ---- Flags: register before parse(). ----

    /** A bare switch, `--name`. */
    void flag(const char *name, bool *out, const char *help);
    /** `--name=<meta>`: any non-empty text. */
    void flag(const char *name, std::string *out, const char *meta,
              const char *help);
    /** `--name=<n>`: a decimal or 0x-hex integer in [min, max]. */
    void flag(const char *name, std::uint64_t *out, const char *help,
              std::uint64_t min = 0,
              std::uint64_t max = ~std::uint64_t(0));
    /** `--name=<n>` into an unsigned, range-checked the same way. */
    void flag(const char *name, unsigned *out, const char *help,
              unsigned min = 0, unsigned max = ~0u);
    /** `--name=<meta>`: a finite real number. */
    void flag(const char *name, double *out, const char *meta,
              const char *help);

    /**
     * Parse argv against the registered flags; fatal on any bad
     * argument, prints the usage and exits 0 on --help.  Creates the
     * --telemetry-out directory.
     */
    void parse(int argc, char **argv);

    // ---- Telemetry. ----

    bool telemetryEnabled() const { return !telemetryDir_.empty(); }
    const std::string &telemetryDir() const { return telemetryDir_; }
    /** Metrics exported by finish() (left empty without telemetry). */
    telemetry::Registry &registry() { return registry_; }
    /** Trace exported by finish() as trace.json. */
    telemetry::TraceRecorder &trace() { return trace_; }
    /** Account simulated time and events for the BENCH record. */
    void addSimulated(double seconds, std::uint64_t events);
    /** Worker threads reported in the BENCH record (default 1). */
    void setThreads(unsigned threads) { threads_ = threads; }

    // ---- Resume. ----

    /**
     * Resume from the newest usable snapshot::Keeper generation of
     * `base`, walking newest-first.  `load` decodes one generation
     * file; a damaged one (any status but kFailedPrecondition)
     * is logged with its status code and the next older generation
     * is tried.  kFailedPrecondition - a well-formed image from a
     * different campaign, which every older generation would
     * mismatch the same way - and an exhausted rotation are fatal.
     * Returns the path of the generation that loaded.
     */
    std::string resumeLatest(
        const std::string &base, unsigned keep,
        const std::function<util::Status(const std::string &)> &load)
        const;

    // ---- Gates. ----

    /** Record one gate and print `check: <what> PASS|FAIL`. */
    void check(bool ok, const char *what);

    /**
     * Final bookkeeping: exports the telemetry (when enabled; fatal
     * on any failure) and, if any gate ran, prints one summary line
     * to stderr.  Returns the exit code: kExitInterrupted when
     * `interrupted`, else 1 if a gate failed, else 0.
     */
    int finish(bool interrupted = false);

  private:
    struct Flag
    {
        std::string name;
        std::string meta; ///< empty for switches
        std::string help;
        bool *toggle = nullptr;
        /** Stores a valued flag; false when the text is malformed. */
        std::function<bool(const char *)> set;
    };

    void addValued(const char *name, const char *meta, const char *help,
                   std::function<bool(const char *)> set);
    void printUsage() const;
    void exportTelemetry();

    std::string name_;
    std::vector<Flag> flags_;
    std::string telemetryDir_;
    telemetry::Registry registry_;
    telemetry::TraceRecorder trace_;
    telemetry::WallTimer timer_;
    double simSeconds_ = 0.0;
    std::uint64_t simEvents_ = 0;
    unsigned threads_ = 1;
    int checks_ = 0;
    int failed_ = 0;
};

} // namespace hdmr::bench

#endif // HDMR_BENCH_HARNESS_HH
