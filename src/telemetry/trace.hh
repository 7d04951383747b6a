/**
 * @file
 * Scoped tracing spans over *simulated* time, exported as Chrome
 * trace-event JSON.
 *
 * Every event carries two clocks: `ts` is simulated microseconds (so
 * Perfetto's timeline shows the simulation's own time axis), and each
 * begin/instant event additionally records the wall-clock microseconds
 * since the recorder was constructed in its args, so hot legs of a
 * sweep are visible as dense wall-time per sim-time regions.  Spans
 * are strictly nested per track (tid): ending a span that is not the
 * innermost open one on its track - or ending with none open - is a
 * bug in the instrumented layer and panics immediately rather than
 * producing a silently garbled trace.
 *
 * The recorder is observational: it is deliberately NOT part of the
 * snapshot/digest state (wall times differ across runs by design), so
 * a resumed run's trace simply starts at the resume point.
 *
 * Output is the Chrome trace-event "JSON object format" - an object
 * with a `traceEvents` array of B/E/i phase records - which both
 * chrome://tracing and ui.perfetto.dev load directly.
 */

#ifndef HDMR_TELEMETRY_TRACE_HH
#define HDMR_TELEMETRY_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hdmr::telemetry
{

/** One recorded trace event. */
struct TraceEvent
{
    enum class Phase : std::uint8_t
    {
        kBegin,   ///< "B"
        kEnd,     ///< "E"
        kInstant, ///< "i" (thread-scoped)
    };

    Phase phase = Phase::kInstant;
    /** Track the event renders on (one per leg / component). */
    std::uint32_t tid = 0;
    std::string name;
    std::string category;
    /** Simulated time, microseconds (the trace's `ts`). */
    double simMicros = 0.0;
    /** Wall time since recorder construction, microseconds. */
    double wallMicros = 0.0;
};

/** Records spans/instants and writes them as Chrome trace JSON. */
class TraceRecorder
{
  public:
    /** Default event cap; past it events are counted, not stored. */
    static constexpr std::size_t kDefaultMaxEvents = 1u << 20;

    explicit TraceRecorder(std::size_t max_events = kDefaultMaxEvents);

    /** Open a span on track `tid` at simulated time `sim_micros`. */
    void beginSpan(const std::string &name, const std::string &category,
                   double sim_micros, std::uint32_t tid = 0);

    /**
     * Close the innermost open span on track `tid`.  panics when the
     * track has no open span, or when `name` is non-empty and does not
     * match the innermost span (misnesting).
     */
    void endSpan(double sim_micros, std::uint32_t tid = 0,
                 const std::string &name = std::string());

    /** Record a thread-scoped instant event ("i" phase). */
    void instant(const std::string &name, const std::string &category,
                 double sim_micros, std::uint32_t tid = 0);

    /** Label a track; emitted as thread_name metadata. */
    void setThreadName(std::uint32_t tid, const std::string &name);

    const std::vector<TraceEvent> &events() const { return events_; }

    /** Events discarded because the cap was reached. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Write the Chrome trace-event JSON file.  Open spans are written
     * as-is (viewers auto-close them at the end of the trace).
     * Returns false and sets *error on I/O failure.
     */
    bool writeChromeTrace(const std::string &path,
                          std::string *error) const;

  private:
    void push(TraceEvent event);
    double wallMicrosNow() const;

    std::vector<TraceEvent> events_;
    /** Per-track stack of open span names (misnesting detection). */
    std::map<std::uint32_t, std::vector<std::string>> open_;
    std::map<std::uint32_t, std::string> threadNames_;
    std::size_t maxEvents_;
    std::uint64_t dropped_ = 0;
    std::chrono::steady_clock::time_point epoch_;
};

/** Escape a string for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string &text);

} // namespace hdmr::telemetry

#endif // HDMR_TELEMETRY_TRACE_HH
