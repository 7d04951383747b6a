#include "telemetry/trace.hh"

#include <cinttypes>
#include <cstdio>

#include "util/logging.hh"

namespace hdmr::telemetry
{

TraceRecorder::TraceRecorder(std::size_t max_events)
    : maxEvents_(max_events), epoch_(std::chrono::steady_clock::now())
{
}

double
TraceRecorder::wallMicrosNow() const
{
    const auto elapsed = std::chrono::steady_clock::now() - epoch_;
    return std::chrono::duration<double, std::micro>(elapsed).count();
}

void
TraceRecorder::push(TraceEvent event)
{
    if (events_.size() >= maxEvents_) {
        ++dropped_;
        return;
    }
    events_.push_back(std::move(event));
}

void
TraceRecorder::beginSpan(const std::string &name,
                         const std::string &category, double sim_micros,
                         std::uint32_t tid)
{
    // The nesting stack is maintained even for dropped events, so a
    // capped trace still end-checks correctly.
    open_[tid].push_back(name);
    push({TraceEvent::Phase::kBegin, tid, name, category, sim_micros,
          wallMicrosNow()});
}

void
TraceRecorder::endSpan(double sim_micros, std::uint32_t tid,
                       const std::string &name)
{
    auto it = open_.find(tid);
    if (it == open_.end() || it->second.empty())
        util::panic("telemetry: endSpan('%s') on track %u with no open "
                    "span",
                    name.c_str(), tid);
    const std::string innermost = std::move(it->second.back());
    it->second.pop_back();
    if (!name.empty() && name != innermost)
        util::panic("telemetry: endSpan('%s') on track %u but the "
                    "innermost open span is '%s' (misnested spans)",
                    name.c_str(), tid, innermost.c_str());
    push({TraceEvent::Phase::kEnd, tid, innermost, std::string(),
          sim_micros, wallMicrosNow()});
}

void
TraceRecorder::instant(const std::string &name,
                       const std::string &category, double sim_micros,
                       std::uint32_t tid)
{
    push({TraceEvent::Phase::kInstant, tid, name, category, sim_micros,
          wallMicrosNow()});
}

void
TraceRecorder::setThreadName(std::uint32_t tid, const std::string &name)
{
    threadNames_[tid] = name;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

bool
TraceRecorder::writeChromeTrace(const std::string &path,
                                std::string *error) const
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        if (error != nullptr)
            *error = "cannot open '" + tmp + "' for writing";
        return false;
    }

    std::fprintf(f, "{\"displayTimeUnit\":\"ms\","
                    "\"otherData\":{\"clock\":\"simulated_microseconds\","
                    "\"dropped_events\":%" PRIu64 "},"
                    "\"traceEvents\":[",
                 dropped_);
    bool first = true;
    const auto sep = [&first, f]() {
        if (!first)
            std::fputc(',', f);
        first = false;
        std::fputc('\n', f);
    };
    for (const auto &[tid, name] : threadNames_) {
        sep();
        std::fprintf(f,
                     "{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                     "\"name\":\"thread_name\",\"args\":{\"name\":"
                     "\"%s\"}}",
                     tid, jsonEscape(name).c_str());
    }
    for (const TraceEvent &ev : events_) {
        sep();
        switch (ev.phase) {
          case TraceEvent::Phase::kBegin:
            std::fprintf(f,
                         "{\"ph\":\"B\",\"pid\":1,\"tid\":%u,"
                         "\"ts\":%.3f,\"name\":\"%s\",\"cat\":\"%s\","
                         "\"args\":{\"wall_us\":%.1f}}",
                         ev.tid, ev.simMicros,
                         jsonEscape(ev.name).c_str(),
                         jsonEscape(ev.category).c_str(),
                         ev.wallMicros);
            break;
          case TraceEvent::Phase::kEnd:
            std::fprintf(f,
                         "{\"ph\":\"E\",\"pid\":1,\"tid\":%u,"
                         "\"ts\":%.3f,\"args\":{\"wall_us\":%.1f}}",
                         ev.tid, ev.simMicros, ev.wallMicros);
            break;
          case TraceEvent::Phase::kInstant:
            std::fprintf(f,
                         "{\"ph\":\"i\",\"pid\":1,\"tid\":%u,"
                         "\"ts\":%.3f,\"name\":\"%s\",\"cat\":\"%s\","
                         "\"s\":\"t\",\"args\":{\"wall_us\":%.1f}}",
                         ev.tid, ev.simMicros,
                         jsonEscape(ev.name).c_str(),
                         jsonEscape(ev.category).c_str(),
                         ev.wallMicros);
            break;
        }
    }
    std::fprintf(f, "\n]}\n");

    const bool write_ok = std::ferror(f) == 0;
    const bool close_ok = std::fclose(f) == 0;
    if (!write_ok || !close_ok) {
        if (error != nullptr)
            *error = "write to '" + tmp + "' failed";
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error != nullptr)
            *error = "rename '" + tmp + "' -> '" + path + "' failed";
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace hdmr::telemetry
