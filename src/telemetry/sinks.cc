#include "telemetry/sinks.hh"

#include <cinttypes>
#include <cstdio>

#include "telemetry/trace.hh"

namespace hdmr::telemetry
{

namespace
{

/** Shortest round-trippable decimal for a gauge value. */
std::string
formatDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

bool
atomicWrite(const std::string &path, const std::string &body,
            std::string *error)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        if (error != nullptr)
            *error = "cannot open '" + tmp + "' for writing";
        return false;
    }
    const bool write_ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
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

void
appendRow(std::string &body, const std::string &name, const char *kind,
          const std::string &field, const std::string &value)
{
    body += name;
    body += ',';
    body += kind;
    body += ',';
    body += field;
    body += ',';
    body += value;
    body += '\n';
}

} // namespace

bool
writeMetricsCsv(const Registry &registry, const std::string &path,
                std::string *error)
{
    std::string body = "# hdmr metrics v1\nname,kind,field,value\n";
    for (const auto &[name, metric] : registry.metrics()) {
        if (const Counter *c = std::get_if<Counter>(&metric)) {
            appendRow(body, name, "counter", "value",
                      std::to_string(c->value()));
        } else if (const Gauge *g = std::get_if<Gauge>(&metric)) {
            appendRow(body, name, "gauge", "value",
                      formatDouble(g->value()));
        } else {
            const auto &h = std::get<Log2Histogram>(metric);
            appendRow(body, name, "histogram", "count",
                      std::to_string(h.count()));
            appendRow(body, name, "histogram", "sum",
                      std::to_string(h.sum()));
            for (unsigned b = 0; b < Log2Histogram::kBuckets; ++b) {
                if (h.bucketCount(b) == 0)
                    continue;
                appendRow(body, name, "histogram",
                          "bucket" + std::to_string(b),
                          std::to_string(h.bucketCount(b)));
            }
        }
    }
    return atomicWrite(path, body, error);
}

bool
writeMetricsJson(const Registry &registry, const std::string &path,
                 std::string *error)
{
    std::string body = "{\"schema\":\"hdmr-metrics-v1\",\"metrics\":[";
    bool first = true;
    char buf[96];
    for (const auto &[name, metric] : registry.metrics()) {
        if (!first)
            body += ',';
        first = false;
        body += "\n{\"name\":\"" + jsonEscape(name) + "\",";
        if (const Counter *c = std::get_if<Counter>(&metric)) {
            std::snprintf(buf, sizeof(buf),
                          "\"kind\":\"counter\",\"value\":%" PRIu64 "}",
                          c->value());
            body += buf;
        } else if (const Gauge *g = std::get_if<Gauge>(&metric)) {
            std::snprintf(buf, sizeof(buf),
                          "\"kind\":\"gauge\",\"value\":%.17g}",
                          g->value());
            body += buf;
        } else {
            const auto &h = std::get<Log2Histogram>(metric);
            std::snprintf(buf, sizeof(buf),
                          "\"kind\":\"histogram\",\"count\":%" PRIu64
                          ",\"sum\":%" PRIu64 ",\"buckets\":{",
                          h.count(), h.sum());
            body += buf;
            bool first_bucket = true;
            for (unsigned b = 0; b < Log2Histogram::kBuckets; ++b) {
                if (h.bucketCount(b) == 0)
                    continue;
                std::snprintf(buf, sizeof(buf), "%s\"%u\":%" PRIu64,
                              first_bucket ? "" : ",", b,
                              h.bucketCount(b));
                first_bucket = false;
                body += buf;
            }
            body += "}}";
        }
    }
    body += "\n]}\n";
    return atomicWrite(path, body, error);
}

} // namespace hdmr::telemetry
