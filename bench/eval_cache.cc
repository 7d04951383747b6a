#include "eval_cache.hh"

#include <istream>
#include <sstream>

namespace hdmr::bench
{

std::string
serializeEvalRow(const EvalRow &row)
{
    std::ostringstream out;
    out.precision(17); // round-trip exactly
    out << row.benchmark << ',' << row.suite << ',' << row.hierarchy
        << ',' << row.system << ',' << row.marginMts << ','
        << row.usageClass << ',' << row.execSeconds << ',' << row.epiNj
        << ',' << row.dramAccessesPerInstruction << ','
        << row.busUtilization << ',' << row.readBandwidthGBs << ','
        << row.writeBandwidthGBs << ',' << row.commFraction << ','
        << row.corrections;
    return out.str();
}

util::Status
parseEvalRow(const traces::CsvCursor &at, const std::string &line,
             EvalRow *row)
{
    *row = EvalRow{};
    EvalRow out;
    std::vector<std::string> fields;
    HDMR_RETURN_IF_ERROR(
        traces::splitCsvLine(at, line, kEvalCacheFields, &fields));
    constexpr double kHuge = 1.0e18;
    static const char *const kNames[4] = {"benchmark", "suite",
                                          "hierarchy", "system"};
    for (unsigned i = 0; i < 4; ++i) {
        if (fields[i].empty()) {
            return util::dataLoss("%s:%zu: field %u: empty name",
                                  at.file.c_str(), at.line, i + 1);
        }
        if (fields[i].size() > kMaxEvalNameBytes) {
            return util::resourceExhausted(
                "%s:%zu: field '%s': %zu-byte name exceeds the "
                "%zu-byte cap",
                at.file.c_str(), at.line, kNames[i], fields[i].size(),
                kMaxEvalNameBytes);
        }
    }
    out.benchmark = fields[0];
    out.suite = fields[1];
    out.hierarchy = fields[2];
    out.system = fields[3];
    std::uint64_t margin = 0, usage_class = 0;
    HDMR_RETURN_IF_ERROR(traces::parseCsvUnsigned(
        at, "marginMts", fields[4], 0, 100000, &margin));
    HDMR_RETURN_IF_ERROR(traces::parseCsvUnsigned(
        at, "usageClass", fields[5], 0, 2, &usage_class));
    out.marginMts = static_cast<unsigned>(margin);
    out.usageClass = static_cast<unsigned>(usage_class);
    HDMR_RETURN_IF_ERROR(traces::parseCsvDouble(
        at, "execSeconds", fields[6], 0.0, kHuge, &out.execSeconds));
    HDMR_RETURN_IF_ERROR(traces::parseCsvDouble(
        at, "epiNj", fields[7], 0.0, kHuge, &out.epiNj));
    HDMR_RETURN_IF_ERROR(traces::parseCsvDouble(
        at, "dramAccessesPerInstruction", fields[8], 0.0, kHuge,
        &out.dramAccessesPerInstruction));
    // Utilization is normalised to the 3200 MT/s specification peak;
    // fast reads run up to the row's margin above it.
    HDMR_RETURN_IF_ERROR(traces::parseCsvDouble(
        at, "busUtilization", fields[9], 0.0,
        (3200.0 + static_cast<double>(margin)) / 3200.0,
        &out.busUtilization));
    HDMR_RETURN_IF_ERROR(traces::parseCsvDouble(
        at, "readBandwidthGBs", fields[10], 0.0, kHuge,
        &out.readBandwidthGBs));
    HDMR_RETURN_IF_ERROR(traces::parseCsvDouble(
        at, "writeBandwidthGBs", fields[11], 0.0, kHuge,
        &out.writeBandwidthGBs));
    HDMR_RETURN_IF_ERROR(
        traces::parseCsvDouble(at, "commFraction", fields[12], 0.0,
                               1.0, &out.commFraction));
    HDMR_RETURN_IF_ERROR(traces::parseCsvDouble(
        at, "corrections", fields[13], 0.0, kHuge,
        &out.corrections));
    *row = std::move(out);
    return util::Status{};
}

util::Status
loadEvalCache(std::istream &in, const std::string &name,
              std::vector<EvalRow> *rows)
{
    rows->clear();
    traces::CsvCursor at{name, 0};
    util::Status status;
    std::string line;
    while (traces::readCsvLine(in, &at, &line, &status)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (rows->size() >= kMaxEvalCacheRows) {
            rows->clear();
            return util::resourceExhausted(
                "%s:%zu: more than %zu cache rows (corrupt or "
                "runaway file)",
                name.c_str(), at.line, kMaxEvalCacheRows);
        }
        EvalRow row;
        status = parseEvalRow(at, line, &row);
        if (!status.ok()) {
            rows->clear();
            return status;
        }
        rows->push_back(std::move(row));
    }
    if (!status.ok()) {
        rows->clear();
        return status;
    }
    return util::Status{};
}

} // namespace hdmr::bench
