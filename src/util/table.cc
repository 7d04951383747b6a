#include "util/table.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/logging.hh"

namespace hdmr::util
{

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
    hdmr_assert(!headers_.empty());
}

Table &
Table::row()
{
    rows_.emplace_back();
    return *this;
}

Table &
Table::cell(const std::string &value)
{
    hdmr_assert(!rows_.empty(), "call row() before cell()");
    hdmr_assert(rows_.back().size() < headers_.size(),
                "row has more cells than headers");
    rows_.back().push_back(value);
    return *this;
}

Table &
Table::cell(double value, int precision)
{
    return cell(formatDouble(value, precision));
}

Table &
Table::cell(long long value)
{
    return cell(std::to_string(value));
}

std::string
Table::toString() const
{
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t i = 0; i < headers_.size(); ++i)
        widths[i] = headers_[i].size();
    for (const auto &r : rows_)
        for (std::size_t i = 0; i < r.size(); ++i)
            widths[i] = std::max(widths[i], r[i].size());

    auto render_row = [&](const std::vector<std::string> &cells) {
        std::string line;
        for (std::size_t i = 0; i < headers_.size(); ++i) {
            const std::string &text = i < cells.size() ? cells[i] : "";
            line += "| " + text + std::string(widths[i] - text.size(), ' ') +
                    ' ';
        }
        line += "|\n";
        return line;
    };

    std::string rule = "+";
    for (std::size_t w : widths)
        rule += std::string(w + 2, '-') + "+";
    rule += "\n";

    std::string out = rule + render_row(headers_) + rule;
    for (const auto &r : rows_)
        out += render_row(r);
    out += rule;
    return out;
}

std::string
Table::toCsv() const
{
    auto escape = [](const std::string &cell) {
        if (cell.find_first_of(",\"\n") == std::string::npos)
            return cell;
        std::string quoted = "\"";
        for (char ch : cell) {
            if (ch == '"')
                quoted += '"';
            quoted += ch;
        }
        quoted += '"';
        return quoted;
    };
    std::ostringstream out;
    for (std::size_t i = 0; i < headers_.size(); ++i)
        out << (i ? "," : "") << escape(headers_[i]);
    out << '\n';
    for (const auto &r : rows_) {
        for (std::size_t i = 0; i < r.size(); ++i)
            out << (i ? "," : "") << escape(r[i]);
        out << '\n';
    }
    return out.str();
}

void
Table::print() const
{
    std::fputs(toString().c_str(), stdout);
}

std::string
formatDouble(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
formatSpeedup(double value)
{
    return formatDouble(value, 2) + "x";
}

std::string
formatPercent(double fraction, int precision)
{
    return formatDouble(fraction * 100.0, precision) + "%";
}

} // namespace hdmr::util
