/**
 * @file
 * ASCII table and CSV rendering for benchmark harness output.  Every
 * figure/table reproduction prints through this so the console output
 * has a uniform, diffable format.
 */

#ifndef HDMR_UTIL_TABLE_HH
#define HDMR_UTIL_TABLE_HH

#include <string>
#include <vector>

namespace hdmr::util
{

/**
 * A simple column-aligned text table.  Cells are strings; numeric
 * helpers format with a fixed precision.  Render with toString() or
 * write CSV with toCsv().
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Begin a new row; subsequent cell() calls append to it. */
    Table &row();

    /** Append a string cell to the current row. */
    Table &cell(const std::string &value);

    /** Append a formatted numeric cell. */
    Table &cell(double value, int precision = 2);

    /** Append an integer cell. */
    Table &cell(long long value);

    std::size_t numRows() const { return rows_.size(); }

    /** Render as an aligned ASCII table with a header rule. */
    std::string toString() const;

    /** Render as RFC-4180-ish CSV (quotes cells containing commas). */
    std::string toCsv() const;

    /** Print toString() to stdout. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with the given precision (fixed notation). */
std::string formatDouble(double value, int precision = 2);

/** Format a ratio like "1.19x". */
std::string formatSpeedup(double value);

/** Format a fraction like "27.3%". */
std::string formatPercent(double fraction, int precision = 1);

} // namespace hdmr::util

#endif // HDMR_UTIL_TABLE_HH
