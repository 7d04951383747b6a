/**
 * @file
 * Tests for the bench result-cache wire format (bench/eval_cache):
 * serialize -> parse round-trip, rejection of malformed records with
 * Status codes naming the offending cell, the never-half-filled
 * output contract, and the resource caps (name length, row count)
 * that keep a corrupt or hostile cache from ballooning memory.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "eval_cache.hh"
#include "util/status.hh"

namespace
{

using namespace hdmr;
using namespace hdmr::bench;

EvalRow
referenceRow()
{
    EvalRow row;
    row.benchmark = "bt.C";
    row.suite = "npb";
    row.hierarchy = "Hierarchy1";
    row.system = "ddr4-2400";
    row.marginMts = 200;
    row.usageClass = 1;
    row.execSeconds = 12.5;
    row.epiNj = 3.25;
    row.dramAccessesPerInstruction = 0.02;
    row.busUtilization = 0.5;
    row.readBandwidthGBs = 10.0;
    row.writeBandwidthGBs = 5.0;
    row.commFraction = 0.25;
    row.corrections = 100.0;
    return row;
}

util::Status
parseLine(const std::string &line, EvalRow *row)
{
    const traces::CsvCursor at{"cache.csv", 7};
    return parseEvalRow(at, line, row);
}

void
expectRejected(const std::string &line, util::StatusCode code,
               const std::string &needle)
{
    EvalRow row;
    const util::Status status = parseLine(line, &row);
    EXPECT_EQ(status.code(), code) << status.toString();
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << status.message();
    // *row is default-initialized on error, never half-filled.
    EXPECT_TRUE(row.benchmark.empty());
    EXPECT_EQ(row.marginMts, 0u);
}

TEST(EvalCache, SerializeParseRoundTrip)
{
    const EvalRow row = referenceRow();
    EvalRow parsed;
    const util::Status status =
        parseLine(serializeEvalRow(row), &parsed);
    ASSERT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(parsed.benchmark, row.benchmark);
    EXPECT_EQ(parsed.suite, row.suite);
    EXPECT_EQ(parsed.hierarchy, row.hierarchy);
    EXPECT_EQ(parsed.system, row.system);
    EXPECT_EQ(parsed.marginMts, row.marginMts);
    EXPECT_EQ(parsed.usageClass, row.usageClass);
    EXPECT_EQ(parsed.execSeconds, row.execSeconds);
    EXPECT_EQ(parsed.epiNj, row.epiNj);
    EXPECT_EQ(parsed.dramAccessesPerInstruction,
              row.dramAccessesPerInstruction);
    EXPECT_EQ(parsed.busUtilization, row.busUtilization);
    EXPECT_EQ(parsed.readBandwidthGBs, row.readBandwidthGBs);
    EXPECT_EQ(parsed.writeBandwidthGBs, row.writeBandwidthGBs);
    EXPECT_EQ(parsed.commFraction, row.commFraction);
    EXPECT_EQ(parsed.corrections, row.corrections);
}

TEST(EvalCache, RejectsWrongFieldCount)
{
    expectRejected("bt.C,npb,Hierarchy1",
                   util::StatusCode::kDataLoss, "cache.csv:7");
}

TEST(EvalCache, RejectsEmptyNameField)
{
    expectRejected(",npb,Hierarchy1,ddr4-2400,200,0,1,1,1,0.5,1,1,0.5,1",
                   util::StatusCode::kDataLoss, "empty name");
}

TEST(EvalCache, RejectsOverLongNameField)
{
    const std::string name(kMaxEvalNameBytes + 1, 'x');
    expectRejected(name +
                       ",npb,Hierarchy1,ddr4-2400,200,0,1,1,1,0.5,1,1,"
                       "0.5,1",
                   util::StatusCode::kResourceExhausted, "benchmark");
}

TEST(EvalCache, RejectsNonNumericStat)
{
    expectRejected(
        "bt.C,npb,Hierarchy1,ddr4-2400,200,0,fast,1,1,0.5,1,1,0.5,1",
        util::StatusCode::kDataLoss, "execSeconds");
}

TEST(EvalCache, RejectsOutOfRangeUtilization)
{
    expectRejected(
        "bt.C,npb,Hierarchy1,ddr4-2400,200,0,1,1,1,2.0,1,1,0.5,1",
        util::StatusCode::kOutOfRange, "busUtilization");
}

// Row 10 of fig12's grid cache: Hetero-DMR+FMR reads run at
// 3200 + 800 MT/s, so utilization of the 3200 MT/s peak exceeds 1.
const char *const kFig12Row10 =
    "hpcg,HPCG,Hierarchy1,Hetero-DMR+FMR,800,0,0.00026938325799999999,"
    "6.2221388716483199,0.033132584903172418,1.0819900322090543,"
    "27.664733344341691,0.034211480210102736,0.10250688259179047,1";

TEST(EvalCache, AcceptsUtilizationUpToTheMarginCeiling)
{
    EvalRow row;
    const util::Status status = parseLine(kFig12Row10, &row);
    ASSERT_TRUE(status.ok()) << status.toString();
    EXPECT_EQ(row.system, "Hetero-DMR+FMR");
    EXPECT_EQ(row.busUtilization, 1.0819900322090543);
}

TEST(EvalCache, RejectsUtilizationAboveTheMarginCeiling)
{
    // The same row at 1.30: above (3200 + 800) / 3200 = 1.25.
    std::string line = kFig12Row10;
    const std::string utilization = "1.0819900322090543";
    line.replace(line.find(utilization), utilization.size(), "1.30");
    expectRejected(line, util::StatusCode::kOutOfRange,
                   "busUtilization");
}

TEST(EvalCache, RejectsOutOfRangeUsageClass)
{
    expectRejected(
        "bt.C,npb,Hierarchy1,ddr4-2400,200,3,1,1,1,0.5,1,1,0.5,1",
        util::StatusCode::kOutOfRange, "usageClass");
}

TEST(EvalCache, LoadSkipsCommentsAndBlankLines)
{
    std::istringstream in("# eval cache v1\n\n" +
                          serializeEvalRow(referenceRow()) + "\n");
    std::vector<EvalRow> rows;
    const util::Status status = loadEvalCache(in, "cache.csv", &rows);
    ASSERT_TRUE(status.ok()) << status.message();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].benchmark, "bt.C");
}

TEST(EvalCache, LoadClearsRowsOnMidStreamError)
{
    std::istringstream in(serializeEvalRow(referenceRow()) + "\n" +
                          "truncated,record\n");
    std::vector<EvalRow> rows;
    const util::Status status = loadEvalCache(in, "cache.csv", &rows);
    EXPECT_EQ(status.code(), util::StatusCode::kDataLoss)
        << status.toString();
    EXPECT_NE(status.message().find("cache.csv:2"), std::string::npos)
        << status.message();
    EXPECT_TRUE(rows.empty()) << "error must not half-fill the output";
}

TEST(EvalCache, LoadRejectsOverLongLine)
{
    std::istringstream in(std::string(traces::kMaxCsvLineBytes + 10,
                                      'x'));
    std::vector<EvalRow> rows;
    const util::Status status = loadEvalCache(in, "cache.csv", &rows);
    EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted)
        << status.toString();
    EXPECT_TRUE(rows.empty());
}

} // namespace
