/**
 * @file
 * Evaluation-grid result cache rows and their CSV wire format.
 *
 * Split out of eval_common so the cache parser can be exercised (and
 * fuzzed) without linking the node simulator: this unit depends only
 * on the traces CSV helpers and util::Status.
 *
 * A result cache is machine-written, so any malformed line means the
 * file is corrupt (truncated write, disk fault, manual edit) and
 * silently skipping it would quietly re-run - or worse, mis-plot -
 * that configuration.  Parsing therefore rejects loudly with a
 * structured Status naming the file, line and field, and enforces
 * resource caps so a corrupt or hostile cache cannot balloon memory.
 */

#ifndef HDMR_BENCH_EVAL_CACHE_HH
#define HDMR_BENCH_EVAL_CACHE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "traces/csv.hh"
#include "util/status.hh"

namespace hdmr::bench
{

/** One evaluated configuration with the stats the figures consume. */
struct EvalRow
{
    std::string benchmark;
    std::string suite;
    std::string hierarchy;    ///< "Hierarchy1" / "Hierarchy2"
    std::string system;       ///< toString(MemorySystemKind)
    unsigned marginMts = 0;
    unsigned usageClass = 0;  ///< 0: <25 %, 1: <50 %, 2: >=50 %
    double execSeconds = 0.0;
    double epiNj = 0.0;
    double dramAccessesPerInstruction = 0.0;
    double busUtilization = 0.0; ///< <= (3200 + marginMts) / 3200
    double readBandwidthGBs = 0.0;
    double writeBandwidthGBs = 0.0;
    double commFraction = 0.0;
    double corrections = 0.0;
};

/** Fields per cache record (the EvalRow members, in order). */
inline constexpr std::size_t kEvalCacheFields = 14;

/** Cap on each of the four name fields; real names are < 32 bytes. */
inline constexpr std::size_t kMaxEvalNameBytes = 256;

/** Cap on rows per cache file; real grids are a few thousand rows. */
inline constexpr std::size_t kMaxEvalCacheRows = 1u << 20;

/** One cache record in the parseEvalRow() format. */
std::string serializeEvalRow(const EvalRow &row);

/**
 * Parse one cache record.  Rejects a wrong field count, empty or
 * over-long name fields, non-numeric/non-finite stats and values
 * outside their documented ranges with a Status naming the source,
 * line and field.  *row is default-initialized on error.
 */
util::Status parseEvalRow(const traces::CsvCursor &at,
                          const std::string &line, EvalRow *row);

/**
 * Load a whole cache stream ('#' comments and blank lines skipped).
 * Enforces kMaxCsvLineBytes per line and kMaxEvalCacheRows per file;
 * *rows is cleared on error, never half-filled.
 */
util::Status loadEvalCache(std::istream &in, const std::string &name,
                           std::vector<EvalRow> *rows);

} // namespace hdmr::bench

#endif // HDMR_BENCH_EVAL_CACHE_HH
