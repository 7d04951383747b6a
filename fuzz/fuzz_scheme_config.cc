/**
 * @file
 * Fuzz harness for the scheme-config text parser
 * (monitor::parseSchemeConfig).
 *
 * Scheme configs are operator-supplied policy files, so the parser
 * faces arbitrary text from outside the process: it must reject every
 * malformation with a structured util::Status - never crash, never
 * allocate past kMaxSchemes / kMaxSchemeConfigBytes, and never leave
 * the output half-filled (an error leaves *out exactly as it was; the
 * sentinel trap below holds it to that).  Anything that parses must
 * also pass SchemeConfig::validate() (the parser's contract) and be
 * accepted by a SchemeEngine without fataling.
 *
 * Built two ways (see fuzz/CMakeLists.txt): as a libFuzzer binary
 * under -DHDMR_FUZZ=ON (Clang only), and as a plain replay binary
 * that runs the checked-in corpus under ctest with any compiler.
 */

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "monitor/scheme.hh"
#include "util/logging.hh"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    using namespace hdmr;
    using namespace hdmr::monitor;

    const std::string_view text(reinterpret_cast<const char *>(data),
                                size);

    // Sentinel no parse could produce: a failed parse must leave it.
    SchemeConfig out;
    Scheme sentinel;
    sentinel.name = "sentinel_untouched";
    sentinel.quota = 0xfeedfaceULL;
    out.schemes = {sentinel};
    out.writeTriggerBoost = 0.375;
    out.epochLengthenScale = 6.25;

    const util::Status status = parseSchemeConfig(text, &out);
    if (!status.ok()) {
        // Never half-filled: the sentinel survives any rejection.
        if (out.schemes.size() != 1 ||
            out.schemes[0].name != "sentinel_untouched" ||
            out.schemes[0].quota != 0xfeedfaceULL ||
            out.writeTriggerBoost != 0.375 ||
            out.epochLengthenScale != 6.25)
            util::panic("rejected parse half-filled the output");
        return 0;
    }

    // Parser contract: success implies validate() already passed.
    util::checkOk(out.validate());
    if (out.schemes.size() > kMaxSchemes)
        util::panic("parse exceeded kMaxSchemes");

    // An engine must accept any parsed config (nullptr sink =
    // evaluate-only), and its empty-state digest must be stable.
    SchemeEngine engine(out, nullptr);
    const std::uint64_t digest = engine.digest();
    SchemeEngine again(out, nullptr);
    if (again.digest() != digest)
        util::panic("engine digest unstable for identical configs");
    return 0;
}
