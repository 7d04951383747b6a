/**
 * @file
 * Tests for the ECC library: GF(256) field axioms and the table-driven
 * multiply against a shift-and-xor reference, Reed-Solomon
 * round-trip/correction/detection properties, the Bamboo block codec
 * with address folding, and detection-only semantics that Hetero-DMR
 * relies on.  Property-style sweeps use parameterized gtest.
 */

#include <gtest/gtest.h>

#include <vector>

#include "ecc/bamboo.hh"
#include "ecc/error_inject.hh"
#include "ecc/gf256.hh"
#include "ecc/reed_solomon.hh"
#include "rs_reference.hh"
#include "util/rng.hh"

namespace
{

using namespace hdmr::ecc;
using hdmr::util::Rng;

// --------------------------------------------------------------------
// GF(256)
// --------------------------------------------------------------------

TEST(Gf256, AdditionIsXorAndSelfInverse)
{
    EXPECT_EQ(Gf256::add(0x57, 0x83), 0x57 ^ 0x83);
    for (unsigned a = 0; a < 256; ++a)
        EXPECT_EQ(Gf256::add(static_cast<GfElem>(a),
                             static_cast<GfElem>(a)), 0);
}

TEST(Gf256, MultiplicationIdentityAndZero)
{
    for (unsigned a = 0; a < 256; ++a) {
        EXPECT_EQ(Gf256::mul(static_cast<GfElem>(a), 1),
                  static_cast<GfElem>(a));
        EXPECT_EQ(Gf256::mul(static_cast<GfElem>(a), 0), 0);
    }
}

TEST(Gf256, MultiplicationCommutesAndAssociates)
{
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        const auto a = static_cast<GfElem>(rng.uniformInt(0, 255));
        const auto b = static_cast<GfElem>(rng.uniformInt(0, 255));
        const auto c = static_cast<GfElem>(rng.uniformInt(0, 255));
        EXPECT_EQ(Gf256::mul(a, b), Gf256::mul(b, a));
        EXPECT_EQ(Gf256::mul(Gf256::mul(a, b), c),
                  Gf256::mul(a, Gf256::mul(b, c)));
    }
}

TEST(Gf256, DistributesOverAddition)
{
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
        const auto a = static_cast<GfElem>(rng.uniformInt(0, 255));
        const auto b = static_cast<GfElem>(rng.uniformInt(0, 255));
        const auto c = static_cast<GfElem>(rng.uniformInt(0, 255));
        EXPECT_EQ(Gf256::mul(a, Gf256::add(b, c)),
                  Gf256::add(Gf256::mul(a, b), Gf256::mul(a, c)));
    }
}

TEST(Gf256, MulMatchesShiftAndXorForEveryPair)
{
    for (unsigned a = 0; a < 256; ++a) {
        for (unsigned b = 0; b < 256; ++b) {
            const auto x = static_cast<GfElem>(a);
            const auto y = static_cast<GfElem>(b);
            ASSERT_EQ(Gf256::mul(x, y), hdmr::test::referenceMul(x, y))
                << a << " * " << b;
        }
    }
}

TEST(Gf256, DivUndoesMulForEveryNonZeroDivisor)
{
    for (unsigned a = 0; a < 256; ++a) {
        for (unsigned b = 1; b < 256; ++b) {
            const auto x = static_cast<GfElem>(a);
            const auto y = static_cast<GfElem>(b);
            ASSERT_EQ(Gf256::div(Gf256::mul(x, y), y), x)
                << a << " * " << b << " / " << b;
        }
    }
}

TEST(Gf256, InverseIsTwoSided)
{
    for (unsigned a = 1; a < 256; ++a) {
        const auto inv = Gf256::inv(static_cast<GfElem>(a));
        EXPECT_EQ(Gf256::mul(static_cast<GfElem>(a), inv), 1);
    }
}

TEST(Gf256, ExpLogRoundTrip)
{
    for (int p = 0; p < 255; ++p)
        EXPECT_EQ(Gf256::logAlpha(Gf256::expAlpha(p)), p);
    EXPECT_EQ(Gf256::expAlpha(255), Gf256::expAlpha(0));
    EXPECT_EQ(Gf256::expAlpha(-1), Gf256::expAlpha(254));
}

TEST(Gf256, PowMatchesRepeatedMul)
{
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        const auto a = static_cast<GfElem>(rng.uniformInt(1, 255));
        const int n = static_cast<int>(rng.uniformInt(0, 12));
        GfElem expected = 1;
        for (int j = 0; j < n; ++j)
            expected = Gf256::mul(expected, a);
        EXPECT_EQ(Gf256::pow(a, n), expected);
    }
}

// --------------------------------------------------------------------
// Reed-Solomon
// --------------------------------------------------------------------

std::vector<GfElem>
randomMessage(std::size_t k, Rng &rng)
{
    std::vector<GfElem> msg(k);
    for (auto &m : msg)
        m = static_cast<GfElem>(rng.uniformInt(0, 255));
    return msg;
}

std::vector<GfElem>
makeCodeword(const ReedSolomon &rs, const std::vector<GfElem> &msg)
{
    auto cw = msg;
    const auto parity = rs.encode(msg);
    cw.insert(cw.end(), parity.begin(), parity.end());
    return cw;
}

TEST(ReedSolomon, CleanCodewordHasZeroSyndromes)
{
    ReedSolomon rs(64, 8);
    Rng rng(10);
    for (int trial = 0; trial < 200; ++trial) {
        const auto cw = makeCodeword(rs, randomMessage(64, rng));
        EXPECT_FALSE(rs.detect(cw));
    }
}

TEST(ReedSolomon, DetectsAnySingleSymbolError)
{
    ReedSolomon rs(64, 8);
    Rng rng(11);
    auto cw = makeCodeword(rs, randomMessage(64, rng));
    for (std::size_t pos = 0; pos < cw.size(); ++pos) {
        auto bad = cw;
        bad[pos] ^= 0x5a;
        EXPECT_TRUE(rs.detect(bad)) << "position " << pos;
    }
}

/** Correction property sweep over the number of injected errors. */
class RsCorrection : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RsCorrection, CorrectsUpToTErrors)
{
    const unsigned num_errors = GetParam();
    ReedSolomon rs(64, 8);
    Rng rng(100 + num_errors);
    for (int trial = 0; trial < 100; ++trial) {
        const auto clean = makeCodeword(rs, randomMessage(64, rng));
        auto bad = clean;
        // Corrupt `num_errors` distinct positions.
        std::vector<std::size_t> picked;
        while (picked.size() < num_errors) {
            const auto pos = rng.uniformInt(0, bad.size() - 1);
            bool dup = false;
            for (auto p : picked)
                dup |= p == pos;
            if (!dup)
                picked.push_back(pos);
        }
        for (auto pos : picked)
            bad[pos] ^= static_cast<GfElem>(rng.uniformInt(1, 255));

        const auto result = rs.correct(bad);
        ASSERT_EQ(result.status, DecodeStatus::kCorrected);
        EXPECT_EQ(bad, clean);
        EXPECT_EQ(result.correctedPositions.size(), num_errors);
    }
}

INSTANTIATE_TEST_SUITE_P(OneToFourErrors, RsCorrection,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(ReedSolomon, FiveErrorsNeverSilentlyMiscorrect)
{
    ReedSolomon rs(64, 8);
    Rng rng(12);
    int corrected_wrong = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const auto clean = makeCodeword(rs, randomMessage(64, rng));
        auto bad = clean;
        for (std::size_t e = 0; e < 5; ++e)
            bad[rng.uniformInt(0, bad.size() - 1)] ^=
                static_cast<GfElem>(rng.uniformInt(1, 255));
        auto copy = bad;
        const auto result = rs.correct(copy);
        // Beyond-capability errors must never be reported as a clean
        // *incorrect* correction back to the original message region.
        if (result.status == DecodeStatus::kCorrected && copy != clean)
            ++corrected_wrong;
    }
    // RS(72,64) with 5 random errors miscorrects with probability
    // ~ 1e-3; what must NEVER happen is high-rate silent miscorrection.
    EXPECT_LE(corrected_wrong, 5);
}

TEST(ReedSolomon, CodewordUnchangedOnUncorrectable)
{
    ReedSolomon rs(64, 8);
    Rng rng(13);
    const auto clean = makeCodeword(rs, randomMessage(64, rng));
    for (int trial = 0; trial < 100; ++trial) {
        auto bad = clean;
        for (std::size_t e = 0; e < 20; ++e)
            bad[rng.uniformInt(0, bad.size() - 1)] ^=
                static_cast<GfElem>(rng.uniformInt(1, 255));
        auto attempt = bad;
        const auto result = rs.correct(attempt);
        if (result.status == DecodeStatus::kUncorrectable) {
            EXPECT_EQ(attempt, bad);
        }
    }
}

TEST(ReedSolomon, ForbiddenRangeTurnsCorrectionIntoDetection)
{
    ReedSolomon rs(72, 8);
    Rng rng(14);
    const auto clean = makeCodeword(rs, randomMessage(72, rng));
    // Inject an error inside the forbidden window [64, 72).
    auto bad = clean;
    bad[66] ^= 0x31;
    const auto result = rs.correct(bad, 64, 72);
    EXPECT_EQ(result.status, DecodeStatus::kDetectedOnly);
    EXPECT_EQ(bad[66], clean[66] ^ 0x31) << "data must stay untouched";
}

TEST(ReedSolomon, ParityOnlyErrorsAreCorrectable)
{
    ReedSolomon rs(64, 8);
    Rng rng(15);
    const auto clean = makeCodeword(rs, randomMessage(64, rng));
    auto bad = clean;
    bad[64] ^= 0xff; // first parity symbol
    bad[71] ^= 0x01; // last parity symbol
    const auto result = rs.correct(bad);
    EXPECT_EQ(result.status, DecodeStatus::kCorrected);
    EXPECT_EQ(bad, clean);
}

// --------------------------------------------------------------------
// Bamboo block codec
// --------------------------------------------------------------------

Block
randomBlock(Rng &rng)
{
    Block b;
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    return b;
}

TEST(Bamboo, EncodeDecodeCleanRoundTrip)
{
    BambooCodec codec;
    Rng rng(20);
    for (int trial = 0; trial < 100; ++trial) {
        const auto data = randomBlock(rng);
        const std::uint64_t addr = rng.next();
        auto coded = codec.encode(data, addr);
        const Parity parity = coded.parity;
        EXPECT_EQ(codec.decodeDetectOnly(coded, addr).status,
                  DecodeStatus::kClean);
        // The SDC oracle counts a re-read that drew no error as
        // recovered without decoding it; that holds only because a
        // clean block decodes clean and is left exactly as it was.
        const auto result = codec.decodeCorrecting(coded, addr);
        EXPECT_EQ(result.status, DecodeStatus::kClean);
        EXPECT_EQ(result.correctedSymbols, 0u);
        EXPECT_EQ(coded.data, data);
        EXPECT_EQ(coded.parity, parity);
    }
}

TEST(Bamboo, DetectOnlyFlagsButNeverModifies)
{
    BambooCodec codec;
    Rng rng(21);
    const auto data = randomBlock(rng);
    auto coded = codec.encode(data, 0x1000);
    corruptDataByte(coded, 5, 0x80);
    const auto snapshot = coded;
    const auto result = codec.decodeDetectOnly(coded, 0x1000);
    EXPECT_EQ(result.status, DecodeStatus::kDetectedOnly);
    EXPECT_EQ(coded.data, snapshot.data);
    EXPECT_EQ(coded.parity, snapshot.parity);
}

TEST(Bamboo, DetectOnlyCatchesAllPatternsUpToEightBytes)
{
    BambooCodec codec;
    Rng rng(22);
    for (unsigned width = 1; width <= 8; ++width) {
        for (int trial = 0; trial < 50; ++trial) {
            auto coded = codec.encode(randomBlock(rng), 0xdead000);
            corruptBytes(coded, width, rng);
            EXPECT_TRUE(
                codec.decodeDetectOnly(coded, 0xdead000).errorDetected())
                << "width " << width;
        }
    }
}

TEST(Bamboo, DetectsWideBlockErrorsInPractice)
{
    BambooCodec codec;
    Rng rng(23);
    int undetected = 0;
    for (int trial = 0; trial < 500; ++trial) {
        auto coded = codec.encode(randomBlock(rng), 0xbeef00);
        injectPattern(coded, ErrorPattern::kWideBlock, rng);
        undetected +=
            !codec.decodeDetectOnly(coded, 0xbeef00).errorDetected();
    }
    // Escape probability is 2^-64; seeing even one in 500 would be
    // astronomically unlikely.
    EXPECT_EQ(undetected, 0);
}

TEST(Bamboo, AddressMismatchIsDetected)
{
    BambooCodec codec;
    Rng rng(24);
    for (int trial = 0; trial < 100; ++trial) {
        const auto data = randomBlock(rng);
        const std::uint64_t addr = rng.next();
        std::uint64_t wrong = rng.next();
        if (wrong == addr)
            wrong ^= 0x40;
        const auto coded = codec.encode(data, addr);
        EXPECT_TRUE(
            codec.decodeDetectOnly(coded, wrong).errorDetected());
    }
}

TEST(Bamboo, SingleBitAddressErrorDetected)
{
    BambooCodec codec;
    Rng rng(25);
    const auto coded = codec.encode(randomBlock(rng), 0x123456789abcull);
    for (int bit = 0; bit < 48; ++bit) {
        const std::uint64_t wrong = 0x123456789abcull ^ (1ull << bit);
        EXPECT_TRUE(codec.decodeDetectOnly(coded, wrong).errorDetected())
            << "address bit " << bit;
    }
}

TEST(Bamboo, CorrectingModeRepairsUpToFourBytes)
{
    BambooCodec codec;
    Rng rng(26);
    for (unsigned width = 1; width <= 4; ++width) {
        for (int trial = 0; trial < 50; ++trial) {
            const auto data = randomBlock(rng);
            auto coded = codec.encode(data, 0x77);
            corruptBytes(coded, width, rng);
            const auto result = codec.decodeCorrecting(coded, 0x77);
            ASSERT_EQ(result.status, DecodeStatus::kCorrected);
            EXPECT_EQ(coded.data, data);
            EXPECT_EQ(result.correctedSymbols, width);
        }
    }
}

TEST(Bamboo, CorrectingModeNeverAppliesAddressCorrections)
{
    BambooCodec codec;
    Rng rng(27);
    // A pure address mismatch looks like errors in the virtual symbols;
    // the decoder must refuse to "correct" and must not corrupt data.
    const auto data = randomBlock(rng);
    auto coded = codec.encode(data, 0xaaaa);
    const auto result = codec.decodeCorrecting(coded, 0xaaab);
    EXPECT_NE(result.status, DecodeStatus::kCorrected);
    EXPECT_EQ(coded.data, data);
}

TEST(Bamboo, SameParityForOriginalAndBroadcastCopy)
{
    // Section III-C: original and copy share ECC byte values because the
    // detect-only optimization changes decode, not encode.  Original and
    // copy sit at the same channel offset (same folded address), so one
    // broadcast write covers both.
    BambooCodec codec;
    Rng rng(28);
    const auto data = randomBlock(rng);
    const auto original = codec.encode(data, 0x4000);
    const auto copy = codec.encode(data, 0x4000);
    EXPECT_EQ(original.parity, copy.parity);
}

TEST(Bamboo, EscapeProbabilityMatchesPaperConstant)
{
    // The paper: one SDC per 2^64 = 18446744073709600000 detected 8B+
    // errors (quoted there with rounding in the last digits).
    EXPECT_DOUBLE_EQ(BambooCodec::escapeProbability8BPlus(),
                     1.0 / 18446744073709551616.0);
}

TEST(ErrorInject, WideBlockChangesExactlyTheTouchedBytes)
{
    // injectPattern promises every touched byte actually changes; for
    // kWideBlock that means 9-40 distinct bytes differ from the clean
    // codeword, and detection-only Bamboo must flag the block.
    BambooCodec codec;
    Rng rng(29);
    for (int trial = 0; trial < 200; ++trial) {
        auto coded = codec.encode(randomBlock(rng), 0xabc00);
        const auto snapshot = coded;
        const unsigned touched =
            injectPattern(coded, ErrorPattern::kWideBlock, rng);
        EXPECT_GE(touched, 9u);
        EXPECT_LE(touched, 40u);

        unsigned changed = 0;
        for (std::size_t i = 0; i < BambooCodec::kDataBytes; ++i)
            changed += coded.data[i] != snapshot.data[i];
        for (std::size_t i = 0; i < BambooCodec::kParityBytes; ++i)
            changed += coded.parity[i] != snapshot.parity[i];
        EXPECT_EQ(changed, touched);

        EXPECT_TRUE(
            codec.decodeDetectOnly(coded, 0xabc00).errorDetected());
    }
}

// --------------------------------------------------------------------
// Error-injection edge cases
// --------------------------------------------------------------------

TEST(ErrorInject, ZeroErrorBurstIsNoOpAndConsumesNoRandomness)
{
    BambooCodec codec;
    Rng rng(30);
    auto coded = codec.encode(randomBlock(rng), 0x500);
    const auto snapshot = coded;

    Rng burst_rng(77);
    Rng reference_rng(77);
    EXPECT_EQ(corruptBytes(coded, 0, burst_rng), 0u);
    EXPECT_EQ(coded.data, snapshot.data);
    EXPECT_EQ(coded.parity, snapshot.parity);
    // The generator must not have advanced: its next draws match a
    // twin seeded identically that never saw the call.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(burst_rng.next(), reference_rng.next());
    EXPECT_EQ(codec.decodeDetectOnly(coded, 0x500).status,
              DecodeStatus::kClean);
}

TEST(ErrorInject, FullCodewordCorruptionTouchesAllStoredBytes)
{
    BambooCodec codec;
    Rng rng(31);
    constexpr unsigned kAll =
        BambooCodec::kDataBytes + BambooCodec::kParityBytes;
    for (int trial = 0; trial < 50; ++trial) {
        const auto data = randomBlock(rng);
        auto coded = codec.encode(data, 0x600);
        const auto snapshot = coded;
        EXPECT_EQ(corruptBytes(coded, kAll, rng), kAll);

        // Every single stored byte must differ - "distinct" positions
        // with guaranteed change means 72 injections cover the block.
        for (std::size_t i = 0; i < BambooCodec::kDataBytes; ++i)
            EXPECT_NE(coded.data[i], snapshot.data[i]) << "data " << i;
        for (std::size_t i = 0; i < BambooCodec::kParityBytes; ++i)
            EXPECT_NE(coded.parity[i], snapshot.parity[i])
                << "parity " << i;

        EXPECT_TRUE(
            codec.decodeDetectOnly(coded, 0x600).errorDetected());
        // Way beyond t=4: the correcting decoder must refuse rather
        // than fabricate data.
        const auto result = codec.decodeCorrecting(coded, 0x600);
        EXPECT_NE(result.status, DecodeStatus::kCorrected);
    }
}

TEST(ErrorInject, OverlappingInjectionsComposeByXor)
{
    BambooCodec codec;
    Rng rng(32);
    const auto data = randomBlock(rng);
    auto coded = codec.encode(data, 0x700);

    // Two hits on the same symbol with the same mask cancel out: the
    // block is bit-identical to clean and must decode as clean.
    corruptDataByte(coded, 9, 0x3c);
    corruptDataByte(coded, 9, 0x3c);
    EXPECT_EQ(coded.data, data);
    EXPECT_EQ(codec.decodeDetectOnly(coded, 0x700).status,
              DecodeStatus::kClean);

    // Different masks leave the XOR residue: one corrupted symbol,
    // detected and then corrected back to the truth.
    corruptDataByte(coded, 9, 0x3c);
    corruptDataByte(coded, 9, 0xc3);
    EXPECT_EQ(coded.data[9], data[9] ^ (0x3c ^ 0xc3));
    EXPECT_TRUE(codec.decodeDetectOnly(coded, 0x700).errorDetected());
    const auto result = codec.decodeCorrecting(coded, 0x700);
    EXPECT_EQ(result.status, DecodeStatus::kCorrected);
    EXPECT_EQ(result.correctedSymbols, 1u);
    EXPECT_EQ(coded.data, data);

    // Overlapping a data hit with a parity hit on the same trial:
    // still two distinct symbols, still fully recoverable.
    corruptDataByte(coded, 40, 0x01);
    corruptParityByte(coded, 3, 0x80);
    EXPECT_EQ(codec.decodeCorrecting(coded, 0x700).status,
              DecodeStatus::kCorrected);
    EXPECT_EQ(coded.data, data);
}

TEST(ErrorInject, DecodeOfEncodeIsIdentityUnderBoundedCorruption)
{
    // Property sweep: for random payloads, addresses and burst widths
    // within the codec's envelope, decode(encode(x)) == x - exactly
    // (width <= 4, corrected) or vacuously (width 5-8, detected and
    // data left untouched for the ladder to re-read).  Widths past the
    // t=4 bound may miscorrect with probability ~1e-3 per decode (the
    // SDC channel the verify oracle audits); that must stay rare.
    BambooCodec codec;
    Rng rng(33);
    int miscorrections = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const auto data = randomBlock(rng);
        const std::uint64_t addr = rng.next() & 0xffff'ffff'ffffull;
        auto coded = codec.encode(data, addr);
        const auto width =
            static_cast<unsigned>(rng.uniformInt(0, 8));
        corruptBytes(coded, width, rng);
        const auto corrupted = coded;

        const auto result = codec.decodeCorrecting(coded, addr);
        if (width == 0) {
            EXPECT_EQ(result.status, DecodeStatus::kClean);
            EXPECT_EQ(coded.data, data);
        } else if (width <= 4) {
            ASSERT_EQ(result.status, DecodeStatus::kCorrected);
            EXPECT_EQ(coded.data, data) << "width " << width;
        } else if (result.status == DecodeStatus::kCorrected) {
            // Beyond-capability miscorrection: by construction the
            // result cannot be the original (distance 5+ from it).
            EXPECT_NE(coded.data, data) << "width " << width;
            ++miscorrections;
        } else {
            EXPECT_EQ(coded.data, corrupted.data)
                << "refused decode must not touch data";
        }
    }
    EXPECT_LE(miscorrections, 3);
}

} // namespace
