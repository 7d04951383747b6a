/**
 * @file
 * Bamboo-style whole-block ECC for 64-byte memory blocks (Kim, Sullivan
 * & Erez, HPCA'15, as adopted by Hetero-DMR).
 *
 * All 64 data bytes of a block feed a single Reed-Solomon code with 8
 * parity bytes (one per ECC-chip beat on a x8 RDIMM).  Hetero-DMR adds
 * two twists, both implemented here:
 *
 *  1. Address folding: the 8-byte block address participates in the
 *     encoding as *virtual* symbols that are recomputed (not stored) at
 *     decode time, so a response for the wrong address is detected just
 *     like a data error (cf. resilient die-stacked caches [72]).
 *  2. Detection-only decode: for unsafely-fast copies, decoding stops
 *     after syndrome inspection.  All 8 parity bytes then act as pure
 *     detection budget - any error touching <= 8 symbols is caught with
 *     certainty, and wider (8B+) errors escape with probability 2^-64.
 */

#ifndef HDMR_ECC_BAMBOO_HH
#define HDMR_ECC_BAMBOO_HH

#include <array>
#include <cstdint>

#include "ecc/reed_solomon.hh"

namespace hdmr::ecc
{

/** A 64-byte memory block. */
using Block = std::array<std::uint8_t, 64>;

/** The 8 stored parity bytes of a block. */
using Parity = std::array<std::uint8_t, 8>;

/** A block together with its stored parity, as it lives in DRAM. */
struct CodedBlock
{
    Block data{};
    Parity parity{};
};

/** Outcome of decoding a coded block. */
struct BlockDecodeResult
{
    DecodeStatus status = DecodeStatus::kClean;
    unsigned correctedSymbols = 0;

    bool
    errorDetected() const
    {
        return status != DecodeStatus::kClean;
    }

    bool
    dataTrustworthy() const
    {
        return status == DecodeStatus::kClean ||
               status == DecodeStatus::kCorrected;
    }
};

/**
 * The block codec.  Stateless apart from the RS tables; one instance
 * can serve every channel.
 */
class BambooCodec
{
  public:
    static constexpr std::size_t kDataBytes = 64;
    static constexpr std::size_t kAddressBytes = 8;
    static constexpr std::size_t kParityBytes = 8;

    /** Bytes of a CodedBlock that actually live in DRAM. */
    static constexpr std::size_t kStoredBytes = kDataBytes + kParityBytes;

    BambooCodec();

    /**
     * Encode a block: compute the parity over data + folded address.
     * The same parity works for an original block and its broadcast
     * copy because encoding is unaffected by the detection-only read
     * optimization (Section III-C of the paper).
     */
    CodedBlock encode(const Block &data, std::uint64_t address) const;

    /**
     * Conventional decode (original blocks): detect and correct up to
     * 4 byte errors; mis-located corrections are refused.
     */
    BlockDecodeResult decodeCorrecting(CodedBlock &coded,
                                       std::uint64_t address) const;

    /**
     * Detection-only decode (unsafely-fast copies): report whether any
     * syndrome is non-zero and never modify the block.  This is the
     * "stop ECC decoding after detection" optimization.
     */
    BlockDecodeResult decodeDetectOnly(const CodedBlock &coded,
                                       std::uint64_t address) const;

    /**
     * Probability that an error wider than 8 symbols escapes the
     * detection-only decode: 2^-64 (all 64 recomputed code bits must
     * coincide).  Exposed for the epoch-guard arithmetic.
     */
    static constexpr double
    escapeProbability8BPlus()
    {
        return 1.0 / 18446744073709551616.0; // 2^-64
    }

    /**
     * The underlying RS(80, 72) code.  Exposed read-only so the SDC
     * oracle (src/verify) can reason about the code algebraically -
     * e.g. construct error vectors that are themselves codewords when
     * importance-sampling the silent-escape tail.
     */
    const ReedSolomon &code() const { return rs_; }

    /**
     * Codeword index of stored byte `i` (data bytes first, then parity;
     * the 8 recomputed address symbols in between are never stored and
     * therefore can never be in error).
     */
    static constexpr std::size_t
    storedToCodewordIndex(std::size_t i)
    {
        return i < kDataBytes ? i : i + kAddressBytes;
    }

    /** XOR `mask` into stored byte `i` of a coded block. */
    static void
    xorStoredByte(CodedBlock &coded, std::size_t i, std::uint8_t mask)
    {
        if (i < kDataBytes)
            coded.data[i] ^= mask;
        else
            coded.parity[i - kDataBytes] ^= mask;
    }

  private:
    /** An RS(80, 72) codeword: [data | address | parity]. */
    using Codeword =
        std::array<GfElem, kDataBytes + kAddressBytes + kParityBytes>;

    /** Assemble [data | address | parity] into an RS codeword. */
    static Codeword toCodeword(const CodedBlock &coded,
                               std::uint64_t address);

    ReedSolomon rs_;
};

} // namespace hdmr::ecc

#endif // HDMR_ECC_BAMBOO_HH
