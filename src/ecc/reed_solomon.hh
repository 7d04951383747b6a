/**
 * @file
 * Systematic Reed-Solomon codec over GF(2^8).
 *
 * An RS(n, k) code with 2t = n - k parity symbols corrects up to t
 * symbol errors and, when used for detection only, detects up to 2t
 * symbol errors with certainty (any pattern wider than 2t escapes with
 * probability ~2^-64 for 8 parity bytes — exactly the SDC budget the
 * paper's epoch guard reasons about).
 *
 * Decoder: syndrome computation, Berlekamp-Massey locator synthesis,
 * Chien search, Forney magnitudes.  First consecutive root is alpha^1.
 *
 * The encoder and the syndromes only ever multiply by the 2t generator
 * coefficients and the 2t roots, so the constructor tabulates each of
 * those constants' products as one 256-entry row (4 KiB for 8 parity
 * symbols) and every such multiply is one load.
 *
 * Both hot loops keep their loop-carried state in registers, through
 * one code path for every geometry:
 *
 *  - Syndromes run Horner's rule for eight roots per pass over the
 *    codeword, with the eight accumulators in scalars.  The root rows
 *    are zero-padded to a multiple of eight, and each pass's eight rows
 *    are interleaved so all lanes load from one base pointer; a padded
 *    lane is computed and its result dropped.  Bamboo's 2t = 8 takes
 *    one pass, the 16- and 32-parity test codes two and four.
 *  - The encoder's LFSR keeps its first eight remainder symbols (the
 *    head, which carries the feedback chain) in scalars.  The
 *    generator rows are zero-padded to at least eight, and a zero row
 *    holds its register at 0, so 2t < 8 needs no other branch.
 *    Symbols 8..2t-1, for 2t > 8, shift through a local array off the
 *    feedback chain.
 *
 * The span entry points allocate nothing; the vector-returning ones
 * wrap the same kernels.
 */

#ifndef HDMR_ECC_REED_SOLOMON_HH
#define HDMR_ECC_REED_SOLOMON_HH

#include <cstddef>
#include <span>
#include <vector>

#include "ecc/gf256.hh"

namespace hdmr::ecc
{

/** Result of an RS decode attempt. */
enum class DecodeStatus
{
    kClean,          ///< all syndromes zero: no error detected
    kCorrected,      ///< errors found and corrected in place
    kDetectedOnly,   ///< errors detected; correction suppressed/failed
    kUncorrectable,  ///< errors detected; beyond correction capability
};

/** Outcome details of a decode. */
struct DecodeResult
{
    DecodeStatus status = DecodeStatus::kClean;
    /** Corrected symbol positions (codeword indices), if any. */
    std::vector<std::size_t> correctedPositions;

    bool
    errorDetected() const
    {
        return status != DecodeStatus::kClean;
    }
};

/**
 * Reed-Solomon codec.  Codewords are n symbols laid out as
 * [data(k) | parity(2t)].  The object is immutable after construction
 * and safe to share.
 */
class ReedSolomon
{
  public:
    /**
     * @param data_symbols   k, number of data symbols per codeword
     * @param parity_symbols 2t, number of parity symbols (even)
     */
    ReedSolomon(std::size_t data_symbols, std::size_t parity_symbols);

    std::size_t dataSymbols() const { return k_; }
    std::size_t paritySymbols() const { return nParity_; }
    std::size_t codewordSymbols() const { return k_ + nParity_; }

    /** Max correctable symbol errors, t. */
    std::size_t correctionCapability() const { return nParity_ / 2; }

    /**
     * Compute parity for `data` (size k) into `parity` (size 2t); the
     * full codeword is data followed by parity.
     */
    void encode(std::span<const GfElem> data,
                std::span<GfElem> parity) const;

    /** The 2t parity symbols of `data` (size k), as a new vector. */
    std::vector<GfElem> encode(const std::vector<GfElem> &data) const;

    /** Syndromes of a full codeword (size n); all-zero means clean. */
    std::vector<GfElem> syndromes(const std::vector<GfElem> &codeword) const;

    /** True iff any syndrome of `codeword` (size n) is non-zero. */
    bool detect(std::span<const GfElem> codeword) const;

    /**
     * Full decode: detect and correct in place (up to t symbols).
     *
     * A correction landing in [forbidden_begin, forbidden_end) is
     * rejected and the decode reports kDetectedOnly.  This supports
     * virtual (recomputed, never stored) symbols such as the folded
     * block address: those symbols are known-correct by construction,
     * so a locator pointing at them proves the error pattern exceeds
     * the code's capability.
     *
     * @param codeword n symbols, modified on correction
     */
    DecodeResult correct(std::vector<GfElem> &codeword,
                         std::size_t forbidden_begin,
                         std::size_t forbidden_end) const;

    DecodeResult
    correct(std::vector<GfElem> &codeword) const
    {
        return correct(codeword, codewordSymbols(), codewordSymbols());
    }

  private:
    /** Symbols per product row: row[x] = x * c for one fixed constant
     *  c, so a multiply by c is a single table load. */
    static constexpr std::size_t kRow = Gf256::kFieldSize;

    /** Syndromes (or remainder symbols) kept in registers per pass. */
    static constexpr std::size_t kLanes = 8;

    /** Horner's rule, kLanes roots per pass; writes the 2t syndromes
     *  of the n-symbol `codeword` to `out`. */
    void computeSyndromes(const GfElem *codeword, GfElem *out) const;

    std::size_t k_;
    std::size_t nParity_;
    /** Product rows laid end to end, so one base pointer reaches them
     *  all.  Row i: products with generator coefficient i + 1 (of
     *  x^{2t-1-i}); the monic leading coefficient needs no row.  Rows
     *  2t.. are zero, up to kLanes rows. */
    std::vector<GfElem> genRows_;
    /** Row j: products with the syndrome root alpha^{j+1}.  Rows 2t..
     *  are zero, up to a multiple of kLanes rows.  Each pass's kLanes
     *  rows are interleaved, entry kLanes * x + lane holding row
     *  (pass * kLanes + lane)'s product with x, so that the lanes'
     *  different accumulators index one base pointer. */
    std::vector<GfElem> rootRows_;
};

} // namespace hdmr::ecc

#endif // HDMR_ECC_REED_SOLOMON_HH
