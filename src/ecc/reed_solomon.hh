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
 */

#ifndef HDMR_ECC_REED_SOLOMON_HH
#define HDMR_ECC_REED_SOLOMON_HH

#include <array>
#include <cstddef>
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
 * Reed-Solomon codec.  Codewords are vectors of n bytes laid out as
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
     * Compute parity for `data` (size k).  Returns the 2t parity
     * symbols; the full codeword is data followed by parity.
     */
    std::vector<GfElem> encode(const std::vector<GfElem> &data) const;

    /** Syndromes of a full codeword (size n); all-zero means clean. */
    std::vector<GfElem> syndromes(const std::vector<GfElem> &codeword) const;

    /** True iff any syndrome is non-zero. */
    bool detect(const std::vector<GfElem> &codeword) const;

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
    /** row[x] = x * c for one fixed constant c, so a multiply by c
     *  is a single table load. */
    using ProductRow = std::array<GfElem, Gf256::kFieldSize>;

    /** Horner's rule for all 2t roots in one pass; writes 2t
     *  syndromes to `out`. */
    void computeSyndromes(const GfElem *codeword, GfElem *out) const;

    std::size_t k_;
    std::size_t nParity_;
    /** genRows_[i]: products with generator coefficient i + 1 (of
     *  x^{2t-1-i}); the monic leading coefficient needs no row. */
    std::vector<ProductRow> genRows_;
    /** rootRows_[j]: products with the syndrome root alpha^{j+1}. */
    std::vector<ProductRow> rootRows_;
};

} // namespace hdmr::ecc

#endif // HDMR_ECC_REED_SOLOMON_HH
