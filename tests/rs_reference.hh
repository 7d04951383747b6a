/**
 * @file
 * Slow, obvious reference versions of the ECC arithmetic, for tests
 * only: a shift-and-xor GF(2^8) multiply that uses no tables, and a
 * Reed-Solomon encoder and syndrome computation that do one multiply
 * per step (the per-multiply LFSR and one Horner pass per root).  The
 * table-driven codec in src/ecc must agree with them exactly.
 */

#ifndef HDMR_TESTS_RS_REFERENCE_HH
#define HDMR_TESTS_RS_REFERENCE_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "ecc/gf256.hh"

namespace hdmr::test
{

/** a * b in GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1), bit by bit. */
inline ecc::GfElem
referenceMul(ecc::GfElem a, ecc::GfElem b)
{
    unsigned x = a;
    unsigned product = 0;
    for (unsigned y = b; y != 0; y >>= 1) {
        if (y & 1)
            product ^= x;
        x <<= 1;
        if (x & 0x100)
            x ^= 0x11d;
    }
    return static_cast<ecc::GfElem>(product);
}

/** alpha^n for alpha = 0x02, by repeated multiplication. */
inline ecc::GfElem
referenceAlphaPow(std::size_t n)
{
    ecc::GfElem value = 1;
    for (std::size_t i = 0; i < n; ++i)
        value = referenceMul(value, 2);
    return value;
}

/** g(x) = prod_{i=1..2t} (x - alpha^i), coefficients in descending
 *  order (the monic x^{2t} coefficient first). */
inline std::vector<ecc::GfElem>
referenceGenerator(std::size_t parity)
{
    std::vector<ecc::GfElem> g = {1}; // ascending while built
    for (std::size_t i = 1; i <= parity; ++i) {
        const ecc::GfElem root = referenceAlphaPow(i);
        std::vector<ecc::GfElem> next(g.size() + 1, 0);
        for (std::size_t j = 0; j < g.size(); ++j) {
            next[j] ^= referenceMul(g[j], root);
            next[j + 1] ^= g[j];
        }
        g = std::move(next);
    }
    std::reverse(g.begin(), g.end());
    return g;
}

/** The 2t parity symbols of `data`: the LFSR long division of
 *  D(x) * x^{2t} by g(x), one multiply per tap. */
inline std::vector<ecc::GfElem>
referenceEncode(const std::vector<ecc::GfElem> &data, std::size_t parity)
{
    const std::vector<ecc::GfElem> g = referenceGenerator(parity);
    std::vector<ecc::GfElem> remainder(parity, 0);
    for (ecc::GfElem symbol : data) {
        const ecc::GfElem feedback = symbol ^ remainder.front();
        for (std::size_t i = 0; i + 1 < parity; ++i)
            remainder[i] = remainder[i + 1] ^ referenceMul(feedback, g[i + 1]);
        remainder[parity - 1] = referenceMul(feedback, g[parity]);
    }
    return remainder;
}

/** s_j = c(alpha^{j+1}) for j < 2t, one Horner pass per root. */
inline std::vector<ecc::GfElem>
referenceSyndromes(const std::vector<ecc::GfElem> &codeword,
                   std::size_t parity)
{
    std::vector<ecc::GfElem> s(parity, 0);
    for (std::size_t j = 0; j < parity; ++j) {
        const ecc::GfElem root = referenceAlphaPow(j + 1);
        ecc::GfElem acc = 0;
        for (ecc::GfElem symbol : codeword)
            acc = referenceMul(acc, root) ^ symbol;
        s[j] = acc;
    }
    return s;
}

} // namespace hdmr::test

#endif // HDMR_TESTS_RS_REFERENCE_HH
