/**
 * @file
 * GF(2^8) arithmetic for Reed-Solomon coding.
 *
 * Field: GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1), i.e. the primitive
 * polynomial 0x11D commonly used for RS codes.  Multiplication and
 * inversion go through log/antilog tables computed at compile time,
 * and every operation is inline, so a multiply is three table loads
 * and no call.
 */

#ifndef HDMR_ECC_GF256_HH
#define HDMR_ECC_GF256_HH

#include <array>
#include <cstdint>

#include "util/logging.hh"

namespace hdmr::ecc
{

/** An element of GF(2^8). */
using GfElem = std::uint8_t;

namespace detail
{

/** x^8 + x^4 + x^3 + x^2 + 1. */
inline constexpr unsigned kGf256PrimitivePoly = 0x11d;

/** The antilog (exp) and log tables of GF(2^8). */
struct Gf256Tables
{
    std::array<GfElem, 512> exp{}; // doubled to skip the mod-255
    std::array<int, 256> log{};
};

constexpr Gf256Tables
makeGf256Tables()
{
    Gf256Tables t;
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
        t.exp[i] = static_cast<GfElem>(x);
        t.log[x] = static_cast<int>(i);
        x <<= 1;
        if (x & 0x100)
            x ^= kGf256PrimitivePoly;
    }
    for (unsigned i = 255; i < 512; ++i)
        t.exp[i] = t.exp[i - 255];
    t.log[0] = -1; // log(0) is undefined; guarded by callers
    return t;
}

inline constexpr Gf256Tables kGf256Tables = makeGf256Tables();

} // namespace detail

/** GF(2^8) arithmetic with table-driven multiply/divide/power. */
class Gf256
{
  public:
    static constexpr unsigned kFieldSize = 256;
    static constexpr unsigned kPrimitivePoly = detail::kGf256PrimitivePoly;

    /** Addition (= subtraction) is XOR. */
    static GfElem
    add(GfElem a, GfElem b)
    {
        return a ^ b;
    }

    /** Multiply two field elements. */
    static GfElem
    mul(GfElem a, GfElem b)
    {
        if (a == 0 || b == 0)
            return 0;
        return kT.exp[static_cast<unsigned>(kT.log[a] + kT.log[b])];
    }

    /** Divide a by b; b must be non-zero. */
    static GfElem
    div(GfElem a, GfElem b)
    {
        hdmr_assert(b != 0, "GF(256) division by zero");
        if (a == 0)
            return 0;
        return kT.exp[static_cast<unsigned>(kT.log[a] - kT.log[b] + 255)];
    }

    /** Multiplicative inverse; a must be non-zero. */
    static GfElem
    inv(GfElem a)
    {
        hdmr_assert(a != 0, "GF(256) inverse of zero");
        return kT.exp[static_cast<unsigned>(255 - kT.log[a])];
    }

    /** alpha^power where alpha = 0x02 is the primitive element. */
    static GfElem
    expAlpha(int power)
    {
        int p = power % 255;
        if (p < 0)
            p += 255;
        return kT.exp[static_cast<unsigned>(p)];
    }

    /** Discrete log base alpha; a must be non-zero. */
    static int
    logAlpha(GfElem a)
    {
        hdmr_assert(a != 0, "GF(256) log of zero");
        return kT.log[a];
    }

    /** a^n for integer n >= 0. */
    static GfElem
    pow(GfElem a, int n)
    {
        hdmr_assert(n >= 0);
        if (n == 0)
            return 1;
        if (a == 0)
            return 0;
        const long exponent = (static_cast<long>(kT.log[a]) * n) % 255;
        return kT.exp[static_cast<unsigned>(exponent)];
    }

  private:
    static constexpr const detail::Gf256Tables &kT = detail::kGf256Tables;
};

} // namespace hdmr::ecc

#endif // HDMR_ECC_GF256_HH
