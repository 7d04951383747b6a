#include "ecc/reed_solomon.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hdmr::ecc
{

namespace
{

/** Longest RS codeword over GF(256); bounds 2t for local buffers. */
constexpr std::size_t kMaxSymbols = Gf256::kFieldSize - 1;

} // namespace

ReedSolomon::ReedSolomon(std::size_t data_symbols,
                         std::size_t parity_symbols)
    : k_(data_symbols), nParity_(parity_symbols)
{
    hdmr_assert(nParity_ >= 2 && nParity_ % 2 == 0);
    hdmr_assert(k_ + nParity_ <= kMaxSymbols,
                "RS codeword over GF(256) limited to 255 symbols");

    // g(x) = prod_{i=1..2t} (x - alpha^i), built up incrementally.
    std::vector<GfElem> generator = {1};
    for (std::size_t i = 1; i <= nParity_; ++i) {
        const GfElem root = Gf256::expAlpha(static_cast<int>(i));
        std::vector<GfElem> next(generator.size() + 1, 0);
        for (std::size_t j = 0; j < generator.size(); ++j) {
            next[j] = Gf256::add(next[j], Gf256::mul(generator[j], root));
            next[j + 1] = Gf256::add(next[j + 1], generator[j]);
        }
        generator = std::move(next);
    }
    // generator[d] is the coefficient of x^d; degree 2t, monic.
    std::reverse(generator.begin(), generator.end());
    // Now generator[0] is the x^{2t} coefficient (1), descending order.

    // Zero rows pad the generator to at least kLanes rows and the roots
    // to a multiple of kLanes (see the file comment).
    genRows_.assign(std::max(nParity_, kLanes) * kRow, 0);
    rootRows_.assign((nParity_ + kLanes - 1) / kLanes * kLanes * kRow, 0);
    for (std::size_t i = 0; i < nParity_; ++i) {
        const GfElem root = Gf256::expAlpha(static_cast<int>(i + 1));
        GfElem *root_pass = &rootRows_[i / kLanes * kLanes * kRow];
        for (std::size_t x = 0; x < kRow; ++x) {
            const auto elem = static_cast<GfElem>(x);
            genRows_[i * kRow + x] = Gf256::mul(elem, generator[i + 1]);
            root_pass[x * kLanes + i % kLanes] = Gf256::mul(elem, root);
        }
    }
}

void
ReedSolomon::encode(std::span<const GfElem> data,
                    std::span<GfElem> parity) const
{
    hdmr_assert(data.size() == k_, "encode() expects %zu symbols, got %zu",
                k_, data.size());
    hdmr_assert(parity.size() == nParity_,
                "encode() writes %zu parity symbols, got room for %zu",
                nParity_, parity.size());

    // Polynomial long division of D(x) * x^{2t} by g(x); the remainder
    // is the parity.  Classic LFSR formulation: each step shifts the
    // remainder left by one symbol and adds the feedback times g(x).
    // The head (remainder symbols 0..kLanes-1) is indexed by constants
    // only, so it stays in registers; the tail (kLanes..2t-1) has one
    // more slot that stays 0 and shifts into the head's last symbol.
    const GfElem *rows = genRows_.data();
    const std::size_t tail_len = genRows_.size() / kRow - kLanes;
    GfElem head[kLanes] = {};
    GfElem tail[kMaxSymbols + 1] = {};
    for (GfElem symbol : data) {
        const GfElem feedback = Gf256::add(symbol, head[0]);
#pragma GCC unroll 8
        for (std::size_t i = 0; i + 1 < kLanes; ++i)
            head[i] = Gf256::add(head[i + 1], rows[i * kRow + feedback]);
        head[kLanes - 1] =
            Gf256::add(tail[0], rows[(kLanes - 1) * kRow + feedback]);
        for (std::size_t i = 0; i < tail_len; ++i) {
            tail[i] = Gf256::add(tail[i + 1],
                                 rows[(kLanes + i) * kRow + feedback]);
        }
    }
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kLanes; ++i) {
        if (i < nParity_)
            parity[i] = head[i];
    }
    for (std::size_t i = 0; i < tail_len; ++i)
        parity[kLanes + i] = tail[i];
}

std::vector<GfElem>
ReedSolomon::encode(const std::vector<GfElem> &data) const
{
    std::vector<GfElem> parity(nParity_);
    encode(data, parity);
    return parity;
}

void
ReedSolomon::computeSyndromes(const GfElem *codeword, GfElem *out) const
{
    // s_j = c(alpha^{j+1}) by Horner's rule, kLanes roots per pass over
    // the codeword.  The lane loops unroll fully, so the accumulators
    // are indexed by constants only and stay in registers, and every
    // lane's product is one load at a constant offset from one base
    // pointer: each step is one load and one xor per lane.
    const std::size_t n = codewordSymbols();
    const GfElem *products = rootRows_.data();
    for (std::size_t base = 0; base < nParity_;
         base += kLanes, products += kLanes * kRow) {
        GfElem acc[kLanes] = {};
        for (std::size_t i = 0; i < n; ++i) {
            const GfElem symbol = codeword[i];
#pragma GCC unroll 8
            for (std::size_t lane = 0; lane < kLanes; ++lane) {
                acc[lane] = Gf256::add(products[acc[lane] * kLanes + lane],
                                       symbol);
            }
        }
#pragma GCC unroll 8
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
            if (base + lane < nParity_)
                out[base + lane] = acc[lane];
        }
    }
}

std::vector<GfElem>
ReedSolomon::syndromes(const std::vector<GfElem> &codeword) const
{
    hdmr_assert(codeword.size() == codewordSymbols());
    std::vector<GfElem> s(nParity_);
    computeSyndromes(codeword.data(), s.data());
    return s;
}

bool
ReedSolomon::detect(std::span<const GfElem> codeword) const
{
    hdmr_assert(codeword.size() == codewordSymbols());
    GfElem s[kMaxSymbols] = {};
    computeSyndromes(codeword.data(), s);
    return std::any_of(s, s + nParity_,
                       [](GfElem v) { return v != 0; });
}

DecodeResult
ReedSolomon::correct(std::vector<GfElem> &codeword,
                     std::size_t forbidden_begin,
                     std::size_t forbidden_end) const
{
    DecodeResult result;
    const std::size_t n = codewordSymbols();
    hdmr_assert(codeword.size() == n);
    GfElem synd[kMaxSymbols] = {};
    computeSyndromes(codeword.data(), synd);
    if (std::all_of(synd, synd + nParity_,
                    [](GfElem v) { return v == 0; })) {
        result.status = DecodeStatus::kClean;
        return result;
    }

    // --- Berlekamp-Massey: synthesize the error locator Lambda(x). ---
    std::vector<GfElem> lambda = {1};
    std::vector<GfElem> prev = {1};
    std::size_t errors = 0; // current LFSR length L
    std::size_t m = 1;      // steps since prev was updated
    GfElem b = 1;           // last non-zero discrepancy

    for (std::size_t i = 0; i < nParity_; ++i) {
        GfElem discrepancy = synd[i];
        for (std::size_t j = 1; j <= errors && j < lambda.size(); ++j) {
            discrepancy = Gf256::add(
                discrepancy, Gf256::mul(lambda[j], synd[i - j]));
        }
        if (discrepancy == 0) {
            ++m;
            continue;
        }
        if (2 * errors <= i) {
            std::vector<GfElem> saved = lambda;
            const GfElem scale = Gf256::div(discrepancy, b);
            if (lambda.size() < prev.size() + m)
                lambda.resize(prev.size() + m, 0);
            for (std::size_t j = 0; j < prev.size(); ++j) {
                lambda[j + m] = Gf256::add(
                    lambda[j + m], Gf256::mul(scale, prev[j]));
            }
            errors = i + 1 - errors;
            prev = std::move(saved);
            b = discrepancy;
            m = 1;
        } else {
            const GfElem scale = Gf256::div(discrepancy, b);
            if (lambda.size() < prev.size() + m)
                lambda.resize(prev.size() + m, 0);
            for (std::size_t j = 0; j < prev.size(); ++j) {
                lambda[j + m] = Gf256::add(
                    lambda[j + m], Gf256::mul(scale, prev[j]));
            }
            ++m;
        }
    }

    // Trim trailing zeros; the locator degree is the error count.
    while (lambda.size() > 1 && lambda.back() == 0)
        lambda.pop_back();
    const std::size_t degree = lambda.size() - 1;

    if (degree == 0 || degree > correctionCapability()) {
        result.status = DecodeStatus::kUncorrectable;
        return result;
    }

    // --- Chien search: find roots of Lambda over codeword positions. ---
    // Codeword index i carries polynomial degree n-1-i; the error
    // locator for that position is X = alpha^{n-1-i}, and Lambda has a
    // root at X^{-1}.
    std::vector<std::size_t> positions;  // codeword indices
    std::vector<GfElem> locators;        // X values
    for (std::size_t i = 0; i < n; ++i) {
        const int deg = static_cast<int>(n - 1 - i);
        const GfElem x_inv = Gf256::expAlpha(-deg);
        GfElem acc = 0;
        for (std::size_t j = lambda.size(); j-- > 0;)
            acc = Gf256::add(Gf256::mul(acc, x_inv), lambda[j]);
        if (acc == 0) {
            positions.push_back(i);
            locators.push_back(Gf256::expAlpha(deg));
        }
    }

    if (positions.size() != degree) {
        // Locator polynomial does not split over valid positions: the
        // error pattern exceeds the code's capability.
        result.status = DecodeStatus::kUncorrectable;
        return result;
    }

    for (std::size_t pos : positions) {
        if (pos >= forbidden_begin && pos < forbidden_end) {
            // A "correction" aimed at a known-correct virtual symbol
            // proves mis-location; refuse to touch the data.
            result.status = DecodeStatus::kDetectedOnly;
            return result;
        }
    }

    // --- Forney: error magnitudes. Omega(x) = S(x)Lambda(x) mod x^2t. --
    std::vector<GfElem> omega(nParity_, 0);
    for (std::size_t i = 0; i < nParity_; ++i) {
        for (std::size_t j = 0; j < lambda.size() && j <= i; ++j) {
            omega[i] = Gf256::add(omega[i],
                                  Gf256::mul(synd[i - j], lambda[j]));
        }
    }

    const std::vector<GfElem> pristine = codeword;
    for (std::size_t e = 0; e < positions.size(); ++e) {
        const GfElem x = locators[e];
        const GfElem x_inv = Gf256::inv(x);

        GfElem omega_val = 0;
        for (std::size_t j = omega.size(); j-- > 0;)
            omega_val = Gf256::add(Gf256::mul(omega_val, x_inv), omega[j]);

        // Lambda'(x) keeps odd-degree terms only.
        GfElem deriv = 0;
        for (std::size_t j = 1; j < lambda.size(); j += 2)
            deriv = Gf256::add(
                deriv, Gf256::mul(lambda[j],
                                  Gf256::pow(x_inv, static_cast<int>(j - 1))));

        if (deriv == 0) {
            codeword = pristine;
            result.status = DecodeStatus::kUncorrectable;
            return result;
        }
        const GfElem magnitude = Gf256::div(omega_val, deriv);
        codeword[positions[e]] =
            Gf256::add(codeword[positions[e]], magnitude);
    }

    // Defensive re-check: a pattern beyond t can decode to a wrong
    // codeword; verifying syndromes catches the cases where it does not
    // land exactly on another codeword.
    if (detect(codeword)) {
        codeword = pristine;
        result.status = DecodeStatus::kUncorrectable;
        return result;
    }

    result.status = DecodeStatus::kCorrected;
    result.correctedPositions = std::move(positions);
    return result;
}

} // namespace hdmr::ecc
