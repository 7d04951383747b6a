#include "ecc/bamboo.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hdmr::ecc
{

namespace
{

/** Split a 64-bit address into its 8 virtual code symbols. */
std::array<GfElem, BambooCodec::kAddressBytes>
addressSymbols(std::uint64_t address)
{
    std::array<GfElem, BambooCodec::kAddressBytes> sym;
    for (std::size_t i = 0; i < sym.size(); ++i)
        sym[i] = static_cast<GfElem>(address >> (8 * i));
    return sym;
}

} // anonymous namespace

BambooCodec::BambooCodec()
    : rs_(kDataBytes + kAddressBytes, kParityBytes)
{
    hdmr_assert(rs_.dataSymbols() == kDataBytes + kAddressBytes &&
                rs_.paritySymbols() == kParityBytes);
}

CodedBlock
BambooCodec::encode(const Block &data, std::uint64_t address) const
{
    std::array<GfElem, kDataBytes + kAddressBytes> message{};
    std::copy(data.begin(), data.end(), message.begin());
    const auto addr = addressSymbols(address);
    std::copy(addr.begin(), addr.end(), message.begin() + kDataBytes);

    CodedBlock coded;
    coded.data = data;
    rs_.encode(message, coded.parity);
    return coded;
}

BambooCodec::Codeword
BambooCodec::toCodeword(const CodedBlock &coded, std::uint64_t address)
{
    Codeword cw{};
    std::copy(coded.data.begin(), coded.data.end(), cw.begin());
    const auto addr = addressSymbols(address);
    std::copy(addr.begin(), addr.end(), cw.begin() + kDataBytes);
    std::copy(coded.parity.begin(), coded.parity.end(),
              cw.begin() + kDataBytes + kAddressBytes);
    return cw;
}

BlockDecodeResult
BambooCodec::decodeCorrecting(CodedBlock &coded, std::uint64_t address) const
{
    const Codeword word = toCodeword(coded, address);
    std::vector<GfElem> cw(word.begin(), word.end());
    // The address symbols occupy [kDataBytes, kDataBytes+kAddressBytes);
    // they are recomputed from the request, so any "correction" there
    // is a mis-location and must be refused.
    const auto rs_result =
        rs_.correct(cw, kDataBytes, kDataBytes + kAddressBytes);

    BlockDecodeResult result;
    result.status = rs_result.status;
    result.correctedSymbols =
        static_cast<unsigned>(rs_result.correctedPositions.size());

    if (rs_result.status == DecodeStatus::kCorrected) {
        for (std::size_t i = 0; i < kDataBytes; ++i)
            coded.data[i] = static_cast<std::uint8_t>(cw[i]);
        for (std::size_t i = 0; i < kParityBytes; ++i) {
            coded.parity[i] = static_cast<std::uint8_t>(
                cw[kDataBytes + kAddressBytes + i]);
        }
    }
    return result;
}

BlockDecodeResult
BambooCodec::decodeDetectOnly(const CodedBlock &coded,
                              std::uint64_t address) const
{
    const Codeword cw = toCodeword(coded, address);
    BlockDecodeResult result;
    result.status = rs_.detect(cw) ? DecodeStatus::kDetectedOnly
                                   : DecodeStatus::kClean;
    return result;
}

} // namespace hdmr::ecc
