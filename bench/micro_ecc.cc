/**
 * @file
 * Microbenchmarks: Bamboo ECC encode / detect-only decode / full
 * correction throughput (google-benchmark).
 */

#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "ecc/bamboo.hh"
#include "ecc/error_inject.hh"
#include "util/rng.hh"

namespace
{

using namespace hdmr::ecc;

Block
randomBlock(hdmr::util::Rng &rng)
{
    Block block;
    for (auto &byte : block)
        byte = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    return block;
}

void
BM_BambooEncode(benchmark::State &state)
{
    BambooCodec codec;
    hdmr::util::Rng rng(1);
    const Block data = randomBlock(rng);
    std::uint64_t address = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec.encode(data, address++));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_BambooEncode);

void
BM_BambooDetectClean(benchmark::State &state)
{
    BambooCodec codec;
    hdmr::util::Rng rng(2);
    const CodedBlock coded = codec.encode(randomBlock(rng), 0x42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec.decodeDetectOnly(coded, 0x42));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_BambooDetectClean);

void
BM_BambooCorrectErrors(benchmark::State &state)
{
    BambooCodec codec;
    hdmr::util::Rng rng(3);
    const auto width = static_cast<unsigned>(state.range(0));
    const Block data = randomBlock(rng);
    const CodedBlock clean = codec.encode(data, 0x77);
    // Corrupt a ring of copies up front: pausing the timer around each
    // corruption costs about as much as the decode it would bracket.
    constexpr std::size_t kRing = 256;
    std::vector<CodedBlock> corrupted(kRing, clean);
    for (CodedBlock &bad : corrupted)
        corruptBytes(bad, width, rng);
    std::size_t next = 0;
    for (auto _ : state) {
        CodedBlock bad = corrupted[next];
        next = (next + 1) % kRing;
        benchmark::DoNotOptimize(codec.decodeCorrecting(bad, 0x77));
    }
}
BENCHMARK(BM_BambooCorrectErrors)->Arg(1)->Arg(2)->Arg(4);

} // namespace

BENCHMARK_MAIN();
