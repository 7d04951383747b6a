/**
 * @file
 * Microbenchmarks: memory-controller simulation throughput (host
 * events/second for random vs sequential read streams).
 */

#include <benchmark/benchmark.h>

#include <functional>

#include "dram/controller.hh"
#include "util/rng.hh"

namespace
{

using namespace hdmr;
using util::Tick;

void
BM_ControllerRandomReads(benchmark::State &state)
{
    const double seq_fraction =
        static_cast<double>(state.range(0)) / 100.0;
    for (auto _ : state) {
        sim::EventQueue events;
        dram::ControllerConfig config;
        config.readModeTiming = dram::DramTiming::fromSetting(
            dram::MemorySetting::manufacturerSpec());
        config.writeModeTiming = config.readModeTiming;
        struct : dram::ReadCompletionSink
        {
            std::function<void()> then;

            void
            readComplete(std::uint64_t, Tick) override
            {
                then();
            }
        } completions;
        dram::MemoryController controller(events, config, &completions);

        util::Rng rng(7);
        std::uint64_t sequential = 0;
        int outstanding = 0, sent = 0;
        const int total = 20000;
        std::function<void()> pump = [&] {
            while (outstanding < 64 && sent < total &&
                   !controller.readQueueFull()) {
                dram::MemRequest request;
                request.address =
                    rng.uniform() < seq_fraction
                        ? (sequential++) * 64
                        : (rng.next() % (1ull << 30)) & ~63ull;
                request.arrival = events.curTick();
                controller.enqueueRead(request);
                ++outstanding;
                ++sent;
            }
        };
        completions.then = [&] {
            --outstanding;
            pump();
        };
        pump();
        events.run();
        benchmark::DoNotOptimize(controller.stats().reads);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 20000);
}
BENCHMARK(BM_ControllerRandomReads)->Arg(0)->Arg(50)->Arg(100);

} // namespace

BENCHMARK_MAIN();
