/**
 * @file
 * Advisor-service soak and overload-resilience driver (robustness
 * extension).  An open-loop load generator drives AdvisorService
 * through the failure modes the service is designed to survive, and
 * gates on the observable outcomes:
 *
 *   steady    Poisson arrivals from a small mix pool - the cache
 *             warms, answers are exact/cached, nothing sheds;
 *   burst     a back-to-back volley of cache-busting unique mixes at
 *             many times the steady rate - the bounded queue sheds
 *             (oldest first) and served p99 stays bounded instead of
 *             building an unbounded backlog;
 *   slow      a SlowPathInjector stalls every rollout decision point
 *             past the request deadline - rollouts degrade to
 *             table-only answers and the circuit breaker opens;
 *   recover   the stall is removed - a half-open probe recloses the
 *             breaker;
 *   drain     SIGTERM: stop admitting, finish in-flight work within
 *             the drain deadline, persist the warm-start snapshot
 *             through snapshot::Keeper, and prove a restarted service
 *             serves a bit-identical cached decision.
 *
 * `--smoke` is the deterministic self-checking mode ctest runs as
 * advisor_soak_smoke (a few seconds); the default run is the same
 * campaign scaled up.  A second SIGINT/SIGTERM during shutdown skips
 * the snapshot and exits immediately with code 131 (the double-signal
 * escape hatch; a clean interrupt exits 130).
 *
 * Flags (bench::Harness syntax; see --help):
 *   --smoke                  short deterministic gate mode
 *   --seed=<n>               load-generator seed (default 1)
 *   --telemetry-out=<dir>    export service metrics and the
 *                            BENCH_advisor_soak.json perf record
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/slow_path.hh"
#include "harness.hh"
#include "serve/advisor.hh"
#include "serve/service.hh"
#include "serve/wire.hh"
#include "snapshot/keeper.hh"
#include "snapshot/serializer.hh"
#include "util/rng.hh"
#include "util/status.hh"

namespace
{

using namespace hdmr;
using namespace hdmr::serve;

struct SoakScale
{
    std::size_t steadyRequests = 120;
    double steadyQps = 150.0;
    std::size_t burstRequests = 400;
    std::size_t slowRequests = 8;
    std::size_t recoverRequests = 4;
};

SoakScale
fullScale()
{
    SoakScale scale;
    scale.steadyRequests = 1200;
    scale.steadyQps = 300.0;
    scale.burstRequests = 4000;
    scale.slowRequests = 24;
    scale.recoverRequests = 8;
    return scale;
}

ServiceConfig
soakServiceConfig()
{
    ServiceConfig config;
    config.workers = 2;
    config.queueCapacity = 16;
    config.defaultDeadlineMicros = 10'000;
    config.maxDeadlineMicros = 250'000;
    return config;
}

AdvisorConfig
soakAdvisorConfig(std::uint64_t seed)
{
    AdvisorConfig config;
    config.rolloutNodes = 16;
    config.rolloutJobs = 24;
    config.rolloutHorizonSeconds = 3600.0;
    config.cacheCapacity = 4096;
    config.seed = seed;
    config.breaker.openAfterFailures = 5;
    config.breaker.cooldownMicros = 200'000;
    return config;
}

/** The steady-phase mix pool (cacheable, repeating patterns). */
std::vector<AdvisorRequest>
mixPool()
{
    std::vector<AdvisorRequest> pool;
    for (unsigned i = 0; i < 12; ++i) {
        AdvisorRequest request;
        MixClass narrow;
        narrow.nodes = 1 + (i % 4);
        narrow.usageClass = i % 3;
        narrow.runtimeSeconds = 600.0 + 120.0 * (i % 5);
        narrow.weight = 2.0;
        MixClass wide;
        wide.nodes = 8 + 2 * (i % 3);
        wide.usageClass = (i + 1) % 3;
        wide.runtimeSeconds = 1800.0;
        wide.weight = 1.0;
        request.mix = {narrow, wide};
        pool.push_back(request);
    }
    return pool;
}

/** A cache-busting unique mix (distinct runtime quantum per n). */
AdvisorRequest
uniqueMix(std::uint64_t n)
{
    AdvisorRequest request;
    MixClass c;
    c.nodes = 1 + static_cast<std::uint32_t>(n % 8);
    c.usageClass = static_cast<std::uint32_t>(n % 2); // margin-eligible
    // 61 s steps keep every request in its own cache-key quantum.
    c.runtimeSeconds = 300.0 + 61.0 * static_cast<double>(n % 100'000);
    c.weight = 1.0;
    request.mix = {c};
    return request;
}

/** Thread-safe response tally shared by every phase. */
struct Tally
{
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t responses = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t hardFailures = 0; ///< neither ok nor shed: a bug
    std::uint64_t byQuality[3] = {0, 0, 0};

    void
    record(const ServedResponse &r)
    {
        std::lock_guard<std::mutex> lock(mu);
        ++responses;
        if (r.status.ok()) {
            ++ok;
            ++byQuality[static_cast<unsigned>(r.decision.quality)];
        } else if (r.shed) {
            ++shed;
        } else if (r.status.code() !=
                   util::StatusCode::kInvalidArgument) {
            ++hardFailures;
        }
        cv.notify_all();
    }

    ResponseCallback
    callback()
    {
        return [this](const ServedResponse &r) { record(r); };
    }

    std::uint64_t
    total()
    {
        std::lock_guard<std::mutex> lock(mu);
        return responses;
    }

    /** Wait (bounded) until `n` responses have arrived. */
    bool
    awaitTotal(std::uint64_t n)
    {
        std::unique_lock<std::mutex> lock(mu);
        return cv.wait_for(lock, std::chrono::seconds(30),
                           [&] { return responses >= n; });
    }
};

/**
 * One submit-and-wait round trip, tallied.  The slow/recover phases
 * are deliberately closed-loop so every request reaches the engine.
 */
ServedResponse
submitAndWait(AdvisorService &service, Tally &tally,
              const AdvisorRequest &request)
{
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    ServedResponse out;
    service.submit(request, [&](const ServedResponse &r) {
        tally.record(r);
        std::lock_guard<std::mutex> lock(mu);
        out = r;
        done = true;
        cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return done; });
    return out;
}

int
run(bool smoke, std::uint64_t seed, bench::Harness &harness)
{
    const SoakScale scale = smoke ? SoakScale{} : fullScale();
    util::Rng rng(seed);

    fault::SlowPathInjector injector;
    const std::string keeper_path =
        harness.telemetryEnabled()
            ? harness.telemetryDir() + "/advisor_soak_state.snap"
            : "advisor_soak_state.snap";
    snapshot::Keeper keeper(keeper_path, 2);

    std::uint64_t next_id = 1;
    std::uint64_t submitted = 0;
    Tally tally;
    std::vector<std::uint8_t> preKillCachedBytes;
    ServiceCounters finalCounters;
    AdvisorStats finalStats;
    std::uint64_t breakerOpened = 0, breakerHalfOpened = 0,
                  breakerReclosed = 0;
    std::uint64_t p50 = 0, p99 = 0;

    {
        AdvisorService service(soakServiceConfig(),
                               soakAdvisorConfig(seed));
        service.engine().setSlowPathInjector(&injector);

        // ---- Phase 0: warm the pool (closed loop). ----
        for (const AdvisorRequest &pattern : mixPool()) {
            AdvisorRequest request = pattern;
            request.id = next_id++;
            request.deadlineMicros = 100'000;
            ++submitted;
            (void)submitAndWait(service, tally, request);
        }

        // ---- Phase 1: steady state (open-loop Poisson). ----
        const std::vector<AdvisorRequest> pool = mixPool();
        for (std::size_t i = 0; i < scale.steadyRequests; ++i) {
            AdvisorRequest request = pool[i % pool.size()];
            request.id = next_id++;
            request.deadlineMicros = 100'000;
            ++submitted;
            service.submit(request, tally.callback());
            // Open loop: arrivals follow the schedule, not
            // completions (capped so a pathological draw cannot
            // stall the campaign).
            const double gap = rng.exponential(scale.steadyQps);
            std::this_thread::sleep_for(std::chrono::duration<double>(
                std::min(gap, 10.0 / scale.steadyQps)));
        }
        tally.awaitTotal(submitted);
        const ServiceCounters afterSteady = service.counters();
        harness.check(afterSteady.totalShed() == 0,
                      "steady: no shedding at the nominal rate");

        // ---- Phase 2: burst of cache-busting unique mixes. ----
        // The overload is structural, not a scheduling race: the
        // injector gate wedges the rollout path, so the volley floods
        // a bounded queue whose workers cannot drain it - no matter
        // how fast this machine is or how starved a loaded CI runner
        // leaves the process.  (Without the wedge, a starved run can
        // blow every deadline instead: each answer degrades to a
        // fast table lookup and the queue never fills.)
        injector.armGate();
        for (std::size_t i = 0; i < scale.burstRequests; ++i) {
            AdvisorRequest request = uniqueMix(1'000'000 + i);
            request.id = next_id++;
            ++submitted;
            service.submit(request, tally.callback());
        }
        injector.release();
        tally.awaitTotal(submitted);
        const ServiceCounters afterBurst = service.counters();
        harness.check(afterBurst.totalShed() > afterSteady.totalShed(),
                      "burst: overload engaged the shedder");
        p50 = service.latencyQuantileMicros(0.50);
        p99 = service.latencyQuantileMicros(0.99);
        // Shedding must keep served latency bounded by the deadline
        // scale (log2 buckets overshoot by at most 2x), not by the
        // depth of an unbounded backlog.
        harness.check(p99 <= (1u << 19),
                      "burst: served p99 stays bounded (< 0.53 s)");

        // ---- Phase 3: slow rollouts open the breaker. ----
        const std::uint64_t openedBefore =
            service.engine().breaker().openedCount();
        injector.armDelay(30'000); // 30 ms/event vs 10 ms deadlines
        for (std::size_t i = 0; i < scale.slowRequests; ++i) {
            AdvisorRequest request = uniqueMix(2'000'000 + i);
            request.id = next_id++;
            request.allowCached = false;
            ++submitted;
            (void)submitAndWait(service, tally, request);
        }
        injector.disarm();
        harness.check(service.engine().stats().rolloutsDeadlineHit > 0,
                      "slow: stalled rollouts degraded at the deadline");
        harness.check(service.engine().breaker().openedCount() > openedBefore,
                      "slow: consecutive timeouts opened the breaker");

        // ---- Phase 4: recovery recloses the breaker. ----
        std::this_thread::sleep_for(std::chrono::microseconds(
            soakAdvisorConfig(seed).breaker.cooldownMicros + 50'000));
        for (std::size_t i = 0; i < scale.recoverRequests; ++i) {
            AdvisorRequest request = uniqueMix(3'000'000 + i);
            request.id = next_id++;
            request.allowCached = false;
            request.deadlineMicros = 200'000;
            ++submitted;
            (void)submitAndWait(service, tally, request);
        }
        harness.check(service.engine().breaker().halfOpenedCount() > 0,
                      "recover: a half-open probe was admitted");
        harness.check(service.engine().breaker().reclosedCount() > 0 &&
                          service.engine().breaker().state() ==
                              CircuitBreaker::State::kClosed,
                      "recover: the probe reclosed the breaker");

        // ---- Phase 5: SIGTERM -> drain -> snapshot. ----
        // Pin one known-warm decision first so the restart can be
        // checked bit for bit.
        AdvisorRequest warm = uniqueMix(4'000'000);
        warm.id = 9999;
        warm.allowCached = false;
        warm.deadlineMicros = 200'000;
        ++submitted;
        const ServedResponse exact =
            submitAndWait(service, tally, warm);
        harness.check(exact.status.ok() &&
                          exact.decision.quality == Quality::kExact,
                      "drain: warm-up decision is exact");
        warm.allowCached = true;
        ++submitted;
        const ServedResponse cached =
            submitAndWait(service, tally, warm);
        harness.check(cached.status.ok() &&
                          cached.decision.quality == Quality::kCached,
                      "drain: warm-up decision replays from the cache");
        preKillCachedBytes = encodeDecision(cached.decision);

        if (smoke)
            std::raise(SIGTERM); // exercise the real signal path
        const auto drainStart = std::chrono::steady_clock::now();
        while (!bench::stopRequested() &&
               std::chrono::steady_clock::now() - drainStart <
                   std::chrono::seconds(1))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));

        const util::Status drained =
            service.drainAndSnapshot(keeper, 2'000'000);
        harness.check(drained.ok(), "drain: clean drain within the deadline");
        finalCounters = service.counters();
        finalStats = service.engine().stats();
        breakerOpened = service.engine().breaker().openedCount();
        breakerHalfOpened =
            service.engine().breaker().halfOpenedCount();
        breakerReclosed = service.engine().breaker().reclosedCount();
    }

    // ---- Phase 6: restart from the warm-start snapshot. ----
    {
        AdvisorService restarted(soakServiceConfig(),
                                 soakAdvisorConfig(seed));
        const util::Result<snapshot::Keeper::Loaded> loaded =
            keeper.loadLatestValid(snapshot::kAdvisorStateKind);
        harness.check(loaded.ok(), "restart: warm-start snapshot loads");
        if (loaded.ok()) {
            const util::Status restored =
                restarted.engine().restoreState(loaded.value().payload);
            harness.check(restored.ok(), "restart: engine state restores");
            AdvisorRequest warm = uniqueMix(4'000'000);
            warm.id = 9999;
            warm.deadlineMicros = 200'000;
            ++submitted;
            const ServedResponse replay =
                submitAndWait(restarted, tally, warm);
            harness.check(replay.status.ok() &&
                              replay.decision.quality == Quality::kCached &&
                              encodeDecision(replay.decision) ==
                                  preKillCachedBytes,
                          "restart: cached decision is bit-identical");
        }
        restarted.beginDrain();
        (void)restarted.awaitDrain(1'000'000);
    }

    std::uint64_t hard = 0, answered = 0, sheds = 0;
    {
        std::lock_guard<std::mutex> lock(tally.mu);
        hard = tally.hardFailures;
        answered = tally.responses;
        sheds = tally.shed;
        std::printf(
            "\nresponses: %llu (ok %llu, shed %llu, hard-fail %llu)\n"
            "quality:   exact %llu, cached %llu, degraded %llu\n",
            static_cast<unsigned long long>(tally.responses),
            static_cast<unsigned long long>(tally.ok),
            static_cast<unsigned long long>(tally.shed),
            static_cast<unsigned long long>(tally.hardFailures),
            static_cast<unsigned long long>(tally.byQuality[0]),
            static_cast<unsigned long long>(tally.byQuality[1]),
            static_cast<unsigned long long>(tally.byQuality[2]));
    }
    std::printf("served latency: p50 %llu us, p99 %llu us (log2 upper "
                "bounds)\n",
                static_cast<unsigned long long>(p50),
                static_cast<unsigned long long>(p99));
    std::printf("shed: queue_full %llu, queue_expired %llu, draining "
                "%llu, retry_denied %llu\n",
                static_cast<unsigned long long>(
                    finalCounters.shedQueueFull),
                static_cast<unsigned long long>(
                    finalCounters.shedQueueExpired),
                static_cast<unsigned long long>(
                    finalCounters.shedDraining),
                static_cast<unsigned long long>(
                    finalCounters.shedRetryDenied));
    std::printf("breaker: opened %llu, half-opened %llu, reclosed "
                "%llu\n",
                static_cast<unsigned long long>(breakerOpened),
                static_cast<unsigned long long>(breakerHalfOpened),
                static_cast<unsigned long long>(breakerReclosed));

    harness.check(hard == 0, "soak: zero non-shed failures");
    harness.check(answered == submitted,
                  "soak: every submitted request was answered");

    // ---- Telemetry / perf-trajectory export. ----
    telemetry::Registry &registry = harness.registry();
    const std::pair<const char *, std::uint64_t> counters[] = {
        {"advisor.soak_submitted", submitted},
        {"advisor.soak_answered", answered},
        {"advisor.soak_shed", sheds},
        {"advisor.shed_queue_full", finalCounters.shedQueueFull},
        {"advisor.shed_queue_expired", finalCounters.shedQueueExpired},
        {"advisor.shed_draining", finalCounters.shedDraining},
        {"advisor.shed_retry_denied", finalCounters.shedRetryDenied},
        {"advisor.decisions_exact", finalStats.decisionsExact},
        {"advisor.decisions_cached", finalStats.decisionsCached},
        {"advisor.decisions_degraded", finalStats.decisionsDegraded},
        {"advisor.rollouts_deadline_hit", finalStats.rolloutsDeadlineHit},
        {"advisor.breaker_opened", breakerOpened},
        {"advisor.breaker_half_opened", breakerHalfOpened},
        {"advisor.breaker_reclosed", breakerReclosed},
    };
    for (const auto &[name, value] : counters)
        registry.counter(name).set(value);
    registry.gauge("advisor.soak_p50_micros")
        .set(static_cast<double>(p50));
    registry.gauge("advisor.soak_p99_micros")
        .set(static_cast<double>(p99));
    harness.addSimulated(0.0, answered);
    harness.setThreads(soakServiceConfig().workers);
    return harness.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness("advisor_soak");
    bool smoke = false;
    std::uint64_t seed = 1;
    harness.flag("--smoke", &smoke, "short deterministic gate mode");
    harness.flag("--seed", &seed, "load-generator seed (default 1)");
    harness.parse(argc, argv);
    bench::catchStopSignals();
    return run(smoke, seed, harness);
}
