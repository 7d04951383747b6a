/**
 * @file
 * Umbrella header plus the hot-path guard macros.
 *
 * A layer that counts live into a registry (the cluster simulator)
 * holds raw pointers to registry-owned metrics, null by default.  With
 * telemetry disabled nothing is ever bound, so every update site costs
 * exactly one well-predicted null check - the discipline behind the
 * "<2% when disabled" overhead budget in DESIGN.md section 12.  Use
 * the macros (not bare pointer derefs) at update sites so the disabled
 * path stays uniform and greppable.  Every other layer keeps plain
 * stats and publishes them at export time.
 */

#ifndef HDMR_TELEMETRY_TELEMETRY_HH
#define HDMR_TELEMETRY_TELEMETRY_HH

#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

/** Bump a bound Counter* by 1; no-op when unbound. */
#define HDMR_TM_INC(metric)                                             \
    do {                                                                \
        if (metric)                                                     \
            (metric)->inc();                                            \
    } while (0)

/** Bump a bound Counter* by `delta`; no-op when unbound. */
#define HDMR_TM_ADD(metric, delta)                                      \
    do {                                                                \
        if (metric)                                                     \
            (metric)->inc(delta);                                       \
    } while (0)

/** Set a bound Gauge*; no-op when unbound. */
#define HDMR_TM_SET(metric, value)                                      \
    do {                                                                \
        if (metric)                                                     \
            (metric)->set(value);                                       \
    } while (0)

/** Add to a bound Gauge*; no-op when unbound. */
#define HDMR_TM_GAUGE_ADD(metric, delta)                                \
    do {                                                                \
        if (metric)                                                     \
            (metric)->add(delta);                                       \
    } while (0)

/** Record into a bound Log2Histogram*; no-op when unbound. */
#define HDMR_TM_RECORD(metric, value)                                   \
    do {                                                                \
        if (metric)                                                     \
            (metric)->record(value);                                    \
    } while (0)

#endif // HDMR_TELEMETRY_TELEMETRY_HH
