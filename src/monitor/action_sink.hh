/**
 * @file
 * The narrow interface through which monitoring becomes control.
 *
 * The monitor subsystem deliberately knows nothing about
 * core::ModeController or core::EpochGuard: a scheme engine fires
 * *abstract* actions into an ActionSink, and the node layer (which
 * already owns both) implements the bridge.  This keeps hdmr_monitor
 * a leaf library (util + snapshot + telemetry only) and makes every
 * action unit-testable against a recording fake.
 *
 * Contract: every method must be safe to call at any aggregation
 * boundary, idempotent when re-applied with the same argument (scheme
 * state is snapshot/restored mid-run and re-asserts its active levels
 * on restore), and must never re-enter the monitor.
 */

#ifndef HDMR_MONITOR_ACTION_SINK_HH
#define HDMR_MONITOR_ACTION_SINK_HH

namespace hdmr::monitor
{

/** Where scheme actions land (implemented by the node layer). */
class ActionSink
{
  public:
    virtual ~ActionSink() = default;

    /**
     * Additive boost on the write-mode trigger fill while a
     * read-preference scheme is active; 0 restores the configured
     * trigger.  Level-type: re-applying the same boost is a no-op.
     */
    virtual void setWriteTriggerBoost(double boost) = 0;

    /**
     * Scale the SDC epoch length relative to its configured base;
     * 1.0 restores the base length.  Level-type like the boost.
     */
    virtual void setEpochScale(double scale) = 0;

    /**
     * Scale the discretionary LLC-cleaning budget of each write-mode
     * window (the most deferrable write-side work: cleaning stalls
     * reads now to shrink future write batches).  1.0 restores the
     * configured budget.  Level-type like the boost.
     */
    virtual void setCleanFraction(double fraction) = 0;

    /** Re-earn one margin step (bounded by the qualified rate). */
    virtual void promoteMargin() = 0;

    /** Give back one margin step (permanent, like a quarantine-policy
     *  demotion). */
    virtual void demoteMargin() = 0;
};

} // namespace hdmr::monitor

#endif // HDMR_MONITOR_ACTION_SINK_HH
