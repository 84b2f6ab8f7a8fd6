#ifndef FAASFLOW_SIM_SIMULATOR_H_
#define FAASFLOW_SIM_SIMULATOR_H_

#include "common/sim_time.h"
#include "sim/event_queue.h"

namespace faasflow::sim {

/**
 * The discrete-event simulation driver.
 *
 * Owns the event queue and the simulated clock. Components schedule
 * callbacks relative to now(); run() pumps events until the queue drains
 * or a horizon is reached. The simulator is strictly single-threaded.
 */
class Simulator
{
  public:
    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Event callback: small-buffer optimised, accepts any callable
     *  (including move-only ones); see common/inline_fn.h. */
    using Callback = EventQueue::Callback;

    /** Schedules `fn` to run `delay` after now(); delay must be >= 0. */
    EventId schedule(SimTime delay, Callback fn);

    /** Schedules `fn` at an absolute timestamp (>= now()). */
    EventId scheduleAt(SimTime when, Callback fn);

    /**
     * Schedules a background event `delay` after now(): it fires on time
     * like any other, but pendingEvents() does not count it. A periodic
     * tick that re-arms only while events are pending therefore stops
     * once the foreground work drains, even beside other such ticks.
     */
    EventId scheduleBackground(SimTime delay, Callback fn);

    /** Cancels a pending event; see EventQueue::cancel. */
    bool cancel(EventId id);

    /** Runs until the event queue is empty. Returns events processed. */
    uint64_t run();

    /**
     * Runs events with timestamp <= horizon; the clock is advanced to
     * `horizon` even if the queue drains earlier. Returns events processed.
     */
    uint64_t runUntil(SimTime horizon);

    /** Pending (non-cancelled) foreground event count. */
    size_t
    pendingEvents() const
    {
        return queue_.liveCount() - queue_.backgroundCount();
    }

    /** Total events processed since construction. */
    uint64_t processedEvents() const { return processed_; }

    /** Event-queue health counters (scheduling/cancel/compaction). */
    const EventQueue::Stats& queueStats() const { return queue_.stats(); }

  private:
    EventQueue queue_;
    SimTime now_;
    uint64_t processed_ = 0;
};

}  // namespace faasflow::sim

#endif  // FAASFLOW_SIM_SIMULATOR_H_
